import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from neqlifshitz.em_green import plate_eps, qz
from neqlifshitz.material import BathModel, Material

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The property tests draw the same examples on every run and every machine:
# derandomized, with no example database to replay.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pytest_configure(config):
    """Let subprocesses (the CLI runs of the acceptance suite) import this
    checkout's package even when it is not installed."""
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + paths)


@pytest.fixture
def lorentz_ohmic():
    """The workhorse lossy material (omega0 = lambda0 = 1, gamma = 0.1)."""
    return Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def rand_lossy(rng):
    """A random dissipative material (ohmic or cutoff bath) drawn from a
    numpy Generator: acceptance criterion 7's generator."""
    kind = ("ohmic", "ohmic_lorentz_cutoff")[rng.integers(2)]
    if kind == "ohmic":
        bath = BathModel(kind="ohmic", gamma=float(rng.uniform(0.05, 0.8)))
    else:
        bath = BathModel(kind="ohmic_lorentz_cutoff",
                         gamma=float(rng.uniform(0.05, 0.8)),
                         cutoff=float(rng.uniform(10.0, 80.0)))
    return Material(omega0=float(rng.uniform(0.5, 2.5)),
                    lambda0=float(rng.uniform(0.4, 1.5)), bath=bath,
                    beta_bath=float(rng.uniform(0.5, 5.0)))


def lossy_materials(min_gamma=0.01, kinds=("ohmic", "ohmic_lorentz_cutoff")):
    """Hypothesis strategy for dissipative materials in a sane numeric range."""

    def build(kind, omega0, lambda0, gamma, cutoff, beta):
        bath = BathModel(kind=kind, gamma=gamma, cutoff=cutoff if kind == "ohmic_lorentz_cutoff" else math.inf)
        return Material(omega0=omega0, lambda0=lambda0, bath=bath, beta_bath=beta)

    return st.builds(
        build,
        kind=st.sampled_from(kinds),
        omega0=st.floats(0.3, 3.0),
        lambda0=st.floats(0.1, 2.0),
        gamma=st.floats(min_gamma, 1.0),
        cutoff=st.floats(5.0, 200.0),
        beta=st.one_of(st.just(math.inf), st.floats(0.1, 50.0)),
    )


def frequencies(lo=1e-3, hi=50.0):
    return st.floats(lo, hi)


def fresnel_tm_root(side, Q, s):
    """A root of the TM Fresnel denominator eps(s) q + qn, by Newton from s."""
    def den(x):
        eps = plate_eps(side, x)
        return eps * qz(1.0, x, Q) + qz(eps, x, Q)

    for _ in range(40):
        step = den(s) * 2e-6 / (den(s + 1e-6) - den(s - 1e-6))
        s -= step
        if abs(step) <= 1e-15 * abs(s):
            return s
    raise AssertionError("Newton did not converge on the Fresnel root")
