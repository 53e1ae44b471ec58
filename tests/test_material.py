import math

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from neqlifshitz.errors import ConfigError, DomainError, SingularityError
from neqlifshitz.material import (
    BathModel,
    EpsilonTable,
    Material,
    bath_dissipation,
    bath_dissipation_fourier,
    fdr_epsilon_identity,
    load_epsilon_table,
    noise_fourier,
    permittivity,
    permittivity_fourier,
    qbm_green,
)

from conftest import frequencies, lossy_materials


# ---------------------------------------------------------------------------
# oscillator response and permittivity
# ---------------------------------------------------------------------------


def test_static_permittivity_exact():
    # D(0) = 0 for every supported kernel, so eps(0) = 1 + lambda0^2/omega0^2
    for kind, cut in [("none", math.inf), ("ohmic", math.inf), ("ohmic_lorentz_cutoff", 30.0)]:
        gamma = 0.0 if kind == "none" else 0.3
        m = Material(omega0=2.0, lambda0=1.5, bath=BathModel(kind=kind, gamma=gamma, cutoff=cut))
        assert_allclose(permittivity(m, 0.0), 1.0 + 1.5**2 / 2.0**2, rtol=1e-14)


def test_fourier_value_at_resonance(lorentz_ohmic):
    # at omega = omega0 the real part of the denominator cancels and
    # eps_bar = 1 + 1/(i*gamma*omega0) -> 1 + 10j for gamma = 0.1
    assert_allclose(permittivity_fourier(lorentz_ohmic, 1.0), 1.0 + 10.0j, rtol=1e-12)


def test_green_static_value(lorentz_ohmic):
    assert_allclose(qbm_green(lorentz_ohmic, 0.0), 1.0 / lorentz_ohmic.omega0**2, rtol=1e-14)


def test_green_pole_raises():
    m = Material(omega0=1.0, bath=BathModel(kind="ohmic", gamma=0.1))
    pole = -0.05 + 1j * math.sqrt(1.0 - 0.0025)
    with pytest.raises(SingularityError):
        qbm_green(m, pole)


def test_green_array_shape(lorentz_ohmic):
    s = np.array([0.1 + 0.2j, 1.0, -1j * 3.0])
    g = qbm_green(lorentz_ohmic, s)
    assert g.shape == (3,)
    assert_allclose(g[1], qbm_green(lorentz_ohmic, 1.0 + 0j))


def test_hermitian_symmetry(lorentz_ohmic):
    w = np.linspace(0.05, 8.0, 23)
    ep = permittivity_fourier(lorentz_ohmic, w)
    em = permittivity_fourier(lorentz_ohmic, -w)
    assert_allclose(em, np.conj(ep), rtol=1e-13)


def test_marginal_material_eta_prescription():
    # gamma = 0: the retarded prescription must still give Im eps >= 0
    m = Material(omega0=1.0, lambda0=1.0, bath=BathModel(kind="none", gamma=0.0))
    for w in (0.5, 0.999, 1.3):
        e = permittivity_fourier(m, w)
        assert e.imag >= 0.0


def test_cutoff_kernel_reduces_to_ohmic():
    mo = Material(bath=BathModel(kind="ohmic", gamma=0.2))
    mc = Material(bath=BathModel(kind="ohmic_lorentz_cutoff", gamma=0.2, cutoff=1e7))
    w = np.linspace(0.1, 5.0, 40)
    assert_allclose(permittivity_fourier(mc, w), permittivity_fourier(mo, w), rtol=1e-6)


# ---------------------------------------------------------------------------
# bath kernel and noise
# ---------------------------------------------------------------------------


def test_im_dbar_ohmic():
    b = BathModel(kind="ohmic", gamma=0.4)
    w = np.linspace(-3, 3, 11)
    assert_allclose(np.imag(bath_dissipation_fourier(b, w)), 0.5 * 0.4 * w, atol=1e-15)


def test_im_dbar_cutoff():
    b = BathModel(kind="ohmic_lorentz_cutoff", gamma=0.4, cutoff=7.0)
    w = np.linspace(-3, 3, 11)
    expect = 0.5 * 0.4 * w * 7.0**2 / (7.0**2 + w**2)
    assert_allclose(np.imag(bath_dissipation_fourier(b, w)), expect, rtol=1e-13, atol=1e-16)


def test_dissipation_vanishes_at_origin():
    for b in (BathModel(kind="ohmic", gamma=0.3),
              BathModel(kind="ohmic_lorentz_cutoff", gamma=0.3, cutoff=11.0)):
        assert bath_dissipation(b, 0.0) == 0.0


def test_noise_even_and_plateau():
    m = Material(bath=BathModel(kind="ohmic", gamma=0.3), beta_bath=2.0)
    w = np.linspace(0.01, 5, 60)
    assert_allclose(noise_fourier(m, w), noise_fourier(m, -w), rtol=1e-13)
    # classical plateau N_bar(0) = gamma/beta
    assert_allclose(noise_fourier(m, 0.0), 0.3 / 2.0, rtol=1e-12)
    # T = 0: coth -> sign, so N_bar = |Im D_bar|
    m0 = Material(bath=BathModel(kind="ohmic", gamma=0.3))
    assert_allclose(noise_fourier(m0, 1.7), 0.5 * 0.3 * 1.7, rtol=1e-13)
    assert noise_fourier(m0, 0.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(mat=lossy_materials(), omega=frequencies())
def test_fdr_identity(mat, omega):
    lhs, rhs = fdr_epsilon_identity(mat, omega)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(mat=lossy_materials(), omega=frequencies())
def test_passivity(mat, omega):
    assert np.imag(permittivity_fourier(mat, omega)) > 0.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_bath_validation():
    with pytest.raises(DomainError):
        BathModel(kind="squarewell")
    with pytest.raises(DomainError):
        BathModel(kind="ohmic", gamma=-0.1)
    with pytest.raises(DomainError):
        BathModel(kind="ohmic_lorentz_cutoff", gamma=0.1, cutoff=math.inf)
    with pytest.raises(DomainError):
        BathModel(kind="none", gamma=0.2)


def test_material_validation():
    with pytest.raises(DomainError):
        Material(omega0=0.0)
    with pytest.raises(DomainError):
        Material(lambda0=-1.0)
    with pytest.raises(DomainError):
        Material(mass=0.0)
    with pytest.raises(DomainError):
        Material(beta_bath=0.0)
    assert not Material(lambda0=0.0).has_loss
    assert not Material(bath=BathModel(kind="none", gamma=0.0)).has_loss
    assert Material().has_loss


# ---------------------------------------------------------------------------
# tabulated permittivity
# ---------------------------------------------------------------------------

TABLE_TEXT = """\
# omega  re_eps  im_eps
0.1, 2.50, 0.0
1.0, 2.50, 0.0
10 2.50 0   # whitespace separation also fine
"""


def test_load_table():
    t = load_epsilon_table(TABLE_TEXT, beta_bath=4.0)
    assert t.omega.shape == (3,) and t.beta_bath == 4.0
    # one real constant at every frequency, inside the rows' range or not,
    # negative and zero included
    assert t.eps_fourier(1.0) == 2.5
    assert t.eps_fourier(50.0) == 2.5
    assert np.array_equal(t.eps_fourier(np.array([-1.0, 0.0, 3.0])), [2.5, 2.5, 2.5])


def test_load_table_errors():
    with pytest.raises(ConfigError) as e:
        load_epsilon_table("0.1 2.0\n")
    assert "line 1" in str(e.value)
    with pytest.raises(ConfigError) as e:
        load_epsilon_table("0.1 2.0 0.0\nx y z\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ConfigError):
        load_epsilon_table("# only comments\n")
    with pytest.raises(DomainError):
        load_epsilon_table("1 2 -0.5\n")  # active medium rejected
    with pytest.raises(DomainError):
        load_epsilon_table("2 2 0\n1 2 0\n")  # non-monotone grid
    with pytest.raises(DomainError, match="finite"):
        load_epsilon_table("1 nan 0\n")


def test_table_refuses_disagreeing_rows():
    # a frequency-dependent table has no continuation off the real axis:
    # it is refused when it is built, by the constructor and by the loader
    with pytest.raises(DomainError, match=r"rows disagree: eps\(2\) = 3\+0\.1j but eps\(1\)"):
        EpsilonTable(omega=np.array([1.0, 2.0]), eps=np.array([4.0 + 0.1j, 3.0 + 0.1j]))
    with pytest.raises(DomainError, match="one constant permittivity"):
        load_epsilon_table("0.1, 2.5, 0.0\n1.0, 2.5, 0.0\n10, 2.5, 1e-3\n")


def test_table_refuses_a_complex_permittivity():
    # a constant complex eps has no causal continuation (the Matsubara sum
    # would read its real part only): refused by the constructor and the
    # loader, whatever the sign of Im eps; a rows-disagree error comes first
    for eps in (4.0 + 0.5j, 4.0 + 0.01j, 2.0 - 0.5j):
        with pytest.raises(DomainError, match="must be real"):
            EpsilonTable(omega=np.array([1.0]), eps=np.array([eps]))
    with pytest.raises(DomainError, match="must be real"):
        load_epsilon_table("0.5, 3.0, 0.1\n2.0, 3.0, 0.1\n")
    with pytest.raises(DomainError, match="rows disagree"):
        load_epsilon_table("0.5, 3.0, 0.1\n2.0, 3.0, 0.2\n")


def test_dispersionless_table():
    t = EpsilonTable(omega=np.array([1.0]), eps=np.array([1e4 + 0.0j]))
    assert t.eps_fourier(123.0) == 1e4
    assert t.eps_laplace(0.3 + 2j) == 1e4
    assert np.all(t.eps_laplace(np.array([0.5, 1j, -2.0 + 3j])) == 1e4)
