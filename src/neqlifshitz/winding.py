"""Argument-principle zero counts on the boundaries of boxes, for the
pole checks of the response kernels (`spectral.winding_count`) and the
zero search of the denominator D_mu in the steady pressure's strip
(`pressure._box_winding`)."""

import numpy as np

_COUNT_TURN = np.pi / 4
_COUNT_MIN_STEP = 1e-12
#: Largest distance of a winding from an integer that a caller accepts.
_WINDING_SLACK = 1e-6


def _box_path(box, t, cut):
    """Points of the boundary of the box x0 < Re z < x1, y0 < Im z < y1
    at parameters t in [0, 4), counterclockwise from (x0, y0), with y =
    y0 + (y1 - y0) f^2 on the vertical edges (f the fraction of the edge,
    counted upwards).  A box with its corner at z = 0 has that corner
    cut off by ``cut`` of its edges.  ``box`` holds x0, x1, y0, y1, each
    broadcast against t."""
    x0, x1, y0, y1 = box
    cut = np.where((x0 == 0.0) & (y0 == 0.0), cut, 0.0)
    edge = np.floor(t)
    f = t - edge
    up, down = f * f, (1.0 - f) ** 2 * (1.0 - cut) + cut
    return np.choose(edge.astype(int), [x0 + (x1 - x0) * (cut + (1.0 - cut) * f) + 1j * y0,
                                        x1 + 1j * (y0 + (y1 - y0) * up),
                                        x1 - (x1 - x0) * f + 1j * y1,
                                        x0 + 1j * (y0 + (y1 - y0) * down)])


def box_winding(sample, boxes, per_edge, cut, on_boundary):
    """The winding of f along the boundaries of boxes (`_box_path`, corner
    cut ``cut``), shaped (4, boxes), all refined at once.  ``sample(at,
    z)`` returns f, d log f / dz and any arrays to carry along at points
    z of the boxes ``at``.  A boundary starts with ``per_edge`` steps per
    edge, and a step is halved while the phase of f, or its length times
    the larger |d log f / dz| at its ends, turns by more than
    ``_COUNT_TURN``, so no turn aliases.  A coarse start costs rounds, not
    counts: the 44 flagged strips of the sweep-far plates take 1,877
    samples in 7 rounds from 8 and 5,685 in 5 from 32.  Returns, per box,
    (the winding as a float, the boundary points, the carried arrays);
    raises ``on_boundary(j)`` once a step of box j falls below
    ``_COUNT_MIN_STEP`` (a zero on its boundary)."""
    def at(box, t):
        z = _box_path(boxes[:, box], t, cut)
        return (z, *sample(box, z))

    count = boxes.shape[1]
    if not count:
        return []
    steps = 4 * per_edge
    box = np.repeat(np.arange(count), steps)
    t = np.tile(np.arange(steps) / per_edge, count)
    z, f, dlog, *carry = at(box, t)
    while True:
        first = np.flatnonzero(np.r_[True, box[1:] != box[:-1]])
        last = np.r_[first[1:], len(box)] - 1
        nxt = np.arange(1, len(box) + 1)
        nxt[last] = first
        slope = np.abs(dlog)
        d = np.angle(f[nxt] / f)
        reach = np.maximum(slope, slope[nxt]) * np.abs(z[nxt] - z)
        wide = np.flatnonzero((np.abs(d) > _COUNT_TURN) | (reach > _COUNT_TURN))
        if not wide.size:
            break
        ends = t[nxt]
        ends[last] = 4.0
        if np.any(ends[wide] - t[wide] < _COUNT_MIN_STEP):
            raise on_boundary(box[wide[np.argmin(ends[wide] - t[wide])]])
        mid = 0.5 * (t[wide] + ends[wide])
        new = at(box[wide], mid)
        box, t = np.r_[box, box[wide]], np.r_[t, mid]
        order = np.lexsort((t, box))
        box, t = box[order], t[order]
        z, f, dlog, *carry = (np.r_[a, b][order] for a, b in zip((z, f, dlog, *carry), new))
    winding = np.bincount(box, weights=d, minlength=count) / (2.0 * np.pi)
    bounds = np.r_[first, len(box)]
    return [(winding[j], *(a[lo:hi] for a in (z, *carry)))
            for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]
