"""Root dispatch, dispersion sampling and band-touch classification along the
diagonal slice.  Every sweep of the package evaluates through ``roots_at``.

All touch analysis happens on the anti-diagonal slice theta2 = -theta1 of the
Brillouin zone, where the structure function F = 1 + 2 cos(theta1) is real and
sweeps [-1, 3].  For each pair of adjacent (sorted) dispersion branches the
classifier locates every local minimum of the separation and refines it
(``refine.bounded_minima``); ``refine.classify_minima``, the stage the
magnetic zone classifier shares, issues one report per minimum:

* ``cone``       — separation reaches zero with a one-sided slope of
                   magnitude above tol_slope and no branch relabeling
                   across the touch;
* ``parabolic``  — separation reaches zero with vanishing slopes (quadratic
                   contact);
* ``crossing``   — separation reaches zero but the labeled branches trade
                   order across the point (transversal intersection of two
                   analytic root families, no spectral gap and no cone);
* ``gap``        — separation stays positive; the report records its width.

Crossings are only distinguishable when labeled closed-form branches are
available; on numeric-only surfaces a transversal intersection looks exactly
like a cone and is reported as one (documented convention).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# a module import: magnetic imports bands back, for roots_at
from . import magnetic
from .errors import InputError, NoClosedFormError, ResolutionError
from .floquet import (
    BATCH_BYTES,
    DispersionRoots,
    _require_opposite_pair,
    _theta_batch,
    assemble,
    batch_points,
    closed_form_roots,
    numeric_roots,
)
from .lattice import (
    StackConfig,
    StackVariant,
    diagonal_slice,
    structure_function,
)
from .refine import (
    DEFAULT_TOL_SLOPE,
    DEFAULT_TOL_TOUCH,
    TouchReport,
    bounded_minima,
    classify_minima,
    pair_separations,
    wrap_theta,
)

MIN_CLASSIFY_SAMPLES = 201     # coarser diagonal scans miss narrow features
FLAT_SEP_TOL = 1e-12           # constant-separation profiles get one record
_REFINE_XATOL = 1e-12          # bounded-minimization tolerance in theta
_DIAGONAL_DIR = np.array([1.0, -1.0])   # probes along the slice theta2 = -theta1
PROMINENCE_TOL = 1e-10         # minima must rise this far above the floor;
                               # filters machine-level wobble on piecewise-
                               # constant separation plateaus


# ============================================================
#  Point evaluation and sampled surfaces
# ============================================================

def roots_at(config: StackConfig, theta1, theta2=None,
             route: str = "auto") -> DispersionRoots:
    """Sorted dispersion roots at one quasimomentum or a batch of them
    (theta as scalars or 1-D arrays; theta2 defaults to -theta1), for every
    variant; the one place that decides which route serves a point.

    ``route``: "closed" takes the analytic formulas at every point that has
    them (the monolayer's for the magnetic q = 1 cell) and the eigensolver
    at the others; "numeric" takes the eigensolver everywhere; "auto" is
    "closed" except for the q = 1 cell, whose artifacts come from the
    eigensolver.  ``closed`` on the result marks the points that took the
    formulas; branch names and sort orders are given when all of them did.

    The points go to the engine in batches of ``batch_points``.  A call that
    fits in one batch the formulas serve is their result as it is, returned
    before any result array is made: the refiners make hundreds of such
    calls a job.  A batch the formulas cannot serve whole sends its other
    points to the eigensolver and its formula points to the end, where they
    are evaluated together; once the parameters have no closed form at all,
    the formulas are not tried again.
    """
    if route not in ("auto", "closed", "numeric"):
        raise InputError(f"unknown evaluation route {route!r}")
    if theta2 is None:
        theta2 = -theta1
    t1, t2, scalar = _theta_batch(theta1, theta2)
    n, dim = len(t1), config.dim
    flux = config.flux        # set for the magnetic flux cells only
    formulas = route == "closed" or (
        route == "auto" and not (flux is not None and flux.q == 1))
    # the result arrays, made by the first batch that does not serve the
    # call whole
    values = order = closed = None
    names = ()

    def fill(index, part_values, roots=None) -> None:
        nonlocal values, order, closed, names
        if values is None:
            values = np.empty((n, dim))
            order = np.empty((n, dim), dtype=np.int8)
            closed = np.zeros(n, dtype=bool)
        values[index] = part_values
        if roots is not None:
            order[index] = roots.order
            closed[index] = True
            names = roots.names

    def by_formula(index) -> DispersionRoots:
        if flux is not None and flux.q == 2:
            return magnetic.closed_form_roots_q2(config, t1[index], t2[index])
        return closed_form_roots(config, t1[index], t2[index])

    size = batch_points(dim)
    deferred = []
    for start in range(0, n, size):
        part = slice(start, start + size)
        if formulas:
            try:
                roots = by_formula(part)
            except NoClosedFormError as exc:
                if exc.servable is None:
                    formulas = False
                else:
                    index = np.arange(n)[part]
                    deferred.append(index[exc.servable])
                    part = index[~exc.servable]
            else:
                if n <= size and not scalar:
                    return roots    # one engine batch, served whole
                fill(part, roots.values, roots)
                continue
        if flux is not None:
            # the flux cells' artifacts come from eigvalsh(A) / 3, which
            # differs from numeric_roots' D^{-1/2} scaling in the last bits;
            # numeric_roots here would move the bytes of the q = 1 cell's
            # bands.csv and magnetic.txt and of both cells' validate.txt
            # (five GOLDEN rows of tests/test_batch.py)
            fill(part, np.linalg.eigvalsh(
                magnetic.assemble_robin(config, t1[part], t2[part]).affine) / 3.0)
        else:
            fill(part, numeric_roots(assemble(config, t1[part], t2[part])).values)
    if deferred:
        deferred = np.concatenate(deferred)
        for start in range(0, len(deferred), size):
            index = deferred[start:start + size]
            roots = by_formula(index)
            fill(index, roots.values, roots)

    if values is None:      # no points
        fill(slice(0), np.empty((0, dim)))
    if not closed.all():
        names = ()
    if scalar:
        values, order, closed = values[0], order[0], closed.reshape(())
    return DispersionRoots(values=values, closed=closed, names=names,
                           order=order if names else None)


@dataclass(frozen=True)
class DispersionSurface:
    """Dispersion branches sampled along the diagonal slice theta2 = -theta1."""

    config: StackConfig
    theta: np.ndarray          # (n,) theta1 samples on [-pi, pi]
    values: np.ndarray         # (n, dim) eta roots, ascending along each row
    route: str                 # "closed" (labelled branches) or "numeric"

    @property
    def n_samples(self) -> int:
        return len(self.theta)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def separations(self) -> np.ndarray:
        """Adjacent-branch separations, shape (n, dim - 1)."""
        return np.diff(self.values, axis=1)

    def roots_at(self, theta1, theta2=None) -> DispersionRoots:
        return roots_at(self.config, theta1, theta2, route=self.route)


def sample_diagonal(config: StackConfig, n: int = 501,
                    route: str = "auto") -> DispersionSurface:
    """Sample all dispersion branches on the diagonal slice (n points).

    On the slice the closed forms exist at every point or at none, so the
    surface has one route.
    """
    theta = diagonal_slice(n)
    roots = roots_at(config, theta, -theta, route=route)
    return DispersionSurface(config=config, theta=theta, values=roots.values,
                             route="closed" if roots.names else "numeric")


def adjacent_separations(config: StackConfig, theta1: float,
                         theta2: float | None = None,
                         route: str = "auto") -> np.ndarray:
    """Separations between adjacent sorted branches at one quasimomentum."""
    return np.diff(roots_at(config, theta1, theta2, route=route).values)


def diagonal_theta_for_f(f: float) -> float:
    """The theta1 >= 0 on the diagonal slice where F = 1 + 2 cos(theta1) = f."""
    if not -1.0 <= f <= 3.0:
        raise InputError(f"F = {f!r} is outside the diagonal range [-1, 3]")
    return float(np.arccos((f - 1.0) / 2.0))


# ============================================================
#  Touch reports
# ============================================================

def _local_min_indices(y: np.ndarray) -> np.ndarray:
    """Indices of periodic local minima (strict on the left to split plateaus)."""
    prev = np.roll(y, 1)
    nxt = np.roll(y, -1)
    return np.nonzero((y < prev) & (y <= nxt))[0]


def _is_prominent(y: np.ndarray, idx: np.ndarray, eps: float) -> np.ndarray:
    """For each index i of idx: True when the periodic profile rises by more
    than eps on both sides of i before dropping below y[i] - eps.

    Rejects rounding-level wobble minima on flat plateau stretches while
    keeping every minimum with real structure around it (a deeper neighboring
    minimum is always separated by an intervening local maximum, so the rise
    is seen first).  Each side is one pass over the (indices, m) walks, in
    blocks of ``BATCH_BYTES``; a NaN neither rises nor drops."""
    m = len(y)
    rows = max(1, BATCH_BYTES // (8 * m))
    keep = np.ones(len(idx), dtype=bool)
    # the walk to the left of i is the walk to the right of m - 1 - i in y[::-1]
    for line, start in ((y, idx), (y[::-1], m - 1 - idx)):
        # walks[i + 1] holds the m points after i, ending on i itself
        walks = sliding_window_view(np.concatenate([line, line]), m)
        for lo in range(0, len(idx), rows):
            at = start[lo:lo + rows]
            walk, level = walks[at + 1], line[at, None]
            rise, drop = walk > level + eps, walk < level - eps
            first_drop = np.where(drop.any(axis=1), drop.argmax(axis=1), m)
            keep[lo:lo + rows] &= (rise.any(axis=1)
                                   & (rise.argmax(axis=1) <= first_drop))
    return keep


def classify_touches(surface: DispersionSurface,
                     tol_touch: float = DEFAULT_TOL_TOUCH,
                     tol_slope: float = DEFAULT_TOL_SLOPE
                     ) -> tuple[TouchReport, ...]:
    """Classify every adjacent-branch feature of a diagonal dispersion surface.

    Needs at least ``MIN_CLASSIFY_SAMPLES`` samples; each grid-level local
    minimum of each separation profile is refined by bounded minimization
    before classification.  The minima of all profiles are refined together
    (``refine.bounded_minima``), so the engine calls of a refinement follow its
    slowest minimum rather than the number of minima.
    """
    if surface.n_samples < MIN_CLASSIFY_SAMPLES:
        raise ResolutionError(
            f"classification needs >= {MIN_CLASSIFY_SAMPLES} diagonal samples "
            f"(got {surface.n_samples})"
        )
    theta = surface.theta
    h = theta[1] - theta[0]
    seps = surface.separations()
    flat: list[TouchReport] = []
    brackets: list[tuple[int, int]] = []     # (pair, grid index)
    for pair in range(surface.dim - 1):
        profile = seps[:, pair]
        if float(profile.max() - profile.min()) < FLAT_SEP_TOL:
            width = float(profile.mean())
            mid = surface.n_samples // 2
            value = 0.5 * float(surface.values[mid, pair]
                                + surface.values[mid, pair + 1])
            flat.append(TouchReport(
                kind="gap", band_pair=(pair, pair + 1), theta1=None,
                theta2=None, f_value=None, value=value, separation=width,
                gap_width=width, gamma=None, curvature=None, flat=True))
            continue
        # drop the duplicated endpoint (theta = -pi and pi are the same point)
        periodic = profile[:-1]
        minima = _local_min_indices(periodic)
        brackets += [(pair, i) for i in minima[
            _is_prominent(periodic, minima, PROMINENCE_TOL)].tolist()]
    if not brackets:
        return tuple(flat)
    pairs = np.array([pair for pair, _ in brackets])
    centers = theta[[i for _, i in brackets]]
    t_refined, s_refined = bounded_minima(
        lambda x, lanes: pair_separations(surface.roots_at, x, -x, pairs[lanes]),
        centers - h, centers + h, _REFINE_XATOL)
    minima = [(pair, t, -t, s) for pair, t, s in zip(
        pairs.tolist(), map(wrap_theta, t_refined.tolist()), s_refined.tolist())]
    reports = classify_minima(
        surface.roots_at, minima, _DIAGONAL_DIR, tol_touch, tol_slope,
        [float(structure_function(t1, t2).real) for _, t1, t2, _ in minima],
        crossings=surface.route == "closed")
    # a pair has a flat record or refined minima, never both
    return tuple(heapq.merge(flat, reports, key=lambda r: r.band_pair))


# ============================================================
#  Closed-form gap widths
# ============================================================

def gap_width_closed_form(config: StackConfig) -> float:
    """Analytic minimal gap width, for the variants that have one.

    * monolayer: |alpha_a - alpha_b| / 3 (between its two branches);
    * hetero bilayer with alpha_b = -alpha_a, alpha_c = 0:
      sqrt(2) sqrt(2 t0^4 + a^2 - sqrt(4 a^2 t0^4 + a^4)) / (3 + t0^2).
    """
    v = config.variant
    aa = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    if v is StackVariant.MONOLAYER:
        return abs(aa - ab) / 3.0
    if v is StackVariant.HETERO_BILAYER:
        _require_opposite_pair(config.vertex)
        t0 = config.coupling.t0
        asq = aa * aa
        inner = asq + 2.0 * t0 ** 4 - np.sqrt(4.0 * asq * t0 ** 4 + asq * asq)
        return float(np.sqrt(2.0) * np.sqrt(max(inner, 0.0)) / (3.0 + t0 ** 2))
    raise NoClosedFormError(f"no closed-form gap width for variant {v.value}")
