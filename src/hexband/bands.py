"""Root dispatch, dispersion sampling and band-touch classification along the
diagonal slice.  Every sweep of the package evaluates through ``roots_at``.

All touch analysis happens on the anti-diagonal slice theta2 = -theta1 of the
Brillouin zone, where the structure function F = 1 + 2 cos(theta1) is real and
sweeps [-1, 3].  For each pair of adjacent (sorted) dispersion branches the
classifier locates every local minimum of the separation and refines it
(``refine.bounded_minima``), or takes it exactly at theta1 = 0 or -pi;
``refine.classify_minima``, the stage the magnetic zone classifier shares,
issues one report per minimum.

The profiles depend on theta1 only through F, which is even in theta1, so
a feature off theta1 in {0, pi} lies at +-theta1.  The classifier refines
the half slice only (the grid minima from theta1 = 0, or -h/2 for an even
sample count, up to pi, and the one at -pi), so it gives one record per
feature; ``mirror_images`` draws the other half of the slice.  The kinds:

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
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# a module import: magnetic imports bands back, for roots_at
from . import magnetic
from .errors import InputError, NoClosedFormError, ResolutionError
from .floquet import (
    BATCH_BYTES,
    DispersionRoots,
    _require_opposite_pair,
    assemble,
    batch_points,
    closed_form_roots,
    numeric_roots,
)
from .lattice import (
    StackConfig,
    StackVariant,
    _theta_batch,
    diagonal_slice,
    structure_function,
)
from .refine import (
    _CURV_STEP,
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
    (theta as scalars, sequences or 1-D arrays; theta2 defaults to
    -theta1), for every variant; the one place that decides which route
    serves a point.

    ``route``: "closed" takes the analytic formulas at every point that has
    them (the monolayer's for the magnetic q = 1 cell) and the eigensolver
    at the others; "numeric" takes the eigensolver everywhere; "auto" is
    "closed" except for the q = 1 cell, whose artifacts come from the
    eigensolver.  ``closed`` on the result marks the points that took the
    formulas; branch names and sort orders are given when all of them did.

    The engine pass is ``engine_rows``; this scatters its rows back to the
    call's points, bit for bit.  A call of one batch, and so each of the
    refiners' small calls, gets that batch's result as it is, with no
    result array made.
    """
    rows, inverse, _, _ = engine_rows(config, theta1, theta2, route)
    if inverse is None:
        return rows
    order = rows.order[inverse, ...] if rows.names else None
    return DispersionRoots(values=rows.values[inverse, ...],
                           closed=rows.closed[inverse, ...],
                           names=rows.names, order=order)


def engine_rows(config: StackConfig, theta1, theta2=None, route: str = "auto"
                ) -> tuple[DispersionRoots, np.ndarray | int | None,
                           np.ndarray | None, np.ndarray | None]:
    """The engine's rows for the points of a ``roots_at`` call; each
    point's row among them: an index array, 0 for a scalar call, or None
    when the rows are the points themselves; a stack's F of each row (None
    for the flux cells); and, with an index array, the points whose row
    holds conj(F) in place of their F (else None).

    theta enters the engine here: for the stacks, the call computes the
    structure function F once, and the engine (``assemble``,
    ``closed_form_roots``) takes slices of it.  The magnetic flux cells stay
    on theta (the q = 2 cell's matrix is not a function of F), and only the
    q = 1 cell's formula route computes its batch's F.

    The points go to the engine in batches of ``batch_points``, and each
    batch is served where it stands.  The formulas serve it whole, or
    refuse it with a ``servable`` mask: then its servable points (if any)
    take one more formula call and the rest one eigensolver call.  Once the
    parameters have no closed form at all, the formulas are not tried again
    and the eigensolver serves the batch.  A call of one batch gives that
    batch's result as it is: the refiners make most of a classifying job's
    calls, about 800 over a pass of the benchmark's diag-classify jobs.  A
    longer call joins its batches.

    A stack's call of more than one batch evaluates each distinct F once,
    up to conjugation: every row, its route included, is a function of F's
    bits alone, and F and conj(F) have the same row (A(conj F) is the
    conjugate of A(F), which eigvalsh solves to the same bits, and the
    formulas read F through Re F and |F| alone; ``tests/test_batch.py``
    pins both).  So the engine runs on one value per bit pattern of F with
    Im F folded to Im F >= 0 (``_distinct_f``), and the index maps each
    point to its value's row.  On a full grid, whose axis is
    mirror-symmetric bit for bit, theta and -theta give conjugate F, and the
    inclusive -pi/pi edges and the theta1 <-> theta2 swap repeat more F:
    the 61 x 61, 71 x 71 and 81 x 81 grids' 3 721, 5 041 and 6 561 points
    are 1 266, 1 571 and 2 133 engine points.  ``bands.csv`` formats each
    row's text, F included, once and gathers it through the index, negating
    Im F for the folded points.  Calls of one batch
    skip the grouping, whose fixed cost would outweigh the saving there.
    """
    if route not in ("auto", "closed", "numeric"):
        raise InputError(f"unknown evaluation route {route!r}")
    t1, t2, scalar = _theta_batch(theta1, theta2)
    n, dim = len(t1), config.dim
    flux = config.flux        # set for the magnetic flux cells only
    formulas = route == "closed" or (
        route == "auto" and not (flux is not None and flux.q == 1))
    size = batch_points(dim)
    # the engine's points, the scatter back, F, and the folded points
    points, inverse, F, folded = n, None, None, None
    if flux is None:
        F = structure_function(t1, t2)      # the call's one F pass
        if n > size:
            # A(conj F) = conj A(F) has A(F)'s rows: fold each conjugate
            # pair onto its Im F > 0 member (Im F = -0.0 stays)
            folded = F.imag < 0.0
            F = np.where(folded, F.conj(), F)
            first, inverse = _distinct_f(F)
            F = F[first]
            points = len(F)

    def by_formula(index) -> DispersionRoots:
        if flux is None:
            return closed_form_roots(config, F[index])
        if flux.q == 2:
            return magnetic.closed_form_roots_q2(config, t1[index], t2[index])
        return closed_form_roots(config, structure_function(t1[index], t2[index]))

    def by_eigensolver(index) -> np.ndarray:
        if flux is None:
            return numeric_roots(assemble(config, F[index])).values
        # the flux cells' artifacts come from eigvalsh(A) / 3, which differs
        # from numeric_roots' D^{-1/2} scaling in the last bits; numeric_roots
        # here would move the bytes of the q = 1 cell's bands.csv and
        # magnetic.txt and of both cells' validate.txt (five GOLDEN rows of
        # tests/test_batch.py)
        return np.linalg.eigvalsh(
            magnetic.assemble_robin(config, t1[index], t2[index]).affine) / 3.0

    def serve(start: int) -> DispersionRoots:
        nonlocal formulas
        part = slice(start, start + size)
        if formulas:
            try:
                return by_formula(part)
            except NoClosedFormError as exc:
                servable = exc.servable
                if servable is None:
                    formulas = False    # no point has them, in any batch
                else:
                    index = np.arange(start, start + len(servable))
                    values = np.empty((len(index), dim))
                    values[~servable] = by_eigensolver(index[~servable])
                    if servable.any():
                        values[servable] = by_formula(index[servable]).values
                    return DispersionRoots(values=values, closed=servable)
        values = by_eigensolver(part)
        return DispersionRoots(values=values, closed=np.zeros(len(values), dtype=bool))

    parts = [serve(start) for start in range(0, points, size)]
    if not parts:       # no points
        return DispersionRoots(values=np.empty((0, dim)),
                               closed=np.zeros(0, dtype=bool)), None, F, None
    # one point's row is indexed [0, ...], which keeps its closed a 0-d array
    inverse = 0 if scalar else inverse
    if len(parts) == 1:
        return parts[0], inverse, F, folded     # one engine batch, as it came
    # branch names only when every batch, and so every row, took the formulas
    names = parts[0].names if all(roots.names for roots in parts) else ()

    def joined(field: str) -> np.ndarray:
        return np.concatenate([getattr(roots, field) for roots in parts])

    rows = DispersionRoots(values=joined("values"), closed=joined("closed"),
                           names=names, order=joined("order") if names else None)
    return rows, inverse, F, folded


def _distinct_f(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group points by the exact bits of F: the index of one point of each
    group, and each point's group in that index.

    A stable argsort of F (numpy orders complex values by real part, then
    imaginary part) brings equal F together, and a group is a run of
    neighbours whose bits match.  So 0.0 and -0.0 stay apart, where
    ``np.unique`` on complex values merges them; the sort ranks them equal,
    which can at worst split a group.  ``roots_at`` passes F with each
    conjugate pair folded onto its Im F > 0 member; Im F = -0.0 is not
    folded, so F with Im F = +0.0 and -0.0 stay two groups here too.
    """
    by_value = np.argsort(F, kind="stable")
    re, im = (part.view(np.int64)[by_value] for part in (F.real, F.imag))
    new = np.empty(len(F), dtype=bool)
    new[:1] = True
    new[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    inverse = np.empty(len(F), dtype=np.intp)
    inverse[by_value] = np.cumsum(new) - 1
    return by_value[new], inverse


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

def _grid_minima(seps: np.ndarray, half: int,
                 eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat columns of ``seps`` (n, pairs), and the pair and grid index of
    every prominent periodic grid minimum of the others on the half slice
    (index 0 and from ``half`` on), pair-major with ascending index.

    A column is flat when its values span less than ``FLAT_SEP_TOL``.  The
    periodic profile drops the duplicated endpoint (theta = -pi and pi are
    the same point).  A grid minimum is strict on the left, to split
    plateaus, and is prominent when the profile rises by more than eps on
    both sides of it before dropping below its value - eps: that rejects
    rounding-level wobble on flat stretches and keeps every minimum with
    real structure around it (a deeper neighbouring minimum is always
    separated by an intervening maximum, so the rise is seen first).  One
    roll/compare pass finds the minima of every pair, and each side's
    walks are gathered in blocks of ``BATCH_BYTES``; a NaN neither rises nor
    drops."""
    flat = seps.max(axis=0) - seps.min(axis=0) < FLAT_SEP_TOL
    live = np.flatnonzero(~flat)
    y = seps[:-1, live].T
    m = y.shape[1]
    is_min = (y < np.roll(y, 1, axis=1)) & (y <= np.roll(y, -1, axis=1))
    is_min[:, 1:half] = False
    row, index = np.nonzero(is_min)
    rows = max(1, BATCH_BYTES // (8 * m))
    keep = np.ones(len(row), dtype=bool)
    # the walk to the left of i is the walk to the right of m - 1 - i in y[:, ::-1]
    for line, start in ((y, index), (y[:, ::-1], m - 1 - index)):
        # walks[p, i + 1] holds the m points after i, ending on i itself
        walks = sliding_window_view(np.concatenate([line, line], axis=1), m, axis=1)
        for lo in range(0, len(row), rows):
            r, at = row[lo:lo + rows], start[lo:lo + rows]
            walk, level = walks[r, at + 1], line[r, at, None]
            rise, drop = walk > level + eps, walk < level - eps
            first_drop = np.where(drop.any(axis=1), drop.argmax(axis=1), m)
            keep[lo:lo + rows] &= (rise.any(axis=1)
                                   & (rise.argmax(axis=1) <= first_drop))
    return flat, live[row[keep]], index[keep]


def classify_touches(surface: DispersionSurface,
                     tol_touch: float = DEFAULT_TOL_TOUCH,
                     tol_slope: float = DEFAULT_TOL_SLOPE
                     ) -> tuple[TouchReport, ...]:
    """Classify every adjacent-branch feature of a diagonal dispersion surface.

    Needs at least ``MIN_CLASSIFY_SAMPLES`` samples; each grid-level local
    minimum of each separation profile on the half slice is refined by
    bounded minimization before classification, so a feature off theta1 in
    {0, pi} gets one record, at theta1 > 0 (``mirror_images`` gives the
    slice's other half).  One scan finds the grid minima of every non-flat
    profile (``_grid_minima``: one roll/compare pass over all pairs, then
    the prominence walks in ``BATCH_BYTES`` blocks), and the minima of all
    profiles are refined together (``refine.bounded_minima``), so the
    engine calls of a refinement follow its slowest minimum rather than the
    number of minima.

    A grid minimum at a symmetry point, theta1 = 0 (F = 3) or -pi (F = -1),
    is taken exactly: the profile is even about the point, so its slope
    there is 0, and the sign of its curvature decides.  At theta1 = 0 that
    is the centre sample for odd n, and either sample next to 0 (-h/2 or
    h/2) for even n.  One batched probe evaluates every such point and the
    point _CURV_STEP past it (at most h/2).  Where the profile does not
    fall, the record is the point itself, theta1 = 0.0 or -pi, with the
    separation evaluated there; where it falls, two symmetric minima lie
    near the point, and the one within the mirror of the grid bracket is
    refined: on (0, h] or [-pi, -pi + h], and on (0, 3h/2] for even n.
    Refined on the grid bracket instead, a minimum at 0 golden-steps
    through a profile flat to rounding, because the bounded method's
    tolerance sqrt(eps) |x| + xatol / 3 shrinks with |x|.
    """
    if surface.n_samples < MIN_CLASSIFY_SAMPLES:
        raise ResolutionError(
            f"classification needs >= {MIN_CLASSIFY_SAMPLES} diagonal samples "
            f"(got {surface.n_samples})"
        )
    theta = surface.theta
    h = theta[1] - theta[0]
    # the half slice: the grid minima from index half on (theta1 = 0 for
    # odd n, -h/2 for even n, where the scan's strict-left rule puts an even
    # profile's minimum at 0) and the one at index 0 (-pi, which is pi)
    half = (surface.n_samples - 1) // 2
    seps = surface.separations()
    flat, pairs, index = _grid_minima(seps, half, PROMINENCE_TOL)
    mid = surface.n_samples // 2
    records = []
    for pair in np.flatnonzero(flat).tolist():
        width = float(seps[:, pair].mean())
        value = 0.5 * float(surface.values[mid, pair] + surface.values[mid, pair + 1])
        records.append(TouchReport(
            kind="gap", band_pair=(pair, pair + 1), theta1=None, theta2=None,
            f_value=None, value=value, separation=width, gap_width=width,
            gamma=None, curvature=None, flat=True))
    if not len(index):
        return tuple(records)
    lo, hi = theta[index] - h, theta[index] + h
    t_min, s_min = np.empty(len(index)), np.empty(len(index))
    refine = np.ones(len(index), dtype=bool)
    # the minima at the symmetry points: index 0 (-pi) and the centre, index
    # half = mid (theta1 = 0) for odd n, half or mid (-h/2 or h/2) for even
    # n; each is the point itself unless the profile falls past it, and then
    # the minimum past it is refined within the mirror of its grid bracket
    ends = np.flatnonzero((index == 0) | (index == half) | (index == mid))
    if len(ends):
        at = np.where(index[ends] == 0, -np.pi, 0.0)
        x = np.concatenate([at, at + min(_CURV_STEP, h / 2.0)])
        s_at, s_off = np.split(pair_separations(surface.roots_at, x, -x,
                                                np.tile(pairs[ends], 2)), 2)
        exact = s_off >= s_at
        t_min[ends[exact]], s_min[ends[exact]] = at[exact], s_at[exact]
        refine[ends[exact]] = False
        reach = np.where((at == 0.0) & (half != mid), 1.5 * h, h)
        lo[ends[~exact]], hi[ends[~exact]] = at[~exact], (at + reach)[~exact]
    refined = pairs[refine]
    t_min[refine], s_min[refine] = bounded_minima(
        lambda x, lanes: pair_separations(surface.roots_at, x, -x, refined[lanes]),
        lo[refine], hi[refine], _REFINE_XATOL)
    t_found = [wrap_theta(t) for t in t_min.tolist()]
    # 0.0 - t: theta2 = 0.0, not -0.0, at the Gamma point
    minima = [(pair, t, 0.0 - t, s) for pair, t, s in zip(
        pairs.tolist(), t_found, s_min.tolist())]
    f_values = structure_function(t_found, [-t for t in t_found]).real.tolist()
    reports = classify_minima(surface.roots_at, minima, _DIAGONAL_DIR, tol_touch,
                              tol_slope, f_values, crossings=surface.route == "closed")
    # a pair has a flat record or refined minima, never both
    return tuple(heapq.merge(records, reports, key=lambda r: r.band_pair))


def mirror_images(surface: DispersionSurface, reports) -> list[TouchReport]:
    """The located records of ``reports`` (from ``classify_touches``), each
    at theta1 and again at -theta1 when h/2 < theta1 < pi - h/2 (h the
    surface's step), sorted by band pair and theta1: the features of the
    whole slice, for drawing it."""
    h = float(surface.theta[1] - surface.theta[0])
    located = [r for r in reports if r.theta1 is not None]
    images = located + [replace(r, theta1=-r.theta1, theta2=r.theta1) for r in located
                        if h / 2.0 < r.theta1 < np.pi - h / 2.0]
    images.sort(key=lambda r: (r.band_pair, r.theta1))
    return images


# ============================================================
#  Closed-form gap widths
# ============================================================

def gap_width_closed_form(config: StackConfig) -> float:
    """Analytic gap width at the Dirac point F = 0, for the variants that
    have one.

    * monolayer: |alpha_a - alpha_b| / 3 (between its two branches), which
      is also the pair's minimal gap;
    * hetero bilayer with alpha_b = -alpha_a, alpha_c = 0 (a = |alpha_a|):
      sqrt(2) sqrt(2 t0^4 + a^2 - sqrt(4 a^2 t0^4 + a^4)) / (3 + t0^2),
      the gap of the inner pair 1-2 at F = 0.  It is that pair's minimal
      gap only for a >~ 1.572 t0^2; below that the minimum leaves F = 0
      (at t0 = 0.3 and a = 0.01 it is 0.003231 at F = -0.09, against
      0.05511 here).
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
