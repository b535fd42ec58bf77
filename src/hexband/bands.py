"""Dispersion sampling and band-touch classification along the diagonal slice.

All touch analysis happens on the anti-diagonal slice theta2 = -theta1 of the
Brillouin zone, where the structure function F = 1 + 2 cos(theta1) is real and
sweeps [-1, 3].  For each pair of adjacent (sorted) dispersion branches the
classifier locates every local minimum of the separation, refines it, and
issues one report per minimum:

* ``cone``       — separation reaches zero with nonzero one-sided slopes and
                   no branch relabeling across the touch;
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

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NoClosedFormError, ResolutionError
from .floquet import (
    DispersionRoots,
    assemble,
    chunk_slices,
    closed_form_roots,
    numeric_roots,
)
from .lattice import StackConfig, StackVariant, diagonal_slice, structure_function
from .refine import bounded_minima

MIN_CLASSIFY_SAMPLES = 201     # coarser diagonal scans miss narrow features
DEFAULT_TOL_TOUCH = 1e-6       # refined separation below this counts as a touch
DEFAULT_TOL_SLOPE = 1e-4       # one-sided slope below this counts as flat
FLAT_SEP_TOL = 1e-12           # constant-separation profiles get one record
_SLOPE_STEP = 1e-6             # one-sided finite-difference step for slopes
                               # (small enough that quadratic contacts stay
                               # below DEFAULT_TOL_SLOPE)
_CURV_STEP = 1e-3              # central second-difference step for curvature
_REFINE_XATOL = 1e-12          # bounded-minimization tolerance in theta
_DEDUP_THETA = 1e-7            # refined minima closer than this coincide
PROMINENCE_TOL = 1e-10         # minima must rise this far above the floor;
                               # filters machine-level wobble on piecewise-
                               # constant separation plateaus


# ============================================================
#  Point evaluation and sampled surfaces
# ============================================================

def roots_at(config: StackConfig, theta1, theta2=None,
             route: str = "auto") -> DispersionRoots:
    """Sorted dispersion roots at one quasimomentum or a batch of them
    (theta as scalars or 1-D arrays; theta2 defaults to -theta1).

    ``route``: "closed" forces the analytic branch formulas, "numeric" the
    eigensolver, "auto" prefers closed forms and falls back when the
    variant/parameters have none at some point of the batch.
    """
    if theta2 is None:
        theta2 = -theta1
    if route == "numeric":
        return numeric_roots(assemble(config, theta1, theta2))
    if route == "closed":
        return closed_form_roots(config, theta1, theta2)
    if route != "auto":
        raise InputError(f"unknown evaluation route {route!r}")
    try:
        return closed_form_roots(config, theta1, theta2)
    except NoClosedFormError:
        return numeric_roots(assemble(config, theta1, theta2))


@dataclass(frozen=True)
class DispersionSurface:
    """Dispersion branches sampled along the diagonal slice theta2 = -theta1."""

    config: StackConfig
    theta: np.ndarray          # (n,) theta1 samples on [-pi, pi]
    values: np.ndarray         # (n, dim) eta roots, ascending along each row
    labels: np.ndarray | None  # (n, dim) branch labels per sorted column
    route: str                 # "closed" or "numeric"

    @property
    def n_samples(self) -> int:
        return len(self.theta)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def separations(self) -> np.ndarray:
        """Adjacent-branch separations, shape (n, dim - 1)."""
        return np.diff(self.values, axis=1)

    def roots_at(self, theta1: float) -> DispersionRoots:
        return roots_at(self.config, theta1, -theta1, route=self.route)


def sample_diagonal(config: StackConfig, n: int = 501,
                    route: str = "auto") -> DispersionSurface:
    """Sample all dispersion branches on the diagonal slice (n points).

    The slice is evaluated in batches; with route "auto" the first batch
    settles the route for the rest (on the slice the closed forms exist at
    every point or at none).
    """
    theta = diagonal_slice(n)
    values, labels = [], []
    for part in chunk_slices(n, config.dim):
        roots = roots_at(config, theta[part], -theta[part], route=route)
        route = "closed" if len(roots.branch_labels) else "numeric"
        values.append(roots.values)
        labels.append(roots.branch_labels)
    return DispersionSurface(
        config=config, theta=theta, values=np.concatenate(values),
        labels=np.concatenate(labels) if route == "closed" else None,
        route=route)


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

@dataclass(frozen=True)
class TouchReport:
    """One classified feature of an adjacent-branch separation profile."""

    kind: str                    # "cone" | "parabolic" | "crossing" | "gap"
    band_pair: tuple[int, int]   # adjacent sorted-branch indices (0-based)
    theta1: float | None         # location on the slice (None: flat profile)
    theta2: float | None
    f_value: float | None        # F at the location (real on the slice)
    value: float                 # eta at the touch / mid-gap level
    separation: float            # refined minimal separation
    gap_width: float | None      # = separation for gap records, else None
    gamma: float | None          # cone slope per branch (d eta / d theta1)
    curvature: float | None      # per-branch quadratic coefficient
    flat: bool = False           # True when the profile is constant in theta


def _local_min_indices(y: np.ndarray) -> np.ndarray:
    """Indices of periodic local minima (strict on the left to split plateaus)."""
    prev = np.roll(y, 1)
    nxt = np.roll(y, -1)
    return np.nonzero((y < prev) & (y <= nxt))[0]


def _is_prominent(y: np.ndarray, i: int, eps: float) -> bool:
    """True when the periodic profile rises by more than eps on both sides of
    index i before dropping below y[i] - eps.

    Rejects rounding-level wobble minima on flat plateau stretches while
    keeping every minimum with real structure around it (a deeper neighboring
    minimum is always separated by an intervening local maximum, so the rise
    is seen first)."""
    m = len(y)
    for direction in (-1, 1):
        j = i
        for _ in range(m):
            j = (j + direction) % m
            if y[j] > y[i] + eps:
                break
            if y[j] < y[i] - eps:
                return False
        else:
            return False
    return True


def _wrap_theta(t: float) -> float:
    t = (t + np.pi) % (2.0 * np.pi) - np.pi
    return float(t)


def _pair_separations(surface: DispersionSurface, theta: np.ndarray,
                      pairs: np.ndarray) -> np.ndarray:
    """Separation of sorted branches pairs[k], pairs[k] + 1 at theta[k]."""
    values = surface.roots_at(theta).values
    rows = np.arange(len(theta))
    return values[rows, pairs + 1] - values[rows, pairs]


def _classify_minima(surface: DispersionSurface,
                     minima: list[tuple[int, float, float]], tol_touch: float,
                     tol_slope: float) -> list[TouchReport]:
    """Classify refined minima (pair, theta_star, sep_star).

    Each stage of the probes (roots at the minimum, the crossing test,
    one-sided slopes, curvature) is one batch over all minima that reach it.
    """
    pairs = np.array([m[0] for m in minima])
    t = np.array([m[1] for m in minima])
    k = len(minima)
    center = surface.roots_at(t).values
    touch = [not m[2] > tol_touch for m in minima]

    # crossing: the labeled branches forming the sorted pair trade order
    # across the touch (needs labeled, closed-form branches)
    crossing = [False] * k
    if surface.labels is not None and any(touch):
        at = [i for i in range(k) if touch[i]]
        sides = surface.roots_at(np.concatenate([t[at] - _SLOPE_STEP,
                                                 t[at] + _SLOPE_STEP]))
        for j, i in enumerate(at):
            left = sides.branch_labels[j]
            la, lb = left[pairs[i]], left[pairs[i] + 1]
            pos = {lab: c for c, lab in enumerate(sides.branch_labels[len(at) + j])}
            right = sides.values[len(at) + j]
            # on the left, label la sits strictly below lb by construction
            crossing[i] = bool(right[pos[la]] - right[pos[lb]] > 0.0)

    # secant slopes taken strictly on each side of the contact point, so a
    # refinement offset of a few 1e-9 in theta_star cannot bias them
    slopes = {}
    sloped = [i for i in range(k) if touch[i] and not crossing[i]]
    if sloped:
        offsets = (-2.0 * _SLOPE_STEP, -_SLOPE_STEP, 2.0 * _SLOPE_STEP, _SLOPE_STEP)
        seps = _pair_separations(
            surface, np.concatenate([t[sloped] + d for d in offsets]),
            np.tile(pairs[sloped], len(offsets))).reshape(len(offsets), -1)
        for j, i in enumerate(sloped):
            slopes[i] = ((float(seps[0, j]) - float(seps[1, j])) / _SLOPE_STEP,
                         (float(seps[2, j]) - float(seps[3, j])) / _SLOPE_STEP)
    curved = {}
    flat = [i for i in sloped if not max(slopes[i]) > tol_slope]
    if flat:
        seps = _pair_separations(
            surface, np.concatenate([t[flat] + _CURV_STEP, t[flat] - _CURV_STEP]),
            np.tile(pairs[flat], 2)).reshape(2, -1)
        for j, i in enumerate(flat):
            curved[i] = (float(seps[0, j]) - 2.0 * minima[i][2]
                         + float(seps[1, j])) / _CURV_STEP ** 2

    reports = []
    for i, (pair, theta_star, sep_star) in enumerate(minima):
        value = 0.5 * float(center[i, pair] + center[i, pair + 1])
        f_val = float(structure_function(theta_star, -theta_star).real)
        base = dict(band_pair=(pair, pair + 1), theta1=theta_star,
                    theta2=-theta_star, f_value=f_val, value=value,
                    separation=sep_star)
        if not touch[i]:
            reports.append(TouchReport(kind="gap", gap_width=sep_star, gamma=None,
                                       curvature=None, **base))
        elif crossing[i]:
            reports.append(TouchReport(kind="crossing", gap_width=None, gamma=None,
                                       curvature=None, **base))
        elif i not in curved:
            # linear contact: each branch moves at half the separation slope
            slope_left, slope_right = slopes[i]
            gamma = (abs(slope_left) + abs(slope_right)) / 4.0
            reports.append(TouchReport(kind="cone", gap_width=None, gamma=gamma,
                                       curvature=None, **base))
        else:
            reports.append(TouchReport(kind="parabolic", gap_width=None,
                                       gamma=None, curvature=0.5 * curved[i],
                                       **base))
    return reports


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
    reports: list[TouchReport] = []
    brackets: list[tuple[int, int]] = []     # (pair, grid index)
    for pair in range(surface.dim - 1):
        profile = seps[:, pair]
        if float(profile.max() - profile.min()) < FLAT_SEP_TOL:
            width = float(profile.mean())
            mid = surface.n_samples // 2
            value = 0.5 * float(surface.values[mid, pair]
                                + surface.values[mid, pair + 1])
            reports.append(TouchReport(
                kind="gap", band_pair=(pair, pair + 1), theta1=None,
                theta2=None, f_value=None, value=value, separation=width,
                gap_width=width, gamma=None, curvature=None, flat=True))
            continue
        # drop the duplicated endpoint (theta = -pi and pi are the same point)
        periodic = profile[:-1]
        brackets += [(pair, int(i)) for i in _local_min_indices(periodic)
                     if _is_prominent(periodic, i, PROMINENCE_TOL)]
    if brackets:
        pairs = np.array([pair for pair, _ in brackets])
        centers = theta[[i for _, i in brackets]]
        t_refined, s_refined = bounded_minima(
            lambda x, lanes: _pair_separations(surface, x, pairs[lanes]),
            centers - h, centers + h, _REFINE_XATOL)
        minima: list[tuple[int, float, float]] = []
        for (pair, _), t_star, s_star in zip(brackets, t_refined.tolist(),
                                             s_refined.tolist()):
            t_star = _wrap_theta(t_star)
            if any(p == pair and abs(_wrap_theta(t_star - t0)) < _DEDUP_THETA
                   for p, t0, _ in minima):
                continue
            minima.append((pair, t_star, s_star))
        reports += _classify_minima(surface, minima, tol_touch, tol_slope)
    reports.sort(key=lambda r: (r.band_pair, np.inf if r.theta1 is None
                                else r.theta1))
    return tuple(reports)


# ============================================================
#  Closed-form gap widths and admissibility
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
        if abs(aa + ab) > 1e-12 or abs(config.vertex.alpha_c) > 1e-12:
            raise NoClosedFormError(
                "hetero-bilayer gap formula needs alpha_b = -alpha_a and "
                "alpha_c = 0"
            )
        t0 = config.coupling.t0
        asq = aa * aa
        inner = asq + 2.0 * t0 ** 4 - np.sqrt(4.0 * asq * t0 ** 4 + asq * asq)
        return float(np.sqrt(2.0) * np.sqrt(max(inner, 0.0)) / (3.0 + t0 ** 2))
    raise NoClosedFormError(f"no closed-form gap width for variant {v.value}")


def monolayer_branch_admissible(alpha_a: float, alpha_b: float,
                                branch: str) -> bool:
    """Sufficient closed-form test that a monolayer root branch stays in
    [-1, 1] along the whole diagonal slice.

    branch "+": true when alpha_b > -3 and -3 alpha_b/(3 + alpha_b) <=
    alpha_a <= 3 (or the same with the roles swapped — the roots are
    symmetric in the two vertex strengths).
    branch "-": mirrored condition, alpha_b < 3 and
    -3 <= alpha_a <= -3 alpha_b/(3 - alpha_b) (or swapped).
    A False verdict means "not guaranteed by the inequality", not a proof of
    inadmissibility.
    """
    def plus_cond(x: float, y: float) -> bool:
        if y <= -3.0:
            return False
        return -3.0 * y / (3.0 + y) <= x <= 3.0

    def minus_cond(x: float, y: float) -> bool:
        if y >= 3.0:
            return False
        return -3.0 <= x <= -3.0 * y / (3.0 - y)

    if branch == "+":
        return plus_cond(alpha_a, alpha_b) or plus_cond(alpha_b, alpha_a)
    if branch == "-":
        return minus_cond(alpha_a, alpha_b) or minus_cond(alpha_b, alpha_a)
    raise InputError(f"branch must be '+' or '-', got {branch!r}")


def admissible_fraction(surface: DispersionSurface) -> np.ndarray:
    """Per-branch fraction of diagonal samples with |eta| <= 1 (+tolerance)."""
    mask = np.abs(surface.values) <= 1.0 + 1e-12
    return mask.mean(axis=0)
