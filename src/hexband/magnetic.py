"""Magnetic-flux variants: discrete flux operator, Robin flux cells, spectra.

Rational flux 2*pi*p/q per hexagon enters through edge phases.  Two objects
live here:

* the zero-Robin discrete flux operator ``M_F = (1/3) [[0, B], [B*, 0]]``
  with ``B = I + e^{i theta1} J + e^{i theta2} K`` (J the flux-phase diagonal,
  K the cyclic shift), valid for any reduced p/q — its eigenvalues lie in
  [-1, 1] and are q-periodic in p;

* Robin flux cells for q = 1 (identical to the monolayer Floquet matrix) and
  q = 2 (a gauge-fixed 4 x 4 cell), exposed as ``FloquetMatrix`` values so the
  characteristic-polynomial and eigensolver routes apply unchanged.

For q = 2 the determinant collapses to a quartic in eta whose coefficients
depend on quasimomentum only through

    G(theta) = 3 + cos(theta1) + cos(2 theta2) - cos(theta1 - 2 theta2).

The four roots come in radical form and the classifier scans the reduced
half-open zone [0, pi/q) x [-pi/q, pi/q), refining candidate minima by
bounded simplex descent; conical contact is tested along the locus
theta1 = -2 theta2 that carries the G maximum.  On the closure of the q = 2
zone G ranges over [3 - sqrt(2), 4.5] (maximum at (pi/3, -pi/6), boundary
minimum at (pi/2, 3 pi/8)); over the whole torus it ranges over [0, 4.5],
which is why refinement must stay inside the zone.
"""

from __future__ import annotations

import numpy as np

from .errors import EngineError, GridError, VariantError
from .floquet import (
    RESIDUAL_TOL,
    DispersionRoots,
    FloquetMatrix,
    _floquet_matrix,
    _make_roots,
    _theta_batch,
    _worst_residual,
    chunk_slices,
)
from .lattice import FluxSpec, StackConfig, StackVariant, structure_function
from .refine import nelder_mead_minima
from .bands import (
    DEFAULT_TOL_SLOPE,
    DEFAULT_TOL_TOUCH,
    TouchReport,
    _SLOPE_STEP,
    _CURV_STEP,
)

G_MAX = 4.5                          # at (pi/3, -pi/6) and its symmetry images
G_MIN = 3.0 - np.sqrt(2.0)           # at the zone-closure point (pi/2, 3 pi/8)
_LOCUS_DIR = np.array([-2.0, 1.0]) / np.sqrt(5.0)   # unit vector along theta1 = -2 theta2
_NM_XATOL = 1e-10


# ============================================================
#  Discrete flux operator (zero Robin, any p/q)
# ============================================================

def flux_shift_matrices(flux: FluxSpec) -> tuple[np.ndarray, np.ndarray]:
    """The flux-phase diagonal J and the cyclic shift K for denominator q."""
    q = flux.q
    j = np.diag(np.exp(1j * flux.phase * np.arange(q)))
    k = np.zeros((q, q), dtype=complex)
    for row in range(q):
        k[row, (row + 1) % q] = 1.0
    return j, k


def assemble_discrete(flux: FluxSpec, theta1: float, theta2: float) -> np.ndarray:
    """The 2q x 2q discrete flux operator (1/3) [[0, B], [B*, 0]]."""
    q = flux.q
    j, k = flux_shift_matrices(flux)
    b = np.eye(q, dtype=complex) + np.exp(1j * theta1) * j + np.exp(1j * theta2) * k
    m = np.zeros((2 * q, 2 * q), dtype=complex)
    m[:q, q:] = b
    m[q:, :q] = b.conj().T
    return m / 3.0


def discrete_eta_values(flux: FluxSpec, theta1: float, theta2: float) -> np.ndarray:
    """Sorted eigenvalues of the discrete flux operator (all within [-1, 1])."""
    return np.linalg.eigvalsh(assemble_discrete(flux, theta1, theta2))


# ============================================================
#  Robin flux cells, q = 1 and q = 2
# ============================================================

def _require_magnetic(config: StackConfig) -> FluxSpec:
    if config.variant is not StackVariant.MAGNETIC_MONOLAYER or config.flux is None:
        raise VariantError(
            "Robin flux cells require the magnetic monolayer variant with a flux"
        )
    return config.flux


def assemble_robin(config: StackConfig, theta1, theta2) -> FloquetMatrix:
    """Robin flux cell as a FloquetMatrix (q = 1: monolayer; q = 2: 4 x 4),
    at a scalar theta or a batch (see ``hexband.floquet``)."""
    flux = _require_magnetic(config)
    an = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    t1, t2, scalar = _theta_batch(theta1, theta2)
    if flux.q == 1:
        f = structure_function(t1, t2)
        rows = [[-an, np.conj(f)], [f, -ab]]
        scale = np.array([3.0, 3.0])
    else:
        e1 = np.exp(1j * t1)
        e2 = np.exp(1j * t2)
        rows = [
            [-an, 1.0 + e2.conjugate(), 0.0, e1.conjugate()],
            [1.0 + e2, -ab, 1.0, 0.0],
            [0.0, 1.0, -an, 1.0 - e2.conjugate()],
            [e1, 0.0, 1.0 - e2, -ab],
        ]
        scale = np.full(4, 3.0)
    return _floquet_matrix(config, rows, scale, t1, t2, scalar)


def g_function(theta1, theta2):
    """G(theta) = 3 + cos(theta1) + cos(2 theta2) - cos(theta1 - 2 theta2)."""
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    out = 3.0 + np.cos(t1) + np.cos(2.0 * t2) - np.cos(t1 - 2.0 * t2)
    return float(out) if out.ndim == 0 else out


def q2_quartic_coeffs(config: StackConfig, theta1, theta2) -> np.ndarray:
    """Ascending coefficients of the q = 2 determinant quartic in eta.

    The expansion of ([(6 eta + A)^2 - B - 12]^2 - 32 G)/16 with
    A = alpha_N + alpha_B, B = (alpha_N - alpha_B)^2: the quasimomentum enters
    only through G(theta).  Shape (5,) at one quasimomentum, (N, 5) for
    theta arrays of length N.
    """
    flux = _require_magnetic(config)
    if flux.q != 2:
        raise VariantError(f"the quartic form needs q = 2 (got q = {flux.q})")
    return _q2_coeffs(config, g_function(theta1, theta2))


def _q2_coeffs(config: StackConfig, g) -> np.ndarray:
    an = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    a = an + ab
    prod = an * ab
    coeffs = np.empty(np.shape(g) + (5,))
    coeffs[..., 0] = (prod - 3.0) ** 2 - 2.0 * g
    coeffs[..., 1] = -6.0 * a * (3.0 - prod)
    coeffs[..., 2] = 9.0 * (an * an + ab * ab + 4.0 * prod - 6.0)
    coeffs[..., 3] = 54.0 * a
    coeffs[..., 4] = 81.0
    return coeffs


def closed_form_roots_q2(config: StackConfig, theta1, theta2) -> DispersionRoots:
    """Radical roots of the q = 2 quartic, residual-checked, labeled in/out,
    at a scalar theta or a batch (see ``hexband.floquet``).

    eta = [-A +- sqrt(B + 12 +- 4 sqrt(2) sqrt(G))]/6; the smaller inner
    radicand carries the "in" pair.
    """
    flux = _require_magnetic(config)
    if flux.q != 2:
        raise VariantError(f"closed q = 2 roots need q = 2 (got q = {flux.q})")
    an = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    a = an + ab
    b = (an - ab) ** 2
    t1, t2, scalar = _theta_batch(theta1, theta2)
    g = g_function(t1, t2)
    shift = 4.0 * np.sqrt(2.0) * np.sqrt(g)
    values, labels = [], []
    for tag, radicand in (("in", b + 12.0 - shift), ("out", b + 12.0 + shift)):
        # max(radicand, 0.0), keeping -0.0 and NaN as they are
        root = np.sqrt(np.where(radicand < 0.0, 0.0, radicand))
        values.extend([(-a - root) / 6.0, (-a + root) / 6.0])
        labels.extend([f"{tag}-", f"{tag}+"])
    values = np.stack(values, axis=-1)
    roots = _make_roots(values[0] if scalar else values, labels)
    worst = _worst_residual(_q2_coeffs(config, g), roots.values)
    if not worst < RESIDUAL_TOL:
        raise EngineError(
            f"q = 2 radical roots fail the residual gate: {worst:g}"
        )
    return roots


# ============================================================
#  Reduced zone and classification
# ============================================================

def reduced_zone_grid(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open reduced-zone axes [0, pi/q) x [-pi/q, pi/q), n points each."""
    if not isinstance(q, int) or q < 1:
        raise GridError(f"flux denominator must be a positive integer, got {q!r}")
    if not isinstance(n, int) or n < 2:
        raise GridError(f"grid size must be an integer >= 2, got {n!r}")
    t1 = np.linspace(0.0, np.pi / q, n, endpoint=False)
    t2 = np.linspace(-np.pi / q, np.pi / q, n, endpoint=False)
    return t1, t2


def _roots_fn(config: StackConfig):
    if config.flux.q == 2:
        return lambda t1, t2: closed_form_roots_q2(config, t1, t2).values
    return lambda t1, t2: np.linalg.eigvalsh(
        assemble_robin(config, t1, t2).affine) / 3.0


def _grid_local_minima(sep: np.ndarray) -> list[tuple[int, int]]:
    """2D local minima (4-neighborhood, boundary-aware, strict), row-major.

    Strictness matters: along the theta1 = 0 edge the q = 2 separations are
    constant (G is identically 4 there), and a non-strict rule would flag the
    whole plateau.
    """
    # points outside the zone are no neighbors: pad with +inf
    padded = np.pad(sep, 1, constant_values=np.inf)
    core = padded[1:-1, 1:-1]
    minimum = ((core < padded[:-2, 1:-1]) & (core < padded[2:, 1:-1])
               & (core < padded[1:-1, :-2]) & (core < padded[1:-1, 2:]))
    return [(int(i), int(j)) for i, j in np.argwhere(minimum)]


def magnetic_classify(config: StackConfig, n: int = 101,
                      tol_touch: float = DEFAULT_TOL_TOUCH,
                      tol_slope: float = DEFAULT_TOL_SLOPE
                      ) -> tuple[TouchReport, ...]:
    """Classify adjacent-pair features of a Robin flux cell over the reduced zone.

    Grid-level local minima of each separation are refined by Nelder-Mead
    simplex descent bounded to the zone closure (outside it G leaves the
    zone's value range and the surfaces no longer describe the model);
    touches are probed along the theta1 = -2 theta2 locus direction (which
    carries the G maximum transversally enough to expose conical contact).
    No branch-crossing detection is attempted here.
    """
    flux = _require_magnetic(config)
    roots_fn = _roots_fn(config)
    t1_ax, t2_ax = reduced_zone_grid(flux.q, n)
    bounds = ((0.0, np.pi / flux.q), (-np.pi / flux.q, np.pi / flux.q))
    dim = config.dim
    grid1 = np.repeat(t1_ax, n)
    grid2 = np.tile(t2_ax, n)
    profiles = [np.empty(n * n) for _ in range(dim - 1)]
    for part in chunk_slices(n * n, dim):
        values = roots_fn(grid1[part], grid2[part])
        for pair, sep in enumerate(profiles):
            sep[part] = values[:, pair + 1] - values[:, pair]
    lanes: list[tuple[int, int, int]] = []     # (pair, i, j)
    for pair, sep in enumerate(profiles):
        lanes += [(pair, i, j) for i, j in _grid_local_minima(sep.reshape(n, n))]
    if not lanes:
        return ()
    pairs = np.array([pair for pair, _, _ in lanes])

    def separations(theta: np.ndarray, which: np.ndarray) -> np.ndarray:
        v = roots_fn(theta[:, 0], theta[:, 1])
        rows = np.arange(len(theta))
        return v[rows, pairs[which] + 1] - v[rows, pairs[which]]

    x0 = np.array([[t1_ax[i], t2_ax[j]] for _, i, j in lanes])
    lower, upper = np.array(bounds).T
    # restarting with a fresh simplex guards against premature collapse on
    # conical (non-smooth) minima
    for _ in range(2):
        x0, s_min = nelder_mead_minima(separations, x0, lower, upper,
                                       xatol=_NM_XATOL, fatol=1e-14, maxiter=2000)
    found: list[tuple[int, float, float, float]] = []
    for pair, (t1s, t2s), s_star in zip(pairs.tolist(), x0.tolist(),
                                        s_min.tolist()):
        if any(p == pair and abs(t1s - a) < 1e-6 and abs(t2s - b) < 1e-6
               for p, a, b, _ in found):
            continue
        found.append((pair, t1s, t2s, s_star))
    reports = _classify_2d_minima(config, found, tol_touch, tol_slope)
    reports.sort(key=lambda r: (r.band_pair, r.theta1))
    return tuple(reports)


def _classify_2d_minima(config: StackConfig,
                        minima: list[tuple[int, float, float, float]],
                        tol_touch: float, tol_slope: float) -> list[TouchReport]:
    """Classify refined minima (pair, theta1, theta2, sep_star); each probe
    stage is one batch over the minima that reach it."""
    roots_fn = _roots_fn(config)
    pairs = np.array([m[0] for m in minima])
    theta = np.array([[m[1], m[2]] for m in minima])

    def separations(points: np.ndarray, which: list[int]) -> np.ndarray:
        """Separations of minima ``which`` at ``points`` (offsets, minima, 2),
        one row per offset."""
        v = roots_fn(points[..., 0].ravel(), points[..., 1].ravel())
        rows = np.arange(len(v))
        p = np.tile(pairs[which], len(points))
        return (v[rows, p + 1] - v[rows, p]).reshape(len(points), -1)

    center = roots_fn(theta[:, 0], theta[:, 1])
    touch = [i for i, m in enumerate(minima) if not m[3] > tol_touch]
    h, hc = _SLOPE_STEP, _CURV_STEP
    slopes, curved = {}, {}
    if touch:
        at = theta[touch]
        probe = separations(np.stack([at - 2.0 * h * _LOCUS_DIR, at - h * _LOCUS_DIR,
                                      at + 2.0 * h * _LOCUS_DIR, at + h * _LOCUS_DIR]),
                            touch)
        for k, i in enumerate(touch):
            slopes[i] = ((float(probe[0, k]) - float(probe[1, k])) / h,
                         (float(probe[2, k]) - float(probe[3, k])) / h)
    flat = [i for i in touch if not max(abs(v) for v in slopes[i]) > tol_slope]
    if flat:
        at = theta[flat]
        probe = separations(np.stack([at + hc * _LOCUS_DIR, at - hc * _LOCUS_DIR]),
                            flat)
        for k, i in enumerate(flat):
            curved[i] = (float(probe[0, k]) - 2.0 * minima[i][3]
                         + float(probe[1, k])) / hc ** 2

    reports = []
    for i, (pair, t1s, t2s, sep_star) in enumerate(minima):
        value = 0.5 * float(center[i, pair] + center[i, pair + 1])
        base = dict(band_pair=(pair, pair + 1), theta1=t1s, theta2=t2s,
                    f_value=None, value=value, separation=sep_star)
        if i not in slopes:
            reports.append(TouchReport(kind="gap", gap_width=sep_star, gamma=None,
                                       curvature=None, **base))
        elif i not in curved:
            slope_left, slope_right = slopes[i]
            gamma = (abs(slope_left) + abs(slope_right)) / 4.0
            reports.append(TouchReport(kind="cone", gap_width=None, gamma=gamma,
                                       curvature=None, **base))
        else:
            reports.append(TouchReport(kind="parabolic", gap_width=None,
                                       gamma=None, curvature=0.5 * curved[i],
                                       **base))
    return reports
