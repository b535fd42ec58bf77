"""Magnetic-flux variants: Robin flux cells and their reduced-zone classifier.

Rational flux 2*pi*p/q per hexagon enters through edge phases.  The Robin
flux cells for q = 1 and q = 2 are ``FloquetMatrix`` values, so the
characteristic-polynomial and eigensolver routes apply unchanged.  The q = 1
cell is the monolayer layout: ``floquet.assemble`` builds it and
``floquet.closed_form_roots`` gives its roots, both at F(theta).  The q = 2
cell is a gauge-fixed 4 x 4 cell whose rows and radical roots live here.

For q = 2 the determinant collapses to a quartic in eta whose coefficients
depend on quasimomentum only through

    G(theta) = 3 + cos(theta1) + cos(2 theta2) - cos(theta1 - 2 theta2).

The four roots come in radical form and the classifier scans the reduced
half-open zone [0, pi/q) x [-pi/q, pi/q), refining candidate minima by
bounded simplex descent; the diagonal slice's probe-and-label stage
(``refine.classify_minima``) then tests conical contact along the locus
theta1 = -2 theta2 that carries the G maximum.  On the closure of the q = 2
zone G ranges over [3 - sqrt(2), 4.5] (maximum at (pi/3, -pi/6), boundary
minimum at (pi/2, 3 pi/8)); over the whole torus it ranges over [0, 4.5],
which is why refinement must stay inside the zone.
"""

from __future__ import annotations

import math

import numpy as np

# a module import: bands imports magnetic back, for the Robin cells
from . import bands
from .errors import EngineError, GridError, VariantError
from .floquet import (
    DispersionRoots,
    FloquetMatrix,
    _floquet_matrix,
    _make_roots,
    _residual_gate,
    assemble,
)
from .lattice import (
    FluxSpec,
    StackConfig,
    _require_array_size,
    _theta_batch,
    structure_function,
)
from .refine import (
    DEFAULT_TOL_SLOPE,
    DEFAULT_TOL_TOUCH,
    TouchReport,
    classify_minima,
    nelder_mead_minima,
    pair_separations,
)

G_MAX = 4.5                          # at (pi/3, -pi/6) and its symmetry images
G_MIN = 3.0 - np.sqrt(2.0)           # at the zone-closure point (pi/2, 3 pi/8)
_LOCUS_DIR = np.array([-2.0, 1.0]) / np.sqrt(5.0)   # unit vector along theta1 = -2 theta2
_NM_XATOL = 1e-10
_Q2_NAMES = ("in-", "in+", "out-", "out+")   # the inner radicand's pair first


# ============================================================
#  Robin flux cells, q = 1 and q = 2
# ============================================================

def _require_magnetic(config: StackConfig, q: int | None = None) -> FluxSpec:
    """The flux of a magnetic stack, whose denominator must be ``q`` if given."""
    if config.flux is None:
        raise VariantError(
            "Robin flux cells require the magnetic monolayer variant with a flux"
        )
    if q is not None and config.flux.q != q:
        raise VariantError(f"the q = {q} quartic needs q = {q} (got q = {config.flux.q})")
    return config.flux


def assemble_robin(config: StackConfig, theta1, theta2) -> FloquetMatrix:
    """Robin flux cell as a FloquetMatrix (q = 1: the monolayer layout, by
    ``floquet.assemble`` at F(theta); q = 2: the gauge-fixed 4 x 4 cell), at
    a scalar theta or a batch (see ``hexband.floquet``)."""
    if _require_magnetic(config).q == 1:
        return assemble(config, structure_function(theta1, theta2))
    an = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    t1, t2, scalar = _theta_batch(theta1, theta2)
    e1 = np.exp(1j * t1)
    e2 = np.exp(1j * t2)
    rows = [
        [-an, 1.0 + e2.conjugate(), 0.0, e1.conjugate()],
        [1.0 + e2, -ab, 1.0, 0.0],
        [0.0, 1.0, -an, 1.0 - e2.conjugate()],
        [e1, 0.0, 1.0 - e2, -ab],
    ]
    return _floquet_matrix(rows, np.full(4, 3.0), len(t1), scalar)


def g_function(theta1, theta2):
    """G(theta) = 3 + cos(theta1) + cos(2 theta2) - cos(theta1 - 2 theta2)."""
    t1 = np.asarray(theta1, dtype=float)
    twice_t2 = 2.0 * np.asarray(theta2, dtype=float)
    out = 3.0 + np.cos(t1) + np.cos(twice_t2) - np.cos(t1 - twice_t2)
    return float(out) if out.ndim == 0 else out


def q2_quartic_coeffs(config: StackConfig, theta1, theta2) -> np.ndarray:
    """Ascending coefficients of the q = 2 determinant quartic in eta.

    The expansion of ([(6 eta + A)^2 - B - 12]^2 - 32 G)/16 with
    A = alpha_N + alpha_B, B = (alpha_N - alpha_B)^2: the quasimomentum enters
    only through G(theta).  Shape (5,) at one quasimomentum, (N, 5) for
    theta arrays of length N.
    """
    _require_magnetic(config, q=2)
    return _q2_coeffs(config, g_function(theta1, theta2))


def _q2_coeffs(config: StackConfig, g) -> np.ndarray:
    an = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    a = an + ab
    prod = an * ab
    try:
        square = (prod - 3.0) ** 2
    except OverflowError:
        # a Python float power raises OverflowError naming nothing
        raise EngineError(
            f"q = 2 quartic coefficients overflow: (alpha_a alpha_b - 3)^2 "
            f"at alpha_a alpha_b = {prod:g}") from None
    coeffs = np.empty(np.shape(g) + (5,))
    coeffs[..., 0] = square - 2.0 * g
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
    _require_magnetic(config, q=2)
    an = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    a = an + ab
    b = (an - ab) ** 2
    t1, t2, scalar = _theta_batch(theta1, theta2)
    g = g_function(t1, t2)
    shift = 4.0 * math.sqrt(2.0) * np.sqrt(g)
    values = np.empty((len(g), 4))
    for k, radicand in enumerate((b + 12.0 - shift, b + 12.0 + shift)):
        # max(radicand, 0.0), keeping -0.0 and NaN as they are
        root = np.sqrt(np.where(radicand < 0.0, 0.0, radicand))
        values[:, 2 * k] = (-a - root) / 6.0
        values[:, 2 * k + 1] = (-a + root) / 6.0
    roots = _make_roots(values[0] if scalar else values, _Q2_NAMES)
    _residual_gate(_q2_coeffs(config, g), roots.values)
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
    # the zone's n x n samples
    _require_array_size(n * n, f"a reduced-zone grid of {n} x {n} points")
    t1 = np.linspace(0.0, np.pi / q, n, endpoint=False)
    t2 = np.linspace(-np.pi / q, np.pi / q, n, endpoint=False)
    return t1, t2


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
    ``refine.classify_minima`` probes touches along the theta1 = -2 theta2
    locus (which carries the G maximum transversally enough to expose
    conical contact), without the crossing test.
    """
    flux = _require_magnetic(config)

    def roots(theta1, theta2):
        return bands.roots_at(config, theta1, theta2)

    t1_ax, t2_ax = reduced_zone_grid(flux.q, n)
    values = roots(np.repeat(t1_ax, n), np.tile(t2_ax, n)).values
    seps = np.diff(values, axis=1)
    lanes: list[tuple[int, int, int]] = []     # (pair, i, j)
    for pair in range(config.dim - 1):
        lanes += [(pair, i, j)
                  for i, j in _grid_local_minima(seps[:, pair].reshape(n, n))]
    if not lanes:
        return ()
    pairs = np.array([pair for pair, _, _ in lanes])

    def separations(theta, which):
        return pair_separations(roots, theta[:, 0], theta[:, 1], pairs[which])

    x0 = np.array([[t1_ax[i], t2_ax[j]] for _, i, j in lanes])
    lower = np.array([0.0, -np.pi / flux.q])
    upper = np.array([np.pi / flux.q, np.pi / flux.q])
    # restarting with a fresh simplex guards against premature collapse on
    # conical (non-smooth) minima
    for _ in range(2):
        x0, s_min = nelder_mead_minima(separations, x0, lower, upper,
                                       xatol=_NM_XATOL, fatol=1e-14, maxiter=2000)
    minima = [(pair, t1, t2, s) for pair, (t1, t2), s in zip(
        pairs.tolist(), x0.tolist(), s_min.tolist())]
    return tuple(classify_minima(roots, minima, _LOCUS_DIR, tol_touch, tol_slope))
