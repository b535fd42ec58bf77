"""Floquet matrix assembly, characteristic polynomials, and dispersion roots.

For each quasimomentum theta the vertex conditions reduce to a finite linear
system M(eta, theta) u = 0 with

    M(eta, theta) = A(theta) - eta * diag(T_1, ..., T_n),

where A is Hermitian, T_i are the per-vertex diagonal scales (3 for a bare
degree-3 vertex, 3 + t0^2 with an inter-layer edge, 3 + 2 t0^2 with two), and
eta = d(lambda)/2 is the Hill-discriminant variable.  A value eta belongs to
the dispersion surface iff det M = 0; it maps back to physical spectrum only
when |eta| <= 1 (+ tolerance).

Two independent routes to the roots are provided and never mixed:

* ``char_poly`` expands det(A - eta D) in eta by Laplace expansion along rows
  over polynomial-valued entries, memoised over column subsets: every minor
  is formed once, 2^n of them at most instead of n! expansion paths (no
  eigensolver involved);
* ``numeric_roots`` diagonalizes D^{-1/2} A D^{-1/2} (no polynomial involved).

``closed_form_roots`` implements the per-variant analytic root families and
verifies every value against the characteristic polynomial at runtime; the
``DIAGONAL_ONLY`` variants have them on the diagonal slice only.  This
module provides the routes; ``bands.roots_at`` alone decides which one
serves a point, for the magnetic flux cells as well.

The engine is batch-first over quasimomenta.  ``assemble`` and
``closed_form_roots`` take theta1/theta2 as scalars or as 1-D arrays of equal
length N; a batch gives a ``FloquetMatrix`` with an (N, dim, dim) affine part
and ``DispersionRoots`` with (N, dim) values and labels, and ``char_poly`` and
``numeric_roots`` follow the matrix they are given.  Scalar arguments run as
a batch of one and come back without the batch axis, so a point gives the
same bits alone as inside a batch.  ``roots_at`` calls the engine on slices
(``chunk_slices``) whose matrices take at most ``BATCH_BYTES``, so that a
call works in about 100 KB whatever the dimension: larger batches leave
holes of several hundred KB in the C heap, and the speed of later array
work in the same process would then depend on which batches ran before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import EngineError, NoClosedFormError, VariantError
from .lattice import (
    ADMISSIBILITY_TOL,
    StackConfig,
    StackVariant,
    structure_function,
)

RESIDUAL_TOL = 1e-9      # |p(root)| / |leading coefficient| gate
_DIAGONAL_TOL = 1e-12    # |Im F| bound for diagonal-slice closed forms
_PAIR_TOL = 1e-12        # |alpha_a + alpha_b| bound for the constrained forms
BATCH_BYTES = 16 * 1024  # bytes of the (N, dim, dim) complex matrices of a batch


# ============================================================
#  Data records and batching
# ============================================================

@dataclass(frozen=True)
class FloquetMatrix:
    """Assembled vertex-condition systems at one quasimomentum or a batch."""

    dim: int
    diag_scale: np.ndarray        # (dim,) positive diagonal scales T_i
    affine: np.ndarray            # (dim, dim) Hermitian A(theta); (N, dim, dim) for a batch
    config: StackConfig
    theta: tuple                  # (theta1, theta2): floats, or (N,) arrays for a batch


@dataclass(frozen=True)
class DispersionRoots:
    """eta roots at one quasimomentum (or a batch), ascending, with branch bookkeeping.

    For a batch of N points ``values`` and ``admissible`` are (N, dim) and
    ``branch_labels`` is an (N, dim) object array; it is the empty tuple for
    numeric-only roots either way.  ``closed`` marks the points whose roots
    came from the closed forms: (N,) for a batch, a 0-d array for one point.
    """

    values: np.ndarray                       # sorted ascending along the last axis
    branch_labels: tuple[str, ...] = ()      # empty for numeric-only roots
    admissible: np.ndarray = field(default_factory=lambda: np.array([], bool))
    closed: np.ndarray = field(default_factory=lambda: np.array(False))


def chunk_slices(n: int, dim: int) -> list[slice]:
    """Slices that cover n grid points in batches whose (N, dim, dim) complex
    matrices take at most ``BATCH_BYTES``."""
    size = max(1, BATCH_BYTES // (16 * dim * dim))
    return [slice(start, start + size) for start in range(0, n, size)]


def _theta_batch(theta1, theta2):
    """theta as equal-length 1-D float arrays, and whether both were scalars."""
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float),
                                 np.asarray(theta2, dtype=float))
    return t1.reshape(-1), t2.reshape(-1), t1.ndim == 0


def _abs_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as Python's ``abs(z) ** 2`` rounds it (libm hypot, then
    pow).  np.abs and ``** 2`` differ from those in the last bit for a share
    of inputs, which would move the serialized roots."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _clip_negative(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise, with Python's tie and NaN behaviour."""
    return np.where(x > 0.0, x, 0.0)


def _make_roots(values, labels=()):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    if len(labels):
        labels = np.asarray(labels, dtype=object)[order]
        if values.ndim == 1:
            labels = tuple(labels)
    admissible = np.abs(values) <= 1.0 + ADMISSIBILITY_TOL
    return DispersionRoots(values=values, branch_labels=labels,
                           admissible=admissible,
                           closed=np.full(values.shape[:-1], len(labels) > 0))


# ============================================================
#  Assembly
# ============================================================

def _hermitian_guard(a: np.ndarray) -> None:
    dev = np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2))), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    bad = dev > 1e-13 * scale
    if np.any(bad):
        raise EngineError(
            f"assembled matrix is not Hermitian (deviation {np.max(dev[bad]):g})")


def _floquet_matrix(config: StackConfig, rows, scale: np.ndarray, t1: np.ndarray,
                    t2: np.ndarray, scalar: bool) -> FloquetMatrix:
    """Stack entries (scalars or per-point arrays) into an (N, d, d) batch,
    guard Hermiticity at every point, and drop the batch axis for a scalar."""
    dim = len(rows)
    affine = np.empty((len(t1), dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            affine[:, i, j] = entry
    _hermitian_guard(affine)
    if scalar:
        return FloquetMatrix(dim=dim, diag_scale=scale, affine=affine[0],
                             config=config, theta=(float(t1[0]), float(t2[0])))
    return FloquetMatrix(dim=dim, diag_scale=scale, affine=affine,
                         config=config, theta=(t1, t2))


def assemble(config: StackConfig, theta1, theta2) -> FloquetMatrix:
    """Build the Floquet matrix of a non-magnetic stack at theta (scalars or
    1-D arrays; see the module docstring).

    Sublattice order is (a1, b1, a2, b2, ...) layer by layer.  For the hetero
    bilayer and the trilayers, ``alpha_a``/``alpha_b`` always decorate the
    two-species layer(s) and ``alpha_c`` the plain layer's vertices.
    """
    v = config.variant
    if v is StackVariant.MAGNETIC_MONOLAYER:
        raise VariantError(
            "magnetic monolayer is assembled by the magnetic module, not here"
        )
    t1, t2, scalar = _theta_batch(theta1, theta2)
    F = structure_function(t1, t2)
    Fc = np.conj(F)
    aa = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    ac = config.vertex.alpha_c

    if v is StackVariant.MONOLAYER:
        rows = [[-aa, Fc], [F, -ab]]
        scale = np.array([3.0, 3.0])
    elif v is StackVariant.BILAYER_AA:
        c = config.coupling.t0 ** 2
        T = 3.0 + c
        rows = [
            [-aa, Fc, c, 0.0],
            [F, -ab, 0.0, c],
            [c, 0.0, -aa, Fc],
            [0.0, c, F, -ab],
        ]
        scale = np.full(4, T)
    elif v is StackVariant.BILAYER_AA_TWO_PARAM:
        ca = config.coupling.t_a ** 2
        cb = config.coupling.t_b ** 2
        rows = [
            [-aa, Fc, ca, 0.0],
            [F, -ab, 0.0, cb],
            [ca, 0.0, -aa, Fc],
            [0.0, cb, F, -ab],
        ]
        scale = np.array([3.0 + ca, 3.0 + cb, 3.0 + ca, 3.0 + cb])
    elif v is StackVariant.BILAYER_AA_PRIME:
        c = config.coupling.t0 ** 2
        T = 3.0 + c
        rows = [
            [-aa, Fc, 0.0, c],
            [F, -ab, c, 0.0],
            [0.0, c, -aa, Fc],
            [c, 0.0, F, -ab],
        ]
        scale = np.full(4, T)
    elif v is StackVariant.HETERO_BILAYER:
        c = config.coupling.t0 ** 2
        T = 3.0 + c
        rows = [
            [-aa, Fc, 0.0, c],
            [F, -ab, c, 0.0],
            [0.0, c, -ac, Fc],
            [c, 0.0, F, -ac],
        ]
        scale = np.full(4, T)
    elif v in (StackVariant.TRILAYER_HBN_G_HBN, StackVariant.TRILAYER_G_HBN_G):
        c = config.coupling.t0 ** 2
        T1 = 3.0 + c
        T2 = 3.0 + 2.0 * c
        if v is StackVariant.TRILAYER_HBN_G_HBN:
            oa, ob = aa, ab      # outer decorated layers
            ma, mb = ac, ac      # plain middle layer
        else:
            oa, ob = ac, ac      # plain outer layers
            ma, mb = aa, ab      # decorated middle layer
        rows = [
            [-oa, Fc, 0.0, c, 0.0, 0.0],
            [F, -ob, c, 0.0, 0.0, 0.0],
            [0.0, c, -ma, Fc, 0.0, c],
            [c, 0.0, F, -mb, c, 0.0],
            [0.0, 0.0, 0.0, c, -oa, Fc],
            [0.0, 0.0, c, 0.0, F, -ob],
        ]
        scale = np.array([T1, T1, T2, T2, T1, T1])
    else:
        raise VariantError(f"unknown stack variant {v!r}")

    return _floquet_matrix(config, rows, scale, t1, t2, scalar)


# ============================================================
#  Characteristic polynomial (cofactor route)
# ============================================================

def char_poly(fm: FloquetMatrix) -> np.ndarray:
    """Ascending real coefficients of det(A - eta D), degree = dim.

    Laplace expansion along rows with polynomial-valued entries (degree <= 1
    each), memoised over column subsets: the minor on rows r..dim-1 and a
    column set S is computed once and shared by every expansion path that
    reaches it.  Entries that vanish at every point of the batch are
    skipped.  Shape (dim + 1,) for one quasimomentum, (N, dim + 1) for a
    batch.  The leading coefficient is prod(T_i) up to the sign (-1)^dim,
    which is +1 for the even dimensions that occur here.
    """
    n = fm.dim
    affine = fm.affine.reshape(-1, n, n)
    present = np.any(affine != 0.0, axis=0)
    empty = np.zeros((len(affine), n + 1), dtype=complex)
    empty[:, 0] = 1.0
    minors: dict[int, np.ndarray | None] = {0: empty}

    def minor(cols: int) -> np.ndarray | None:
        # determinant of rows n - |cols| .. n - 1 and the columns in the
        # bitmask cols, expanded along its first row; None when every term
        # vanishes structurally
        if cols in minors:
            return minors[cols]
        row = n - cols.bit_count()
        total = None
        position = 0
        for col in range(n):
            if not cols >> col & 1:
                continue
            sub = minor(cols & ~(1 << col)) if present[row, col] or col == row else None
            if sub is not None:
                term = affine[:, row, col, None] * sub
                if col == row:
                    term[:, 1:] -= fm.diag_scale[row] * sub[:, :-1]
                if total is None:
                    total = -term if position % 2 else term
                elif position % 2:
                    total -= term
                else:
                    total += term
            position += 1
        minors[cols] = total
        return total

    coeffs = minor((1 << n) - 1)
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=1))
    if np.any(np.max(np.abs(coeffs.imag), axis=1) > 1e-12 * scale):
        raise EngineError("characteristic polynomial has a non-real coefficient")
    return coeffs.real[0] if fm.affine.ndim == 2 else coeffs.real


def _worst_residual(coeffs: np.ndarray, values: np.ndarray) -> float:
    """max over all points and roots of |p(root)| / |leading coefficient|.

    ``coeffs`` is (dim + 1,) or (N, dim + 1) and ``values`` the matching
    (dim,) or (N, dim); a NaN anywhere makes the result NaN."""
    coeffs = np.reshape(coeffs, (-1, coeffs.shape[-1]))
    values = np.reshape(values, (len(coeffs), -1))
    if values.size == 0:
        return 0.0
    residuals = (np.abs(npoly.polyval(values, coeffs.T[:, :, None], tensor=False))
                 / np.abs(coeffs[:, -1:]))
    return float(np.max(residuals))


def _check_residuals(fm: FloquetMatrix, values: np.ndarray) -> None:
    worst = _worst_residual(char_poly(fm), values)
    if not worst < RESIDUAL_TOL:
        raise EngineError(
            f"closed-form root failed the residual gate: |p(r)|/lead = {worst:g}"
        )


# ============================================================
#  Numeric roots (eigenvalue route)
# ============================================================

def numeric_roots(fm: FloquetMatrix) -> DispersionRoots:
    """Solve det(A - eta D) = 0 via the Hermitian eigenproblem of D^{-1/2} A D^{-1/2}."""
    dinv = 1.0 / np.sqrt(fm.diag_scale)
    sym = fm.affine * np.outer(dinv, dinv)
    values = np.linalg.eigvalsh(sym)
    return _make_roots(values)


def match_branches(closed: DispersionRoots, numeric: DispersionRoots) -> tuple[str, ...]:
    """Label numeric roots by the nearest closed-form value's branch label."""
    if not closed.branch_labels:
        return ()
    labels = []
    for v in numeric.values:
        idx = int(np.argmin(np.abs(closed.values - v)))
        labels.append(closed.branch_labels[idx])
    return tuple(labels)


# ============================================================
#  Closed-form root families
# ============================================================

def _quadratic_roots(A, B, C):
    """Real roots of A x^2 + B x + C, ascending (elementwise over arrays)."""
    disc = B * B - 4.0 * A * C
    near = (disc < 0.0) & (
        disc > -1e-14 * np.maximum(np.maximum(B * B, np.abs(4.0 * A * C)), 1.0))
    if np.any((disc < 0.0) & ~near):
        raise EngineError("closed-form quadratic has complex roots")
    s = np.sqrt(np.where(near, 0.0, disc))
    return ((-B - s) / (2.0 * A), (-B + s) / (2.0 * A))


# variants whose closed forms hold on the diagonal slice only, and only for
# alpha_b = -alpha_a, alpha_c = 0
DIAGONAL_ONLY = frozenset({StackVariant.HETERO_BILAYER, StackVariant.TRILAYER_HBN_G_HBN,
                           StackVariant.TRILAYER_G_HBN_G})


def _require_diagonal(F: np.ndarray) -> np.ndarray:
    off = np.abs(F.imag) > _DIAGONAL_TOL
    if np.any(off):
        raise NoClosedFormError(
            "closed forms for this variant hold on the diagonal slice only "
            f"(Im F = {F.imag[off][0]:g})",
            servable=~off,
        )
    return F.real


def _require_opposite_pair(aa: float, ab: float, ac: float) -> None:
    if abs(aa + ab) > _PAIR_TOL or abs(ac) > _PAIR_TOL:
        raise NoClosedFormError(
            "closed forms for this variant require alpha_b = -alpha_a and "
            f"alpha_c = 0 (got alpha_a={aa!r}, alpha_b={ab!r}, alpha_c={ac!r})"
        )


def closed_form_roots(config: StackConfig, theta1, theta2) -> DispersionRoots:
    """Analytic eta roots with branch labels, residual-checked at every point.

    Raises ``NoClosedFormError`` when the variant/parameter combination has no
    analytic root family at some point of the batch (hetero bilayer and
    trilayers need the diagonal slice with alpha_b = -alpha_a and
    alpha_c = 0); its ``servable`` mask names the points that have one.
    """
    v = config.variant
    t1, t2, scalar = _theta_batch(theta1, theta2)
    F = structure_function(t1, t2)
    fsq = _abs_sq(F)
    aa = config.vertex.alpha_a
    ab = config.vertex.alpha_b
    ac = config.vertex.alpha_c
    pairs: list[tuple[np.ndarray, str]] = []
    if v in DIAGONAL_ONLY:
        _require_opposite_pair(aa, ab, ac)
        f = _require_diagonal(F)

    if v is StackVariant.MONOLAYER:
        disc = np.sqrt((aa - ab) ** 2 + 4.0 * fsq)
        pairs = [((-(aa + ab) - disc) / 6.0, "u-"),
                 ((-(aa + ab) + disc) / 6.0, "u+")]
    elif v is StackVariant.BILAYER_AA:
        c = config.coupling.t0 ** 2
        T = 3.0 + c
        disc = np.sqrt((aa - ab) ** 2 + 4.0 * fsq)
        for s, stag in ((1.0, "s+"), (-1.0, "s-")):
            for u, utag in ((1.0, "u+"), (-1.0, "u-")):
                pairs.append(((-(aa + ab) + 2.0 * s * c + u * disc) / (2.0 * T),
                              stag + utag))
    elif v is StackVariant.BILAYER_AA_TWO_PARAM:
        ca = config.coupling.t_a ** 2
        cb = config.coupling.t_b ** 2
        Ta, Tb = 3.0 + ca, 3.0 + cb
        for s, stag in ((1.0, "s+"), (-1.0, "s-")):
            lo, hi = _quadratic_roots(
                Ta * Tb,
                (aa - s * ca) * Tb + (ab - s * cb) * Ta,
                (aa - s * ca) * (ab - s * cb) - fsq,
            )
            pairs += [(lo, stag + "u-"), (hi, stag + "u+")]
    elif v is StackVariant.BILAYER_AA_PRIME:
        c = config.coupling.t0 ** 2
        T = 3.0 + c
        for s, stag in ((1.0, "s+"), (-1.0, "s-")):
            shifted = _abs_sq(F + s * c)
            disc = np.sqrt((aa - ab) ** 2 + 4.0 * shifted)
            pairs += [((-(aa + ab) - disc) / (2.0 * T), stag + "u-"),
                      ((-(aa + ab) + disc) / (2.0 * T), stag + "u+")]
    elif v is StackVariant.HETERO_BILAYER:
        c = config.coupling.t0 ** 2
        T = 3.0 + c
        F2 = f * f
        a2 = aa * aa
        inner = np.sqrt(16.0 * c * c * F2 + 4.0 * a2 * c * c + a2 * a2)
        r_out = np.sqrt((2.0 * F2 + 2.0 * c * c + a2 + inner) / 2.0) / T
        r_in = np.sqrt(_clip_negative((2.0 * F2 + 2.0 * c * c + a2 - inner) / 2.0)) / T
        pairs = [(-r_out, "out-"), (-r_in, "in-"), (r_in, "in+"), (r_out, "out+")]
    elif v in (StackVariant.TRILAYER_HBN_G_HBN, StackVariant.TRILAYER_G_HBN_G):
        c = config.coupling.t0 ** 2
        T1, T2 = 3.0 + c, 3.0 + 2.0 * c
        F2 = f * f
        a2 = aa * aa
        if v is StackVariant.TRILAYER_HBN_G_HBN:
            p2 = np.sqrt(a2 + F2) / T1
            mid = a2 * T2 * T2
        else:
            p2 = np.abs(f) / T1
            mid = a2 * T1 * T1
        pairs = [(-p2, "p2-"), (p2, "p2+")]
        A = T1 * T1 * T2 * T2
        B = -(F2 * (T1 * T1 + T2 * T2) + mid + 4.0 * c * c * T1 * T2)
        C = np.float_power(F2 - 2.0 * c * c, 2.0) + a2 * F2   # as Python's ** 2
        e2_in, e2_out = _quadratic_roots(A, B, C)
        r_in = np.sqrt(_clip_negative(e2_in))
        r_out = np.sqrt(_clip_negative(e2_out))
        pairs += [(-r_out, "pn_out-"), (-r_in, "pn_in-"),
                  (r_in, "pn_in+"), (r_out, "pn_out+")]
    elif v is StackVariant.MAGNETIC_MONOLAYER:
        raise VariantError(
            "magnetic monolayer roots come from the magnetic module, not here"
        )
    else:
        raise VariantError(f"unknown stack variant {v!r}")

    values = np.stack([p[0] for p in pairs], axis=-1)
    roots = _make_roots(values[0] if scalar else values, [p[1] for p in pairs])
    _check_residuals(assemble(config, t1, t2), roots.values)
    return roots
