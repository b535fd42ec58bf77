"""Floquet matrix assembly, characteristic polynomials, and dispersion roots.

For each quasimomentum theta the vertex conditions reduce to a finite linear
system M(eta, theta) u = 0 with

    M(eta, theta) = A(theta) - eta * diag(T_1, ..., T_n),

where A is Hermitian, T_i are the per-vertex diagonal scales (3 for a bare
degree-3 vertex plus the weight t^2 of each inter-layer edge at it), and
eta = d(lambda)/2 is the Hill-discriminant variable.  A value eta belongs to
the dispersion surface iff det M = 0; it maps back to physical spectrum only
when |eta| <= 1 (+ tolerance).  Every stack's A, and the q = 1 flux cell's,
reads theta only through the structure function F = 1 + exp(i theta1) +
exp(i theta2): it is its layout's F-free part A0 plus F and conj(F) at fixed
places, and ``_layout_form`` reads A0, those places and T from its
``lattice.LAYOUTS`` entry alone: one monolayer block per layer and one
symmetric entry per inter-layer bond.  So this module takes F, not theta:
theta becomes F where it enters (``bands.roots_at``, the magnetic q = 1
cell), once per call.

Two independent routes to the roots are provided and never mixed:

* ``char_poly`` expands det(A - eta D) by Laplace expansion along rows
  over polynomial-valued entries, memoised over column subsets: every minor
  is formed once, 2^n of them at most instead of n! expansion paths (no
  eigensolver involved).  Every entry of A - eta D is affine in F,
  conj(F) and eta, so each minor is a tensor over their powers.  Given an
  assembled matrix, the F axes have length 1 and the result is the
  polynomial in eta at each point.  Given a layout's F-free form with
  the places of F, the result is the coefficient tensor a[i, j, k] of
  F^i conj(F)^j eta^k, fixed for each config;
* ``numeric_roots`` diagonalizes D^{-1/2} A D^{-1/2} (no polynomial involved).

``closed_form_roots`` evaluates the analytic root families of ``_FORMULAS``,
one formula and one tuple of branch names per stack, and verifies every
value against the characteristic polynomial at runtime: the residual gate
expands each config's tensor once (``_gate_tensor`` caches the last one),
evaluates it at the F of each batch (one matrix product of the F^i
conj(F)^j with the flattened tensor) and the polynomial at each root by
Horner's scheme, each root on its own scale: the residual against the sum
of the polynomial's absolute terms at radius max(1, |root|).  The paired
stacks (those with a plain layer) have closed forms on the diagonal slice
only.  This module provides the routes;
``bands.roots_at`` alone decides which one serves a point, for the magnetic
flux cells as well.

The engine is batch-first.  ``assemble`` and ``closed_form_roots`` take F
as a complex scalar or a 1-D array of N values; a batch gives a
``FloquetMatrix`` with an (N, dim, dim) affine part and ``DispersionRoots``
with (N, dim) values and sort orders, and ``char_poly`` and
``numeric_roots`` follow the matrix they are given.  A scalar runs as a
batch of one and comes back without the batch axis, so a point gives the
same bits alone as inside a batch.  ``roots_at`` calls the engine on
batches of ``batch_points`` points, whose matrices take at most
``BATCH_BYTES``.  Every formula is elementwise and ``eigvalsh`` works
matrix by matrix, so the budget moves no bit; it trades the fixed numpy
cost of a call against its working set (256 KiB of matrices: 455 points at
d = 6, 1024 at d = 4).  The closed forms and the q = 2 quartic run on the
same batches: a batch the formulas cannot serve goes to the eigensolver.
Their peak allocation per point, gate included, is about 280 B at d = 2,
600 B at d = 4 and 1.3 KB at d = 6 (2.2 to 4.4 times a matrix's 16 d^2
bytes); at d = 6 the gate's coefficient planes, 16 (d + 1) d bytes, are
half of it.

The refiners call the engine about a thousand times a job on 1-20 points
each, where numpy's fixed cost per operation (0.2-1 us) is most of a call.
So the small-call path counts operations.  ``_f_batch`` takes a 1-D
complex array as it is.  The formulas write their columns into one
(N, dim) array, ``_make_roots`` gathers the sorted rows by index, and
``numeric_roots`` takes ``eigvalsh``'s values as they come, ascending.  A
mask is built only once a reduction says it is needed: the quadratic's
near-zero discriminants once one is negative, the off-slice points once
one is off.  The gate is a matrix product and one Horner pass rather than
``vander``, a 3-operand einsum and ``polyval``; the pass runs on
preallocated planes that hold each coefficient at its roots' places, so
every step combines arrays of one shape in place.  A ``roots_at`` call of
1-8 points then costs 30-55 us on the closed forms, 40-55 % of it the
gate, and 15-40 us on the eigensolver (2-core x86 VM;
``tools/call_cost.py`` prints it per route).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import EngineError, NoClosedFormError, VariantError
from .lattice import ADMISSIBILITY_TOL, StackConfig, StackVariant

RESIDUAL_TOL = 1e-9      # gate on each root's |p(r)| / sum |c_i| max(1, |r|)^i
_DIAGONAL_TOL = 1e-12    # |Im F| bound for diagonal-slice closed forms
_PAIR_TOL = 1e-12        # |alpha_a + alpha_b| bound for the constrained forms
BATCH_BYTES = 256 * 1024  # bytes of an engine call's arrays: the (N, dim, dim)
                          # complex matrices of a batch, a block of the
                          # (minima, m) prominence walks of bands._grid_minima


# ============================================================
#  Data records and batching
# ============================================================

@dataclass(frozen=True)
class FloquetMatrix:
    """Assembled vertex-condition systems at one quasimomentum or a batch."""

    diag_scale: np.ndarray        # (dim,) positive diagonal scales T_i
    affine: np.ndarray            # (dim, dim) Hermitian A(F); (N, dim, dim) for a batch

    @property
    def dim(self) -> int:
        return len(self.diag_scale)


@dataclass(frozen=True)
class DispersionRoots:
    """eta roots at one quasimomentum (or a batch), ascending, with branch bookkeeping.

    For a batch of N points ``values`` and ``admissible`` (|eta| <= 1 +
    tolerance, derived on access) are (N, dim).  ``closed`` marks the points
    whose roots came from the closed forms: (N,) for a batch, a 0-d array for
    one point.  Closed-form roots carry their model's branch ``names`` once
    and, per point, the ``order`` that sorted the formula columns: sorted
    root k is branch ``names[order[..., k]]``.  Numeric-only roots have no
    names and no order.
    """

    values: np.ndarray                       # sorted ascending along the last axis
    closed: np.ndarray = field(default_factory=lambda: np.array(False))
    names: tuple[str, ...] = ()
    order: np.ndarray | None = None          # integer permutation per point

    @property
    def admissible(self) -> np.ndarray:
        return np.abs(self.values) <= 1.0 + ADMISSIBILITY_TOL

    @property
    def branch_labels(self):
        """The branch name of each sorted root: a tuple for one point, an
        (N, dim) object array for a batch, () for numeric-only roots."""
        if not self.names:
            return ()
        labels = np.asarray(self.names, dtype=object)[self.order]
        return tuple(labels) if labels.ndim == 1 else labels


def batch_points(dim: int) -> int:
    """The points of an engine batch: its (N, dim, dim) complex matrices
    take at most ``BATCH_BYTES``."""
    return max(1, BATCH_BYTES // (16 * dim * dim))


def _f_batch(F):
    """F as a 1-D complex array, and whether it was a scalar."""
    F = np.asarray(F, dtype=complex)
    return F.reshape(-1), F.ndim == 0


def _abs_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 rounded as Python's ``abs(z) ** 2`` rounds it (libm hypot, then
    pow).  np.abs and ``** 2`` differ from those in the last bit for a share
    of inputs, which would move the serialized roots."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def _clip_negative(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise, with Python's tie and NaN behaviour."""
    return np.where(x > 0.0, x, 0.0)


def _make_roots(values: np.ndarray, names: tuple[str, ...]) -> DispersionRoots:
    """Closed-form roots from their formula columns, (dim,) or (N, dim):
    each row sorted, with the order that sorted it."""
    order = values.argsort(axis=-1, kind="stable")
    values = values[order] if values.ndim == 1 else values[
        np.arange(len(values))[:, None], order]
    return DispersionRoots(values=values, closed=np.ones(values.shape[:-1], dtype=bool),
                           names=names, order=order.astype(np.int8))


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


def _floquet_matrix(rows, scale: np.ndarray, n: int, scalar: bool) -> FloquetMatrix:
    """Stack entries (scalars or per-point arrays) into an (n, d, d) batch,
    guard Hermiticity at every point, and drop the batch axis for a scalar."""
    affine = np.empty((n, len(rows), len(rows)), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            affine[:, i, j] = entry
    _hermitian_guard(affine)
    return FloquetMatrix(diag_scale=scale, affine=affine[0] if scalar else affine)


@lru_cache(maxsize=1)
def _layout_form(config: StackConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The F-free part A0 of A(F), the (dim, dim) mask of the places of F
    and the vertex scales of a stack, or of the q = 1 flux cell: A(F) is A0
    with F at the masked places and conj(F) at the transposed ones.

    Each layer is a monolayer block [[-alpha, conj F], [F, -alpha']] with the
    alphas its layout role names; each bond (i, j, field) puts field**2 at
    (i, j) and (j, i), and every vertex scale is 3 + (sum of its bond
    weights).  A0 is guarded Hermitian here, which guards every A(F):
    F and conj(F) stand at transposed places.  Built once per config, like
    ``_gate_tensor``, and read-only, since every batch shares it.
    """
    layout = config.layout
    dim = 2 * len(layout.layers)
    if config.dim != dim:
        raise VariantError("the q = 2 flux cell is the magnetic module's "
                           "(assemble_robin, closed_form_roots_q2)")
    a0 = np.zeros((dim, dim), dtype=complex)
    f_at = np.zeros((dim, dim), dtype=bool)
    for k, role in enumerate(layout.layers):
        a, b = 2 * k, 2 * k + 1
        a0[a, a] = -getattr(config.vertex, "alpha_" + role[0])
        a0[b, b] = -getattr(config.vertex, "alpha_" + role[1])
        f_at[b, a] = True
    weights = [0.0] * dim
    for i, j, name in layout.bonds:
        c = getattr(config.coupling, name) ** 2
        a0[i, j] = a0[j, i] = c
        weights[i] += c
        weights[j] += c
    _hermitian_guard(a0)
    form = a0, f_at, np.array([3.0 + w for w in weights])
    for a in form:
        a.flags.writeable = False
    return form


def assemble(config: StackConfig, F) -> FloquetMatrix:
    """Build the Floquet matrix of a stack, or of the q = 1 flux cell, at
    the structure-function value F (a scalar or a 1-D array; see the module
    docstring): the layout's form (``_layout_form``) with F in its places."""
    a0, f_at, scale = _layout_form(config)
    F, scalar = _f_batch(F)
    affine = np.empty((len(F),) + a0.shape, dtype=complex)
    affine[:] = a0
    affine[:, f_at] = F[:, None]
    affine[:, f_at.T] = np.conj(F)[:, None]
    return FloquetMatrix(diag_scale=scale, affine=affine[0] if scalar else affine)


# ============================================================
#  Characteristic polynomial (cofactor route)
# ============================================================

def char_poly(fm: FloquetMatrix, f_at: np.ndarray | None = None) -> np.ndarray:
    """Ascending real coefficients of det(A - eta D), degree = dim.

    Laplace expansion along rows over polynomial-valued entries, memoised
    over column subsets: the minor on rows r..dim-1 and a column set S is
    computed once and shared by every expansion path that reaches it.
    Entries that vanish at every point of the batch are skipped.  Shape
    (dim + 1,) for one quasimomentum, (N, dim + 1) for a batch.  The leading
    coefficient is prod(T_i) up to the sign (-1)^dim, which is +1 for the
    even dimensions that occur here.

    Each entry is affine in F, conj(F) and eta: ``fm.affine`` holds its
    constant part, the (dim, dim) boolean mask ``f_at`` the places where F
    adds to it (conj(F) adds at the transposed places), and the diagonal
    carries -eta T_i.  A minor is a tensor over the powers of F, conj(F) and
    eta, with F and conj(F) degrees up to L, the number of places of F.
    Without ``f_at`` (an assembled matrix) L = 0 and those two axes are
    dropped.  With it, ``fm`` is an F-free form (``_layout_form``) and
    the result is the (L + 1, L + 1, dim + 1) tensor a with
    det(A(F) - eta D) = sum a[i, j, k] F^i conj(F)^j eta^k.
    """
    n = fm.dim
    affine = fm.affine.reshape(-1, n, n)
    f_places = np.zeros((n, n), dtype=bool) if f_at is None else f_at
    fc_places = f_places.T
    degree = int(np.count_nonzero(f_places))
    present = np.any(affine != 0.0, axis=0) | f_places | fc_places
    empty = np.zeros((len(affine), degree + 1, degree + 1, n + 1), dtype=complex)
    empty[:, 0, 0, 0] = 1.0
    minors: dict[int, np.ndarray | None] = {0: empty}

    def minor(cols: int) -> np.ndarray | None:
        # determinant of rows n - |cols| .. n - 1 and the columns in the
        # bitmask cols, expanded along its first row; None when every term
        # vanishes structurally.  The rows below a row with a place of F
        # hold fewer than L of them, so shifting the minor's F degree by one
        # drops only zeros.
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
                term = affine[:, row, col, None, None, None] * sub
                if f_places[row, col]:
                    term[:, 1:] += sub[:, :-1]
                if fc_places[row, col]:
                    term[:, :, 1:] += sub[:, :, :-1]
                if col == row:
                    term[..., 1:] -= fm.diag_scale[row] * sub[..., :-1]
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
    coeffs = _real_coefficients(coeffs if f_at is not None else coeffs[:, 0, 0])
    return coeffs[0] if fm.affine.ndim == 2 else coeffs


def _real_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """The real part of an (N, ...) coefficient array, after checking that
    the imaginary parts at each point stay at rounding level."""
    # the point axis last: numpy reduces a point's few entries per point,
    # but reduces across points one vectorised step per entry
    by_point = coeffs.T.copy()
    axes = tuple(range(coeffs.ndim - 1))
    scale = np.maximum.reduce(np.abs(by_point), axis=axes, initial=1.0)
    if (np.maximum.reduce(np.abs(by_point.imag), axis=axes) > 1e-12 * scale).any():
        raise EngineError("characteristic polynomial has a non-real coefficient")
    return coeffs.real


@lru_cache(maxsize=1)
def _gate_tensor(config: StackConfig) -> np.ndarray:
    """The (L + 1, L + 1, dim + 1) tensor of det(A(F) - eta D) over
    F^i conj(F)^j eta^k of a stack or the q = 1 cell: ``char_poly`` of its
    layout form, once per config.  Read-only, since every caller shares it.
    A CLI run gates one config, so one is cached."""
    a0, f_at, scale = _layout_form(config)
    tensor = char_poly(FloquetMatrix(diag_scale=scale, affine=a0), f_at)
    tensor.setflags(write=False)
    return tensor


def _gate_coefficients(config: StackConfig, F: np.ndarray) -> np.ndarray:
    """Ascending real coefficients of det(A(F) - eta D), (N, dim + 1),
    at the structure-function values F (N,) of a batch."""
    tensor = _gate_tensor(config)
    powers = F[:, None] ** np.arange(len(tensor))
    products = powers[:, :, None] * powers[:, None, :].conj()
    return _real_coefficients(products.reshape(-1, len(tensor) ** 2)
                              @ tensor.reshape(len(tensor) ** 2, -1))


def _residual_gate(coeffs: np.ndarray, values: np.ndarray) -> None:
    """The residual gate of closed-form roots: raises unless every root r has
    |p(r)| / sum_i |c_i| rho^i below ``RESIDUAL_TOL``, rho = max(1, |r|):
    relative to p's terms where |r| > 1, as at |r| = 1 inside the unit disc.
    ``coeffs`` is (dim + 1,) or (N, dim + 1) and ``values`` the matching
    (dim,) or (N, dim), possibly with N = 0; a NaN anywhere fails."""
    if values.size == 0:
        return
    coeffs = coeffs.reshape(-1, coeffs.shape[-1])
    values = values.reshape(len(coeffs), -1)
    # p(r) and its size sum_i |c_i| rho^i in one Horner pass over the planes
    # x = (r, rho) and c[i] = (c_i, |c_i|), c_i copied to each root's place
    # so that every step adds arrays of one shape; NaN stays NaN
    x = np.empty((2,) + values.shape)
    x[0] = values
    np.maximum(1.0, np.abs(values), out=x[1])
    c = np.empty((coeffs.shape[1], 2) + values.shape)
    c[:, 0] = coeffs.T[:, :, None]
    np.abs(c[:, 0], out=c[:, 1])
    acc = c[-1] * x
    acc += c[-2]
    for k in range(len(c) - 3, -1, -1):
        acc *= x
        acc += c[k]
    ratio = np.abs(acc[0], out=acc[0])
    ratio /= acc[1]
    worst = float(np.maximum.reduce(ratio, axis=None))
    if not worst < RESIDUAL_TOL:
        raise EngineError(
            f"closed-form root failed the residual gate: scaled residual {worst:g}"
        )


# ============================================================
#  Numeric roots (eigenvalue route)
# ============================================================

def numeric_roots(fm: FloquetMatrix) -> DispersionRoots:
    """Solve det(A - eta D) = 0 via the Hermitian eigenproblem of D^{-1/2} A D^{-1/2}."""
    dinv = 1.0 / np.sqrt(fm.diag_scale)
    # eigvalsh returns each matrix's eigenvalues in ascending order
    values = np.linalg.eigvalsh(fm.affine * (dinv[:, None] * dinv))
    return DispersionRoots(values=values, closed=np.zeros(values.shape[:-1], dtype=bool))


# ============================================================
#  Closed-form root families
# ============================================================

def _quadratic_roots(A, B, C):
    """Real roots of A x^2 + B x + C, ascending (elementwise over arrays)."""
    disc = B * B - 4.0 * A * C
    # fmin skips NaN, so a NaN point hides no negative discriminant
    if np.fmin.reduce(disc, axis=None, initial=0.0) < 0.0:
        near = (disc < 0.0) & (
            disc > -1e-14 * np.maximum(np.maximum(B * B, np.abs(4.0 * A * C)), 1.0))
        if np.any((disc < 0.0) & ~near):
            raise EngineError("closed-form quadratic has complex roots")
        disc = np.where(near, 0.0, disc)
    s = np.sqrt(disc)
    minus_b, two_a = -B, 2.0 * A
    return (minus_b - s) / two_a, (minus_b + s) / two_a


def _require_diagonal(F: np.ndarray) -> np.ndarray:
    im = np.abs(F.imag)
    # fmax skips NaN: a NaN point counts as on the slice, as ``im > tol``
    # counts it, and hides no point off it
    if np.fmax.reduce(im, initial=0.0) > _DIAGONAL_TOL:
        off = im > _DIAGONAL_TOL
        raise NoClosedFormError(
            "closed forms for this variant hold on the diagonal slice only "
            f"(Im F = {F.imag[off][0]:g})",
            servable=~off,
        )
    return F.real


def _require_opposite_pair(vertex) -> None:
    aa, ab, ac = vertex.alpha_a, vertex.alpha_b, vertex.alpha_c
    if abs(aa + ab) > _PAIR_TOL or abs(ac) > _PAIR_TOL:
        raise NoClosedFormError(
            "closed forms for this variant require alpha_b = -alpha_a and "
            f"alpha_c = 0 (got alpha_a={aa!r}, alpha_b={ab!r}, alpha_c={ac!r})"
        )


# Each formula takes alpha_a, alpha_b, F (the real f = F on the diagonal
# slice for the paired stacks) and the squared couplings in the order the
# layout's bonds first name them, and returns one root column per branch name.

def _monolayer(aa, ab, F):
    disc = np.sqrt((aa - ab) ** 2 + 4.0 * _abs_sq(F))
    return (-(aa + ab) - disc) / 6.0, (-(aa + ab) + disc) / 6.0


def _bilayer_aa(aa, ab, F, c):
    T = 3.0 + c
    disc = np.sqrt((aa - ab) ** 2 + 4.0 * _abs_sq(F))
    return [(-(aa + ab) + 2.0 * s * c + u * disc) / (2.0 * T)
            for s in (1.0, -1.0) for u in (1.0, -1.0)]


def _bilayer_two_param(aa, ab, F, ca, cb):
    Ta, Tb = 3.0 + ca, 3.0 + cb
    fsq = _abs_sq(F)
    columns = []
    for s in (1.0, -1.0):
        columns += _quadratic_roots(Ta * Tb,
                                    (aa - s * ca) * Tb + (ab - s * cb) * Ta,
                                    (aa - s * ca) * (ab - s * cb) - fsq)
    return columns


def _bilayer_prime(aa, ab, F, c):
    T = 3.0 + c
    columns = []
    for s in (1.0, -1.0):
        disc = np.sqrt((aa - ab) ** 2 + 4.0 * _abs_sq(F + s * c))
        columns += [(-(aa + ab) - disc) / (2.0 * T), (-(aa + ab) + disc) / (2.0 * T)]
    return columns


def _hetero_bilayer(aa, ab, f, c):
    T = 3.0 + c
    F2 = f * f
    a2 = aa * aa
    inner = np.sqrt(16.0 * c * c * F2 + 4.0 * a2 * c * c + a2 * a2)
    r_out = np.sqrt((2.0 * F2 + 2.0 * c * c + a2 + inner) / 2.0) / T
    r_in = np.sqrt(_clip_negative((2.0 * F2 + 2.0 * c * c + a2 - inner) / 2.0)) / T
    return -r_out, -r_in, r_in, r_out


def _trilayer(aa, ab, f, c, outer_decorated):
    T1, T2 = 3.0 + c, 3.0 + 2.0 * c
    F2 = f * f
    a2 = aa * aa
    if outer_decorated:         # hBN-G-hBN
        p2 = np.sqrt(a2 + F2) / T1
        mid = a2 * T2 * T2
    else:                       # G-hBN-G
        p2 = np.abs(f) / T1
        mid = a2 * T1 * T1
    A = T1 * T1 * T2 * T2
    B = -(F2 * (T1 * T1 + T2 * T2) + mid + 4.0 * c * c * T1 * T2)
    C = np.float_power(F2 - 2.0 * c * c, 2.0) + a2 * F2   # as Python's ** 2
    e2_in, e2_out = _quadratic_roots(A, B, C)
    r_in = np.sqrt(_clip_negative(e2_in))
    r_out = np.sqrt(_clip_negative(e2_out))
    return -p2, p2, -r_out, -r_in, r_in, r_out


_TRILAYER_NAMES = ("p2-", "p2+", "pn_out-", "pn_in-", "pn_in+", "pn_out+")

# the branch names and the formula of each stack's closed forms
_FORMULAS = {
    StackVariant.MONOLAYER: (("u-", "u+"), _monolayer),
    StackVariant.BILAYER_AA: (("s+u+", "s+u-", "s-u+", "s-u-"), _bilayer_aa),
    StackVariant.BILAYER_AA_TWO_PARAM: (("s+u-", "s+u+", "s-u-", "s-u+"),
                                        _bilayer_two_param),
    StackVariant.BILAYER_AA_PRIME: (("s+u-", "s+u+", "s-u-", "s-u+"), _bilayer_prime),
    StackVariant.HETERO_BILAYER: (("out-", "in-", "in+", "out+"), _hetero_bilayer),
    StackVariant.TRILAYER_HBN_G_HBN: (_TRILAYER_NAMES,
                                      partial(_trilayer, outer_decorated=True)),
    StackVariant.TRILAYER_G_HBN_G: (_TRILAYER_NAMES,
                                    partial(_trilayer, outer_decorated=False)),
    StackVariant.MAGNETIC_MONOLAYER: (("u-", "u+"), _monolayer),   # the q = 1 cell
}


def closed_form_roots(config: StackConfig, F) -> DispersionRoots:
    """Analytic eta roots with branch names, residual-checked at every point,
    for every stack and the q = 1 flux cell.

    Raises ``NoClosedFormError`` when the variant/parameter combination has no
    analytic root family at some point of the batch (the paired stacks need
    the diagonal slice with alpha_b = -alpha_a and alpha_c = 0); its
    ``servable`` mask names the points that have one.
    """
    F, scalar = _f_batch(F)
    f = F
    if config.layout.paired:
        _require_opposite_pair(config.vertex)
        f = _require_diagonal(F)
    names, formula = _FORMULAS[config.variant]
    fields = dict.fromkeys(name for _, _, name in config.layout.bonds)
    squares = [getattr(config.coupling, name) ** 2 for name in fields]
    alphas = config.vertex.alpha_a, config.vertex.alpha_b
    values = np.empty((len(F), len(names)))
    for k, column in enumerate(formula(*alphas, f, *squares)):
        values[:, k] = column
    roots = _make_roots(values[0] if scalar else values, names)
    _residual_gate(_gate_coefficients(config, F), roots.values)
    return roots
