"""Hill-discriminant analysis on the unit edge: monodromy, bands, inversion.

Every edge of the graph carries the same operator -y'' + q y with an even
potential q(x) = q(1 - x) on [0, 1].  The monodromy matrix at energy lambda is

    W(lambda) = [[c(1), s(1)], [c'(1), s'(1)]],   det W = 1,

built from the cosine/sine-type solutions (c(0)=1, c'(0)=0; s(0)=0, s'(0)=1).
The discriminant d(lambda) = c(1) + s'(1) controls everything: the dispersion
variable is eta = d(lambda)/2, Hill bands are the closures of {|d| < 2}, and
the Dirichlet spectrum {s(1; lambda) = 0} carries the flat (point-spectrum)
part, excluded from the band inversion.

The zero potential.  For -y'' alone, d(lambda) = 2 cos sqrt(lambda): Hill
band k is sqrt(lambda) in [(k - 1) pi, k pi], on which eta = cos sqrt(lambda)
inverts to

    lambda = ((k - 1) pi + arccos eta)^2  (odd k),
    lambda = (k pi - arccos eta)^2        (even k),

and the Dirichlet points are (k pi)^2, k >= 1 (the eta = cos sqrt(lambda)
relation of Kuchment & Post, Commun. Math. Phys. 275, 2007; the free case
of Magnus & Winkler, Hill's Equation, 1966).  ``invert_discriminant`` and
``dirichlet_spectrum`` return these forms without a scan or a root finder,
so a zero-potential spectrum evaluates no monodromy.  The gaps are closed,
and the forms give each shared edge of bands 1-4 the bits of its Dirichlet
point.

Band edges.  With the half-edge map N (see below) and det N = 1,

    d/2 - 1 = 2 s c',   d/2 + 1 = 2 c s',   s(1) = 2 s s',

so every band edge is a simple zero of one entry of N, even at a closed
gap, where d/2 -+ 1 has a double root (the even-coefficient case of Magnus
& Winkler 1966; Eastham, The Spectral Theory of Periodic Differential
Equations, 1973).  One scan finds them all: ``dirichlet_spectrum``
evaluates the four entries of N on its scan grid and refines every sign
change of every entry in one root-finder call.  The zeros of s and s' are
the Dirichlet points, and all the zeros, sorted, are the band edges
e_0 <= e_1 <= ..., band k being [e_{2k-2}, e_{2k-1}].  The scan for bands
1 to n stops at (n + 1/2)^2 pi^2 + max(0, max q), past the last edge of gap
n and past nu_n: by min-max comparison these lie at most max q above their
zero-potential values, (n pi)^2.  ``invert_discriminant`` inverts eta
between a band's two edges (see there).

Integrator.  The zero potential has its monodromy in closed form.  Every
other potential is integrated by the fourth-order Magnus method on a fixed
x-grid (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 2009).  Each step samples the potential at its
two Gauss nodes and applies the exact exponential of the traceless 2x2
Magnus generator (cos/sin or cosh/sinh of its eigenvalue), so every step is
an SL(2) map.  For a sampled potential the steps are aligned with the knots,
so that each step sees one linear piece.

Only the half edge [0, 1/2] is integrated.  For an even q, x -> 1 - x maps
solutions to solutions, so the map from 1/2 to 1 is R N^-1 R, with the
half-edge map N = W(1/2) = [[c, s], [c', s']] (``_magnus``) and
R = diag(1, -1) (``_reflect``):

    W(1) = R N^-1 R N = [[c s' + s c', 2 s s'], [2 c c', c s' + s c']],

and det W(1) = (det N)^2.  That is exact for every even q, not an
approximation of the integrator, which is why evenness is checked exactly
for a sampled potential (``PotentialSpec._check_even``).  The grid keeps
``_BASE_STEPS`` = 512 steps per unit length, 256 on the half edge; for
knots placed symmetrically about 1/2 it is the first half of the whole
edge's grid step for step.

Gates.  Two gates guard every integration, and NaN fails both:

* Step halving (h versus h/2).  d(lambda) and s(1; lambda) on a grid and on
  the grid with every step halved must agree within ``MAGNUS_TOL``, relative
  to max(1, |value|).  The gate starts from the base grid (see above; at
  least one step per knot interval) and halves until they agree, at most
  ``_MAX_HALVINGS`` times; otherwise it raises ``EngineError``.  The error
  of the method grows with the slope of q, and the base grid already
  resolves the common slopes, so one comparison usually settles it: a
  ladder from a coarse grid made the cost of a spectrum jump 2x or 4x from
  one potential to the next.  A potential remembers the grid its gate
  picked and the lambda range the gate has checked (``MagnusState``).  A
  later call inside that range reuses the grid without a gate.  A call
  outside it runs the gate on its own lambdas, starting from that grid, and
  widens the range.  The Dirichlet scan gates its whole scan grid, so the
  grid is picked once per potential and range, and the root refinements
  that follow reuse it.  The potential also keeps its widest scan's zeros,
  with the entry of N each one belongs to (``MagnusState.scan``), and a
  later scan to a lambda at or below that scan's top, on the same grid, is
  cut from them without integrating: its scan points are a prefix of the
  recorded scan's, so it has the same brackets and refines them to the same
  bits.
  ``MagnusState`` is the one record of how a potential was integrated
  (grid, step count, worst deviation, monodromies evaluated, the scan):
  the CLI's ``trace.hill`` manifest block reads it from the run's
  potential.
* Wronskian: |det W - 1| <= ``WRONSKIAN_TOL`` + ``WRONSKIAN_ROUNDING`` *
  (|c s'| + |c' s|) at every lambda.  Every step map is exactly SL(2), so
  det N, and det W = (det N)^2 with it, drifts from 1 only by rounding;
  once solutions grow (far below the top of a tall potential) the two
  terms of det W = c s' - c' s far exceed 1, and their own rounding
  (100-300 ulps of them, measured on 1024-8192 steps) far exceeds
  ``WRONSKIAN_TOL``.  The second term admits that rounding and no more:
  where the terms stay O(1) the gate is ``WRONSKIAN_TOL``.

Batch API.  ``integrate_monodromy`` (with ``discriminant``) takes lambda,
and ``invert_discriminant`` takes eta and the band, as scalars or 1-D
arrays; a scalar call is a batch of one and gives floats.  A lambda gets
the same bits alone as inside a batch of the same grid.  Lambdas are
integrated in chunks of up to ``_LANES`` (64) and the half edge's steps in
blocks of ``_BLOCK`` (128), two blocks on the base grid.  Each (steps,
lanes) plane of step-map entries holds at most ``_PLANE`` floats (64 KiB),
so a pass's largest array, the four entry planes of its step maps, takes
256 KiB and its temporaries peak near 650 KiB.  That is under the mmap and
trim thresholds that glibc raises once a process frees a larger mapped
block (an 800 KB array, say); such a process serves the temporaries from
its heap instead of mapping and page-faulting them afresh.  At glibc's
default thresholds they can still fault (a 391-lambda call on the base
grid about 1 150 times).  One pass stacks as many whole blocks of a chunk
as fit in one (2, 2, blocks, steps, lanes) array: up to 64 blocks for one
lambda, one block for 33 to 64.  Each block's maps are multiplied pairwise
as 2x2 blocks, one broadcast product per level of the tree, and the block
products then into the running product in step order; a trailing partial
block runs alone.  The association does not depend on the chunk, and every
operation is elementwise over the lanes, so the chunking moves no bit; nor
does the reflection, elementwise on the half-edge product.
Each step map takes cos/sin only where it oscillates and cosh/sinh only
where it grows.  Each potential builds each grid once and keeps it
read-only on its ``MagnusState``.  ``integrate_monodromy`` returns N next
to W(1), and every Hill search reads N from it.  For a non-zero potential
each scan is one batched call, and the sign changes of all four entries of
N are refined together by ``refine.brent_roots``, bit for bit as scipy's
brentq would refine each one; so are all inversions of a spectrum, in one
more call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EngineError, InputError
from .refine import brent_roots

WRONSKIAN_TOL = 1e-8          # |det W - 1| gate on every integration,
WRONSKIAN_ROUNDING = 1e-12    # plus this share of |c s'| + |c' s|: ~4500
                              # ulps of the terms det W is computed from
MAGNUS_TOL = 1e-10            # step-halving gate on d and s(1), relative to
                              # max(1, |value|)
EVENNESS_TOL = 1e-10          # |q(x) - q(1-x)| bound at construction,
                              # relative to max(1, max |q|)
_SMALL_LAMBDA = 1e-8          # switch to series solutions near lambda = 0
_BASE_STEPS = 512             # Magnus steps per unit length of the coarsest
                              # grid (256 on the half edge): up to lambda ~ 300
                              # and slopes |q'| ~ 25 the gate passes at its
                              # first comparison
_MAX_HALVINGS = 5             # finest grid the halving gate compares: 32x
_BLOCK = 128                  # Magnus steps multiplied together per block
_PLANE = 8192                 # float64 entries (64 KiB) of each (steps, lanes)
                              # entry plane; a pass's step maps take four
_LANES = _PLANE // _BLOCK     # lambdas per chunk: one block fills a plane
_GAUSS = math.sqrt(3.0) / 6.0          # Gauss nodes at 1/2 -+ this, per step


# ============================================================
#  Potential specification
# ============================================================

@dataclass
class MagnusState:
    """What the step-halving gate picked for one potential, and the work done:
    the one record of how a potential was integrated.

    ``halvings`` selects the grid (the base grid halved that many times).
    The gate checked it on lambdas spanning [lam_lo, lam_hi], an empty range
    before the first gate; ``deviation`` is the worst h/h2 deviation a
    passing gate saw.  ``evaluations`` counts the monodromies delivered, one
    per lambda, for the zero potential too.  ``grids`` holds each grid the
    potential was integrated on, by ``halvings``: the read-only
    (h, sigma, hq) step arrays of ``_magnus_grid``, built once per potential
    and grid.  ``scan`` records the widest Dirichlet scan on the gated grid,
    as (halvings, lam_max, zeros, entries): the sorted zeros of the entries
    of N that it found, and the index of each one's entry in (c, c', s, s'),
    or None before the first scan.  ``dirichlet_spectrum`` answers a call on
    that grid with a lam_max at or below the record's from it, integrating
    nothing.
    """

    halvings: int = 0
    lam_lo: float = math.inf
    lam_hi: float = -math.inf
    deviation: float = 0.0
    evaluations: int = 0
    grids: dict = field(default_factory=dict, repr=False, compare=False)
    scan: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def steps(self) -> int:
        """The step count of the gated grid, 0 before the first gate."""
        if not self.lam_lo <= self.lam_hi:
            return 0
        return len(self.grids[self.halvings][0])


@dataclass(frozen=True)
class PotentialSpec:
    """Edge potential: identically zero, sampled two-column data, or a callable."""

    kind: str                                  # "zero" | "sampled" | "closure"
    x: np.ndarray | None = None                # sampled abscissae (increasing)
    values: np.ndarray | None = None           # sampled q values
    func: object | None = field(default=None, compare=False)
    magnus: MagnusState = field(default_factory=MagnusState, init=False,
                                repr=False, compare=False)

    @staticmethod
    def zero() -> "PotentialSpec":
        return PotentialSpec(kind="zero")

    @staticmethod
    def sampled(x, values) -> "PotentialSpec":
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or len(x) < 2:
            raise InputError("sampled potential needs two equal-length 1-d columns")
        for name, column in (("abscissae (first column)", x),
                             ("values (second column)", values)):
            if not np.all(np.isfinite(column)):
                raise InputError(f"sampled potential {name} must be finite")
        if not np.all(np.diff(x) > 0.0):
            raise InputError("sampled potential abscissae must be strictly increasing")
        if x[0] > 1e-12 or x[-1] < 1.0 - 1e-12:
            raise InputError("sampled potential must cover [0, 1]")
        spec = PotentialSpec(kind="sampled", x=x, values=values)
        spec._check_even()
        return spec

    @staticmethod
    def from_file(path) -> "PotentialSpec":
        try:
            with warnings.catch_warnings():
                # an empty file: the row check below reports it, on the one
                # diagnostics channel
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, ndmin=2)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read sampled potential from {path!r}: {exc}")
        if len(data) < 2:
            raise InputError("potential file needs at least two rows of x q")
        if data.shape[1] != 2:
            raise InputError("potential file must have exactly two columns")
        return PotentialSpec.sampled(data[:, 0], data[:, 1])

    @staticmethod
    def closure(func) -> "PotentialSpec":
        if not callable(func):
            raise InputError("closure potential must be callable")
        spec = PotentialSpec(kind="closure", func=func)
        spec._check_even()
        return spec

    def _check_even(self) -> None:
        """Reject q unless |q(x) - q(1 - x)| <= ``EVENNESS_TOL`` max(1, max |q|)
        on 1001 probes and, for a sampled q, at every knot x and its mirror
        1 - x.  A sampled q(x) and q(1 - x) are piecewise linear with breaks
        only at those points, so for them the check is exact; a closure is
        judged on the probes alone.  The integrator relies on evenness: it
        integrates only [0, 1/2] and reflects."""
        probe = np.linspace(0.0, 1.0, 1001)
        if self.kind == "sampled":
            probe = np.concatenate([probe, self.x, 1.0 - self.x])
        q = self(probe)
        dev = float(np.max(np.abs(q - self(1.0 - probe))))
        # relative to the potential's size: interpolating q(1 - x) rounds
        # at the scale of max |q|
        if not dev <= EVENNESS_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise InputError(
                f"potential is not even about x = 1/2 (max |q(x) - q(1-x)| = {dev:g})"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "sampled":
            return np.interp(x, self.x, self.values)
        if self.kind == "closure":
            return np.asarray(self.func(x), dtype=float)
        raise InputError(f"unknown potential kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


# ============================================================
#  Monodromy
# ============================================================

@dataclass(frozen=True)
class Monodromy:
    """Endpoint data of the cosine/sine solutions at one energy or a batch:
    W(1) and, as ``half_edge``, the half-edge map N = W(1/2) as its entries
    (c, c', s, s')."""

    lam: float | np.ndarray
    c1: float | np.ndarray
    c1_prime: float | np.ndarray
    s1: float | np.ndarray
    s1_prime: float | np.ndarray
    half_edge: tuple

    @property
    def det(self):
        return self.c1 * self.s1_prime - self.c1_prime * self.s1

    @property
    def discriminant(self):
        return self.c1 + self.s1_prime


def _zero_potential_monodromy(lam: np.ndarray):
    """(c, c', s, s') of -y'' on the unit edge.  Each branch runs on its
    lambdas only, so that no branch overflows on lambdas it does not serve,
    and only when it has any."""
    c, cp, s = np.empty_like(lam), np.empty_like(lam), np.empty_like(lam)
    pos, neg = lam > _SMALL_LAMBDA, lam < -_SMALL_LAMBDA
    if pos.any():
        w = np.sqrt(lam[pos])
        c[pos], cp[pos], s[pos] = np.cos(w), -w * np.sin(w), np.sin(w) / w
    if neg.any():
        w = np.sqrt(-lam[neg])
        c[neg], cp[neg], s[neg] = np.cosh(w), w * np.sinh(w), np.sinh(w) / w
    mid = ~(pos | neg)
    if mid.any():
        l = lam[mid]
        c[mid] = 1.0 - l / 2.0 + l * l / 24.0
        cp[mid] = -l * (1.0 - l / 6.0 + l * l / 120.0)
        s[mid] = 1.0 - l / 6.0 + l * l / 120.0
    return c, cp, s, c


def _grid_pieces(pot: PotentialSpec):
    """Edges of the linear pieces on the half edge [0, 1/2] (the knot
    intervals there for a sampled potential, [0, 1/2] otherwise) and the base
    grid's steps on each."""
    if pot.kind == "sampled":
        inner = pot.x[(pot.x > 0.0) & (pot.x < 0.5)]
        edges = np.concatenate([[0.0], inner, [0.5]])
    else:
        edges = np.array([0.0, 0.5])
    per_piece = np.maximum(1, np.ceil(np.diff(edges) * _BASE_STEPS)).astype(int)
    return edges, per_piece


def _magnus_grid(pot: PotentialSpec, halvings: int):
    """Per step of the grid ``halvings`` times finer than the base grid: the
    width h, the commutator term sqrt(3)/12 h^2 (q1 - q2) and h (q1 + q2)/2,
    with q1, q2 the potential at the step's Gauss nodes."""
    edges, per_piece = _grid_pieces(pot)
    per_piece = per_piece << halvings
    h = np.repeat(np.diff(edges) / per_piece, per_piece)
    first = np.repeat(np.cumsum(per_piece) - per_piece, per_piece)
    left = np.repeat(edges[:-1], per_piece) + (np.arange(len(h)) - first) * h
    q1 = pot(left + (0.5 - _GAUSS) * h)
    q2 = pot(left + (0.5 + _GAUSS) * h)
    grid = (h, (math.sqrt(3.0) / 12.0) * h * h * (q1 - q2), 0.5 * h * (q1 + q2))
    for a in grid:
        a.flags.writeable = False
    return grid


def _step_maps(h, sigma, hq, lam):
    """Exact exponentials of the Magnus generators [[sigma, h], [h k, -sigma]]
    with k = (q1 + q2)/2 - lambda, as one (2, 2, steps, lambdas) array of
    their entries.  Each temporary but the boolean masks lives in it or in
    one more plane."""
    h, sigma, hq = h[:, None], sigma[:, None], hq[:, None]
    m = np.empty((2, 2, len(h), len(lam)))
    (s11, s12), (s21, s22) = m
    hk = np.subtract(hq, np.multiply(h, lam, out=s21), out=s21)
    delta = np.multiply(h, hk, out=s11)
    delta += sigma * sigma                  # the generator squared is delta I
    osc = delta < 0.0
    r = np.sqrt(np.abs(delta, out=s12), out=s12)
    # cos/sin where delta < 0, cosh/sinh elsewhere, so that neither is taken
    # (nor overflows) on the other branch's entries; sine is sin(r)/r or
    # sinh(r)/r, and 1 where r is 0 or NaN (r > 0 wherever delta < 0)
    grows = r > 0.0
    cosine = np.cos(r, out=s22, where=osc)
    np.cosh(r, out=cosine, where=~osc)
    sine = np.sin(r, out=np.ones_like(r), where=osc)
    np.sinh(r, out=sine, where=grows ^ osc)
    np.divide(sine, r, out=sine, where=grows)
    np.multiply(sine, h, out=s12)
    np.multiply(sine, hk, out=s21)
    shear = np.multiply(sine, sigma, out=sine)
    np.add(cosine, shear, out=s11)
    np.subtract(cosine, shear, out=s22)
    return m


def _magnus(pot: PotentialSpec, halvings: int, lam: np.ndarray):
    """(c, c', s, s') at x = 1/2 for every lambda on one grid: the product of
    the half edge's step maps."""
    grids = pot.magnus.grids
    if halvings not in grids:
        grids[halvings] = _magnus_grid(pot, halvings)
    h, sigma, hq = grids[halvings]
    full = len(h) // _BLOCK * _BLOCK       # steps in whole blocks
    out = np.empty((2, 2, len(lam)))
    for start in range(0, len(lam), _LANES):
        chunk = lam[start:start + _LANES]
        lanes = len(chunk)
        # whole blocks per pass, then the trailing partial block alone
        span = max(1, _PLANE // (_BLOCK * lanes)) * _BLOCK
        cuts = sorted({*range(0, full, span), full, len(h)})
        # [[c, s], [c', s']] at x = 0
        y = np.repeat(np.eye(2)[:, :, None], lanes, axis=2)
        for j, stop in zip(cuts, cuts[1:]):
            # (2, 2, blocks, steps, lanes): entry (i, j) of every step map
            m = _step_maps(h[j:stop], sigma[j:stop], hq[j:stop], chunk)
            m = m.reshape(2, 2, -1, min(stop - j, _BLOCK), lanes)
            while m.shape[3] > 1:           # later steps multiply on the left
                even = m.shape[3] // 2 * 2
                a, b = m[..., 1:even:2, :], m[..., 0:even:2, :]
                p = a[:, 0, None] * b[0]
                p += a[:, 1, None] * b[1]
                m = p if even == m.shape[3] else np.concatenate(
                    [p, m[..., even:, :]], axis=3)
            for block in np.moveaxis(m[..., 0, :], 2, 0):   # in step order
                y = block[:, 0, None] * y[0] + block[:, 1, None] * y[1]
        out[:, :, start:start + lanes] = y
    (c, s), (cp, sp) = out
    return c, cp, s, sp


def _reflect(c, cp, s, sp):
    """(c(1), c'(1), s(1), s'(1)) from the half-edge map N = W(1/2) =
    [[c, s], [c', s']] of an even potential (see the module docstring)."""
    c1 = c * sp + s * cp
    return c1, 2.0 * c * cp, 2.0 * s * sp, c1


def _halving_deviation(coarse, fine) -> float:
    """Worst change of d and s(1) from a grid to its halving, relative to
    max(1, |value|); NaN when any value is NaN."""
    d0, d1 = coarse[0] + coarse[3], fine[0] + fine[3]
    s0, s1 = coarse[2], fine[2]
    return float(np.max([np.max(np.abs(d0 - d1) / np.maximum(1.0, np.abs(d1))),
                         np.max(np.abs(s0 - s1) / np.maximum(1.0, np.abs(s1)))]))


def _magnus_monodromy(pot: PotentialSpec, lam: np.ndarray):
    """Half-edge map N on the potential's gated grid (see the module
    docstring); runs the step-halving gate when lam leaves the checked range."""
    state = pot.magnus
    if not len(lam):
        return lam, lam, lam, lam
    if state.lam_lo <= lam.min() and lam.max() <= state.lam_hi:
        return _magnus(pot, state.halvings, lam)
    halvings = state.halvings
    coarse = _magnus(pot, halvings, lam)
    while True:
        fine = _magnus(pot, halvings + 1, lam)
        deviation = _halving_deviation(_reflect(*coarse), _reflect(*fine))
        if deviation <= MAGNUS_TOL:
            break
        halvings += 1
        if halvings == _MAX_HALVINGS or not math.isfinite(deviation):
            steps = len(state.grids[halvings][0])
            raise EngineError(
                f"Magnus step-halving gate failed: d and s(1) move by "
                f"{deviation:g} (gate {MAGNUS_TOL:g}) from {steps // 2} to "
                f"{steps} steps, lambda in [{lam.min():g}, {lam.max():g}]")
        coarse = fine
    state.halvings = halvings
    state.lam_lo = min(state.lam_lo, float(lam.min()))
    state.lam_hi = max(state.lam_hi, float(lam.max()))
    state.deviation = max(state.deviation, deviation)
    return coarse


def _deliver(pot: PotentialSpec, lam: np.ndarray, c, cp, s, sp) -> None:
    """Count the monodromies (c(1), c'(1), s(1), s'(1)) at lam as evaluated
    and hold each to the Wronskian gate (see the module docstring)."""
    pot.magnus.evaluations += len(lam)
    drift = np.abs(c * sp - cp * s - 1.0)
    gate = WRONSKIAN_TOL + WRONSKIAN_ROUNDING * (np.abs(c * sp) + np.abs(cp * s))
    bad = ~(drift <= gate)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise EngineError(f"Wronskian drifted from 1 by {drift[k]:g} "
                          f"(gate {gate[k]:g}) at lambda={lam[k]}")


def integrate_monodromy(pot: PotentialSpec, lam) -> Monodromy:
    """Monodromy matrix entries and the half-edge map at energy lambda, a
    scalar or a 1-D batch (closed form for q = 0, gated Magnus integration
    otherwise)."""
    lam = np.asarray(lam, dtype=float)
    lams = lam.reshape(-1)
    if pot.is_zero:
        # the unit edge's forms at lambda/4 are those of [0, 1/2] at lambda,
        # with c' twice and s half as large
        w = _zero_potential_monodromy(lams)
        c, cp, s, _ = _zero_potential_monodromy(lams / 4.0)
        n = (c, 2.0 * cp, s / 2.0, c)
    else:
        n = _magnus_monodromy(pot, lams)
        w = _reflect(*n)
    _deliver(pot, lams, *w)
    if lam.ndim == 0:
        return Monodromy(float(lams[0]), *(v[0] for v in w), tuple(v[0] for v in n))
    return Monodromy(lams, *w, n)


def discriminant(pot: PotentialSpec, lam):
    """d(lambda) = c(1) + s'(1)."""
    return integrate_monodromy(pot, lam).discriminant


# ============================================================
#  Dirichlet spectrum (point part)
# ============================================================

def _q_range(pot: PotentialSpec) -> tuple[float, float]:
    """min q and max q.  A sampled q is piecewise linear, so both are knot
    values; a closure's are taken on 257 probes."""
    if pot.is_zero:
        return 0.0, 0.0
    q = pot.values if pot.kind == "sampled" else pot(np.linspace(0.0, 1.0, 257))
    return float(np.min(q)), float(np.max(q))


def dirichlet_spectrum(pot: PotentialSpec, lam_max: float,
                       tol: float = 1e-10) -> np.ndarray:
    """All zeros of s(1; lambda) up to lam_max + tol, sorted.  For the zero
    potential they are (k pi)^2, k >= 1, in closed form.

    Otherwise s(1) = 2 s s' on the half-edge map N = [[c, s], [c', s']], and
    its zeros are those of s and of s'.  One batched scan evaluates all four
    entries of N, and every sign change of every entry is refined to 1e-12
    in one ``refine.brent_roots`` call: the zeros of c and c' are the other
    band edges (see ``invert_discriminant``).  The potential records them
    all (``MagnusState.scan``).  A scan no wider than the recorded one, on
    the same grid, is cut from that record bit for bit as a fresh scan would
    find it; a wider one scans afresh and replaces the record.

    These are the edge-Dirichlet eigenvalues; on the graph they carry flat
    bands (pure-point spectrum) and are excluded from the band inversion.
    """
    if not lam_max < math.inf:
        raise InputError(f"lam_max={lam_max!r}: the Dirichlet scan needs a "
                         "finite top")
    if pot.is_zero:
        # s(1) = sin(sqrt(lambda)) / sqrt(lambda); one k past the float
        # quotient, so that lam_max = (k pi)^2 itself is listed
        last = int(math.sqrt(max(lam_max + tol, 0.0)) / math.pi) + 1
        nu = np.square(np.pi * np.arange(1, last + 1))
        return nu[nu <= lam_max + tol]
    state = pot.magnus
    record = state.scan
    if record is None or record[0] != state.halvings or lam_max > record[1]:
        zeros, entries = _scan_zeros(pot, lam_max)
        record = state.scan = (state.halvings, lam_max, zeros, entries)
    _, _, zeros, entries = record
    nu = zeros[entries >= 2]
    return nu[nu <= lam_max + tol]


def _scan_zeros(pot: PotentialSpec, lam_max: float):
    """The zeros of the entries of N that one scan to lam_max finds, sorted,
    and the index of each one's entry in (c, c', s, s')."""
    # The scan starts just below min q, where nothing lies: every periodic,
    # antiperiodic and Dirichlet eigenvalue lies above min q (Rayleigh
    # quotient), and further down solutions only grow like
    # exp(sqrt(q - lambda)).
    lam_lo = _q_range(pot)[0] - 1.0
    if lam_max <= lam_lo:
        return np.array([]), np.array([], dtype=int)
    # dense scan: linear below 1, uniform in sqrt(lambda) above.  The points
    # do not depend on lam_max, only where they stop: a narrower scan's
    # points are a prefix of a wider one's.
    w_hi = np.sqrt(max(lam_max, 0.0))
    squares = np.square(np.arange(1.0, w_hi + 0.05, 0.05))
    if lam_lo < 1.0:
        head = np.linspace(lam_lo, 1.0, 64, endpoint=False)
    else:
        head, squares = np.array([lam_lo]), squares[squares > lam_lo]
    lams = np.concatenate([head, squares])
    # through the first point at or past lam_max, so that every root up to
    # lam_max lies in a scanned interval (above 100 the points are more
    # than 1 apart)
    top = lam_max + 1.0
    past = lams[lams >= lam_max]
    if len(past):
        top = max(top, past[0])
    lams = lams[lams <= top]
    vals = np.stack(integrate_monodromy(pot, lams).half_edge)
    exact = vals[:, :-1] == 0.0
    # one lane per sign change of an entry, entry by entry
    entry, k = np.nonzero(~exact & (vals[:, :-1] * vals[:, 1:] < 0.0))

    def f(lam, lanes):
        return np.stack(integrate_monodromy(pot, lam).half_edge)[
            entry[lanes], np.arange(len(lam))]

    refined, _ = brent_roots(f, lams[k], lams[k + 1], xtol=1e-12)
    on_grid, j = np.nonzero(exact)
    zeros = np.concatenate([lams[j], refined])
    order = np.argsort(zeros, kind="stable")
    return zeros[order], np.concatenate([on_grid, entry])[order]


# ============================================================
#  Band inversion
# ============================================================

@dataclass(frozen=True)
class LambdaInterval:
    """One lambda interval of absolutely continuous spectrum."""

    eta_band: int       # index of the eta interval that produced it
    hill_band: int      # 1-based Hill band index
    lo: float
    hi: float


@dataclass(frozen=True)
class SpectrumResult:
    """Band-inversion output: ac intervals, pp points and diagnostics.  What
    the integration cost stays on the potential's ``MagnusState``."""

    intervals: tuple[LambdaInterval, ...]
    dirichlet: np.ndarray
    diagnostics: tuple[str, ...]


def _band_edges(pot: PotentialSpec, n_bands: int) -> np.ndarray:
    """The band edges e_0 <= e_1 <= ... <= e_{2n} of bands 1 to n: band k is
    [e_{2k-2}, e_{2k-1}], and gap n, which holds nu_n, ends at e_{2n}.

    They are the sorted zeros of the entries of N, from one Dirichlet scan
    (for the zero potential, 0 and each (k pi)^2 twice: every gap is closed
    at its Dirichlet point).  The scan's top, (n + 1/2)^2 pi^2 + max(0,
    max q), lies past e_{2n} and nu_n: the periodic and antiperiodic
    eigenvalues of q lie at most max q above those of the zero potential,
    where e_{2n} = nu_n = (n pi)^2 (min-max comparison)."""
    top = (n_bands + 0.5) ** 2 * np.pi ** 2 + max(0.0, _q_range(pot)[1])
    nu = dirichlet_spectrum(pot, top)
    edges = (np.concatenate([[0.0], np.repeat(nu, 2)]) if pot.is_zero
             else pot.magnus.scan[2])
    if len(edges) <= 2 * n_bands:
        raise EngineError(f"found {len(edges)} band edges below lambda = "
                          f"{top:g}, where {n_bands} bands have "
                          f"{2 * n_bands + 1}")
    return edges[:2 * n_bands + 1]


def invert_discriminant(pot: PotentialSpec, eta, hill_band):
    """The unique lambda in the given Hill band with d(lambda)/2 = eta.

    ``eta`` and ``hill_band`` broadcast to a batch whose roots are refined
    together; a scalar pair gives a float.  The zero potential takes its
    closed form (see the module docstring) after the same checks of eta and
    the band.

    Otherwise the band edges come from one Dirichlet scan of the half-edge
    map N = [[c, s], [c', s']] (``_band_edges``, served from the
    potential's scan record).  For an even potential with det N = 1,

        d/2 - 1 = 2 s c',   d/2 + 1 = 2 c s'

    (Magnus & Winkler 1966; Eastham 1973), so every band edge is a simple
    zero of one entry of N, and the sorted zeros of all four are the edges
    e_0 <= e_1 <= ....  Band k is [e_{2k-2}, e_{2k-1}]; d/2 falls on it from
    1 to -1 for odd k and rises for even k, and eta = +-1 returns its edge.
    An eta in (-1, 1) is bracketed by its band's two edges, on which
    d/2 - eta = 2 s c' + (1 - eta) (eta >= 0) or 2 c s' - (1 + eta)
    (eta < 0) changes sign once.  At the edge where d/2 = 1 (eta >= 0) or
    -1 (eta < 0), the product vanishes by definition, and f takes its exact
    value there, the offset: computed there, the product rounds to ~1e-14
    of either sign, which swamps an eta within rounding of +-1.  One
    ``brent_roots`` call refines every such eta; a bracket without a sign
    change raises ``EngineError``.
    """
    etas, bands = np.broadcast_arrays(np.asarray(eta, dtype=float),
                                      np.asarray(hill_band))
    scalar = etas.ndim == 0
    etas, bands = etas.reshape(-1), bands.reshape(-1)
    outside = ~((-1.0 <= etas) & (etas <= 1.0))
    if outside.any():
        raise InputError(f"eta={float(etas[outside][0])!r} outside [-1, 1] "
                         "has no band preimage")
    wrong = (bands < 1 if bands.dtype.kind in "iu"
             else np.ones(bands.shape, dtype=bool))
    if wrong.any():
        raise InputError(f"hill_band={bands[wrong][0].item()!r} is not a Hill "
                         "band: bands are integers from 1")
    if not etas.size:
        return np.empty(0)
    if pot.is_zero:
        # d = 2 cos sqrt(lambda): band k is sqrt(lambda) in [(k - 1) pi, k pi],
        # where cos runs down for odd k and up for even k
        w = np.arccos(etas)
        lams = np.square(np.where(bands % 2 == 1, (bands - 1) * np.pi + w,
                                  bands * np.pi - w))
        return float(lams[0]) if scalar else lams
    edges = _band_edges(pot, int(bands.max()))
    low = 2 * bands - 2                     # band k is edges[low], edges[low + 1]
    # the edge where d/2 = 1 (eta >= 0) or -1 (eta < 0)
    lams = edges[low + ((bands % 2 == 0) == (etas >= 0.0))]
    inner = np.flatnonzero(np.abs(etas) < 1.0)
    pos = etas[inner] >= 0.0
    # lane l refines f = 2 N[first] N[second] + offset, N = (c, c', s, s')
    first, second = np.where(pos, 2, 0), np.where(pos, 1, 3)
    offset = np.where(pos, 1.0, -1.0) - etas[inner]
    at_edge = lams[inner]
    lo, hi = edges[low[inner]], edges[low[inner] + 1]

    def f(lam, lanes):
        n = np.stack(integrate_monodromy(pot, lam).half_edge)
        cols = np.arange(len(lam))
        out = 2.0 * n[first[lanes], cols] * n[second[lanes], cols] + offset[lanes]
        return np.where(lam == at_edge[lanes], offset[lanes], out)

    try:
        lams[inner], _ = brent_roots(f, lo, hi, xtol=1e-12)
    except ValueError:
        lanes = np.arange(len(lo))
        k = np.flatnonzero(np.sign(f(lo, lanes)) * np.sign(f(hi, lanes)) > 0.0)[0]
        raise EngineError(f"inversion bracket [{lo[k]:g}, {hi[k]:g}] failed for "
                          f"eta={etas[inner][k]} in band {bands[inner][k]}: "
                          "no sign change") from None
    return float(lams[0]) if scalar else lams


def bands_from_root_surface(pot: PotentialSpec, eta_intervals,
                            n_bands: int = 4) -> SpectrumResult:
    """Map eta intervals through the discriminant into lambda intervals.

    ``eta_intervals`` is a sequence of (lo, hi) pairs (dispersion-branch value
    ranges).  Ranges outside [-1, 1] are clipped; entirely inadmissible ranges
    are skipped.  Returns the ac intervals per Hill band, the Dirichlet points
    nu_1 ... nu_n (point spectrum), and diagnostics, which name every clip
    and skip and are the only report of them.  All interval ends of all
    bands are inverted in one batch.
    """
    diagnostics: list[str] = []
    cleaned: list[tuple[int, float, float]] = []
    for idx, (lo, hi) in enumerate(eta_intervals):
        if lo > hi:
            lo, hi = hi, lo
        if lo > 1.0 or hi < -1.0:
            msg = (f"eta interval {idx} = [{lo:g}, {hi:g}] is entirely "
                   "inadmissible (|eta| > 1); skipped")
            diagnostics.append(msg)
            continue
        clipped_lo, clipped_hi = max(lo, -1.0), min(hi, 1.0)
        if clipped_lo != lo or clipped_hi != hi:
            msg = (f"eta interval {idx} clipped to [{clipped_lo:g}, "
                   f"{clipped_hi:g}] (inadmissible part dropped)")
            diagnostics.append(msg)
        cleaned.append((idx, clipped_lo, clipped_hi))
    if not cleaned:
        diagnostics.append("no admissible eta intervals: empty ac spectrum")
        return SpectrumResult((), np.array([]), tuple(diagnostics))

    ends = [end for _, lo, hi in cleaned for end in (lo, hi)]
    lams = invert_discriminant(
        pot, np.tile(ends, n_bands),
        np.repeat(np.arange(1, n_bands + 1), len(ends)))
    pairs = iter(lams.reshape(-1, 2))
    intervals = []
    for band in range(1, n_bands + 1):
        for idx, _, _ in cleaned:
            la, lb = next(pairs)
            intervals.append(LambdaInterval(idx, band, min(la, lb), max(la, lb)))
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    # nu_1 ... nu_n: gap n, which holds nu_n, ends at the last edge
    points = dirichlet_spectrum(pot, _band_edges(pot, n_bands)[-1])
    return SpectrumResult(tuple(intervals), points, tuple(diagnostics))
