"""Frozen oracle values and independent closed-form reference implementations.

Everything in this module is computed directly from the closed formulas for the
hexagonal quantum-graph dispersion families, with no imports from the package
under test.  The numeric constants below were evaluated once from those formulas
and hard-coded; the tests treat them as the ground truth the engine must hit.

Conventions:
    eta  = d(lambda)/2, the Hill-discriminant half-trace variable
    F    = 1 + exp(i*theta1) + exp(i*theta2), structure function
    B_d  = diagonal slice theta2 = -theta1, where F = 1 + 2*cos(theta1) is real
    T    = 3 + t0^2 (single-coupling bilayer diagonal scale)
    T1   = 3 + t0^2, T2 = 3 + 2*t0^2 (trilayer outer/middle diagonal scales)
"""

from __future__ import annotations

import numpy as np

# ============================================================
#  Universal constants
# ============================================================

SQRT3_OVER_3 = 0.5773502691896257        # monolayer cone slope in eta per radian
MONO_GAP_ALPHA_1_M1 = 2.0 / 3.0          # |alpha_a - alpha_b| / 3 at (1, -1)
DIRAC_THETA1 = 2.0 * np.pi / 3.0         # conical point on the diagonal slice

# n = 4001 diagonal grid: the conical point sits ~0.33h off-grid, which caps the
# numeric minimum-gap excess over 2/3 at this value (must stay below 1e-6).
C1_GRID_EXCESS_N4001 = 2.742e-07

# |F|^2 on the inclusive 1001x1001 grid over [-pi, pi]^2: the maximum 9 sits
# exactly on-grid at (0, 0); the raw grid minimum is bounded away from zero
# because +-(2pi/3, -2pi/3) is off-grid.
FSQ_RAW_GRID_MIN_1001 = 1.3175370514977006e-05

# ============================================================
#  Like-stacked bilayer (single coupling t0 = 0.3)
# ============================================================

AA_T = 3.09

# alpha_a = -1, alpha_b = 1: middle-pair separation minimum, attained at F = 0
AA_GAP_ORIGIN = 0.5889967637540453
# alpha_a = -1, alpha_b = alpha_a + 2*t0^2: band value at the parabolic touch
AA_PARABOLIC_TOUCH_VALUE = 0.29449838187702265
# separation second derivative along the diagonal at that touch: 6/(t0^2*T)
AA_PARABOLIC_SEP_D2 = 6.0 / (0.09 * 3.09)        # 21.57497...
# alpha_a = -1, alpha_b = -0.9: labeled branches cross where
# (alpha_a - alpha_b)^2 + 4F^2 = (2 t0^2)^2   =>   F^2 = 0.0056
AA_CROSSING_F = 0.07483314773547883
AA_CONE_SLOPE = np.sqrt(3.0) / 3.09              # 0.56053...

# Branch images over the zone for alpha_a = alpha_b = -1 (all admissibility
# bookkeeping happens in eta): value ranges of the four labeled branches.
AA_IMAGES_ALPHA_M1 = {
    ("s+", "u+"): (0.3527508090614887, 1.3236245954692556),
    ("s+", "u-"): (-0.6181229773462783, 0.3527508090614887),
    ("s-", "u+"): (0.29449838187702265, 1.2653721682847898),
    ("s-", "u-"): (-0.6763754045307443, 0.29449838187702265),
}

# ============================================================
#  Anti-aligned bilayer (AA'), t0 = 0.3
# ============================================================

AAP_CONE_F = 0.09                                 # cones sit at F = +-t0^2
AAP_THETA_D_PLUS = 2.0431685409237517             # arccos((t0^2 - 1)/2)
AAP_THETA_D_MINUS = 2.147185441531094             # arccos((-t0^2 - 1)/2)
# alpha_a = -1, alpha_b = 1: global separation minimum and the value at F = 0
AAP_GAP_GLOBAL = 0.6472491909385114               # 2/T, attained at F = +-t0^2
AAP_SEP_AT_ORIGIN = 0.6498652632995852            # 2*sqrt(1 + t0^4)/T

# ============================================================
#  Hetero bilayer gap formula
#  g(alpha_a, t0) = sqrt(2)*sqrt(2 t0^4 + a^2 - sqrt(4 a^2 t0^4 + a^4))/(3 + t0^2)
# ============================================================

# exact formula value; the printed reference 0.005097 is not the formula's
# value: it comes from sqrt(1.0324) mis-evaluated as 1.016076 (true 1.0160709)
HETERO_GAP_M1_03 = 0.005200926754189482
HETERO_GAP_M1_1 = 0.3090169943749474             # sqrt(2)/4*sqrt(3 - sqrt(5))

# ============================================================
#  Trilayers, t0 = 0.3  (T1 = 3.09, T2 = 3.18)
# ============================================================

TRI_T1 = 3.09
TRI_T2 = 3.18

# hBN-G-hBN, alpha_B = -alpha_N.  Adjacent-band separations at the symmetric
# diagonal loci F = 3 (zone center), F = 0 (conical locus), F = -1 (zone edge).
BNGBN_SEPS = {
    -1.0: {
        3.0: (0.016646371321840991, 0.096597886147236522, 1.8535858847724396,
              0.096597886147236522, 0.016646371321840991),
        0.0: (0.0050165765579243682, 0.31860801891133128, 0.010033153115848872,
              0.31860801891133128, 0.0050165765579243682),
        -1.0: (0.0095321757764358916, 0.15210977419628435, 0.61112903566768706,
               0.15210977419628435, 0.0095321757764358916),
    },
    -0.1: {
        3.0: (0.028938677628938314, 0.056954983407397464, 1.828916055166258,
              0.056954983407397464, 0.028938677628938314),
        0.0: (0.027527874501756096, 0.0048345850451694747, 0.055055749003512192,
              0.0048345850451694747, 0.027527874501756096),
        -1.0: (0.035528434467681669, 0.046288719803993295, 0.55789994687232991,
               0.046288719803993295, 0.035528434467681669),
    },
    -0.01: {
        3.0: (0.029124330066739978, 0.056607278994424526, 1.8285438022832354,
              0.056607278994424526, 0.029124330066739978),
        0.0: (0.0032362459546926223, 0.035781476346854676, 0.0064724919093851136,
              0.035781476346854676, 0.0032362459546926223),
        -1.0: (0.036273837457870051, 0.045449073646823157, 0.55638340529539088,
               0.045449073646823157, 0.036273837457870051),
    },
}
BNGBN_ORIGIN_GAP_M1 = 0.010033153115848872       # middle-pair separation, F = 0
# global minimum over all pairs and theta; attained by pairs 1 and 3 exactly
# at F = 0 (the separation grows like +4.1 F^2 away from it)
BNGBN_SMALLEST_GAP_M01 = 0.0048345850451694747
BNGBN_QUOTED_ORIGIN_GAP_M1 = 0.074               # quoted target (not attained)

# G-hBN-G, alpha_B = -alpha_N = 1: the middle-pair separation evaluated at the
# characteristic locus F^2 = 2 t0^4 (where the alpha = 0 structure's secondary
# touches sit).  Quoted figure value: 0.07684.
GBNG_MIDGAP_AT_LOCUS = 0.08038196359403554
GBNG_LOCUS_F = 0.12727922061357855               # sqrt(2) * t0^2

# ============================================================
#  Two-parameter bilayer (t_a, t_b) = (0.5, 0.3)
# ============================================================

TWOP_TA = 3.25                                   # 3 + t_a^2
TWOP_TB = 3.09                                   # 3 + t_b^2
TWOP_CONE_SLOPE = 0.5465623439441968             # sqrt(3)/sqrt(Ta*Tb)
# sorted eta roots at F = 0
TWOP_CONE_ROOTS_F0 = (-0.15384615384615385, -0.05825242718446603, 0.0, 0.0)
TWOP_PARAB_ROOTS_F0 = (-0.05825242718446603, 0.0, 0.0, 0.15384615384615385)

# ============================================================
#  Magnetic lattice, q = 2 (flux pi per hexagon)
#  G(theta) = 3 + cos(theta1) + cos(2 theta2) - cos(theta1 - 2 theta2)
#  roots: eta = (-(aN + aB) +- sqrt((aN - aB)^2 + 12 -+ 4 sqrt(2) sqrt(G)))/6
# ============================================================

MAG_G_MAX = 4.5                                   # at (pi/3, -pi/6)
MAG_G_MAX_THETA = (np.pi / 3.0, -np.pi / 6.0)
MAG_G_MIN_CLOSED = 3.0 - np.sqrt(2.0)             # closure value at (pi/2, 3pi/8)
MAG_CONE_VALUE = 1.0 / 3.0                        # double root for aN = aB = -1
MAG_GAP_BASELINE = 2.0 / 3.0                      # global middle gap, aN=-aB=-1
MAG_GAP_ON_G4_LOCUS = 0.7215948001949292          # (2/3)*sqrt(4 - 2 sqrt 2)
MAG_OUTER_SEP_MIN = 0.3048936528144243            # adjacent outer pair, at G min

# ============================================================
#  Hill spectrum (zero potential)
# ============================================================

# first lambda-intervals of the zero-potential monolayer (alpha = 0):
# eta-bands [0,1] and [-1,0] pulled back through d/2 = cos(sqrt(lambda))
HILL_LAMBDA_INTERVALS = (
    (0.0, (np.pi / 2.0) ** 2),
    ((np.pi / 2.0) ** 2, np.pi ** 2),
    (np.pi ** 2, (3.0 * np.pi / 2.0) ** 2),
    ((3.0 * np.pi / 2.0) ** 2, (2.0 * np.pi) ** 2),
)

# ============================================================
#  Independent closed-form reference implementations
#  (direct transcriptions of the root formulas; used as oracles)
# ============================================================


def ref_structure_function(theta1, theta2):
    """F = 1 + e^{i theta1} + e^{i theta2}."""
    return 1.0 + np.exp(1j * np.asarray(theta1)) + np.exp(1j * np.asarray(theta2))


def ref_monolayer_roots(alpha_a, alpha_b, fsq):
    """Sorted eta roots of 9 eta^2 + 3(aa+ab) eta + aa*ab - |F|^2."""
    disc = np.sqrt((alpha_a - alpha_b) ** 2 + 4.0 * fsq)
    return np.sort(np.array([(-(alpha_a + alpha_b) - disc) / 6.0,
                             (-(alpha_a + alpha_b) + disc) / 6.0]))


def ref_aa_roots(alpha_a, alpha_b, t0, fsq):
    """Sorted eta roots of the like-stacked bilayer quartic (both factors)."""
    T = 3.0 + t0 * t0
    disc = np.sqrt((alpha_a - alpha_b) ** 2 + 4.0 * fsq)
    vals = [(-(alpha_a + alpha_b) + 2.0 * s * t0 * t0 + u * disc) / (2.0 * T)
            for s in (1.0, -1.0) for u in (1.0, -1.0)]
    return np.sort(np.array(vals))


def ref_aa_factor(alpha_a, alpha_b, t0, fsq, s):
    """Quadratic factor coefficients (ascending) of the like-stacked quartic."""
    T = 3.0 + t0 * t0
    return np.array([
        (alpha_a - s * t0 * t0) * (alpha_b - s * t0 * t0) - fsq,
        ((alpha_a - s * t0 * t0) + (alpha_b - s * t0 * t0)) * T,
        T * T,
    ])


def ref_aap_roots(alpha_a, alpha_b, t0, f_complex):
    """Sorted eta roots of the anti-aligned bilayer (factors in |F + s t0^2|^2)."""
    T = 3.0 + t0 * t0
    vals = []
    for s in (1.0, -1.0):
        fsq = abs(f_complex + s * t0 * t0) ** 2
        disc = np.sqrt((alpha_a - alpha_b) ** 2 + 4.0 * fsq)
        vals += [(-(alpha_a + alpha_b) + u * disc) / (2.0 * T) for u in (1.0, -1.0)]
    return np.sort(np.array(vals))


def ref_twoparam_roots(alpha_a, alpha_b, t_a, t_b, fsq):
    """Sorted eta roots of the two-parameter bilayer quartic (both factors)."""
    Ta = 3.0 + t_a * t_a
    Tb = 3.0 + t_b * t_b
    vals = []
    for s in (1.0, -1.0):
        aa = alpha_a - s * t_a * t_a
        ab = alpha_b - s * t_b * t_b
        A = Ta * Tb
        B = aa * Tb + ab * Ta
        C = aa * ab - fsq
        disc = np.sqrt(B * B - 4.0 * A * C)
        vals += [(-B - disc) / (2.0 * A), (-B + disc) / (2.0 * A)]
    return np.sort(np.array(vals))


def ref_hetero_roots(alpha_a, t0, f_real):
    """Sorted eta roots of the hetero bilayer on the diagonal, alpha_b = -alpha_a."""
    T = 3.0 + t0 * t0
    F2 = f_real * f_real
    a2 = alpha_a * alpha_a
    inner = np.sqrt(16.0 * t0 ** 4 * F2 + 4.0 * a2 * t0 ** 4 + a2 * a2)
    vals = []
    for u in (1.0, -1.0):
        r = np.sqrt((2.0 * F2 + 2.0 * t0 ** 4 + a2 + u * inner) / 2.0) / T
        vals += [-r, r]
    return np.sort(np.array(vals))


def ref_hetero_gap(alpha_a, t0):
    """sqrt(2)*sqrt(2 t0^4 + a^2 - sqrt(4 a^2 t0^4 + a^4))/(3 + t0^2)."""
    a2 = alpha_a * alpha_a
    return (np.sqrt(2.0)
            * np.sqrt(2.0 * t0 ** 4 + a2 - np.sqrt(4.0 * a2 * t0 ** 4 + a2 * a2))
            / (3.0 + t0 * t0))


def ref_trilayer_roots(variant, alpha_n, t0, f_real):
    """Sorted eta roots of a mirror-symmetric trilayer on the diagonal.

    variant: "bngbn" (hBN outer layers) or "gbng" (graphene outer layers);
    alpha_B = -alpha_N throughout.
    """
    T1 = 3.0 + t0 * t0
    T2 = 3.0 + 2.0 * t0 * t0
    F2 = f_real * f_real
    a2 = alpha_n * alpha_n
    if variant == "bngbn":
        p2 = np.sort(np.array([-np.sqrt(a2 + F2) / T1, np.sqrt(a2 + F2) / T1]))
        mid = a2 * T2 * T2
    elif variant == "gbng":
        p2 = np.sort(np.array([-abs(f_real) / T1, abs(f_real) / T1]))
        mid = a2 * T1 * T1
    else:
        raise ValueError(variant)
    A = T1 * T1 * T2 * T2
    B = -(F2 * (T1 * T1 + T2 * T2) + mid + 4.0 * t0 ** 4 * T1 * T2)
    C = (F2 - 2.0 * t0 ** 4) ** 2 + a2 * F2
    disc = np.sqrt(B * B - 4.0 * A * C)
    pn = []
    for e2 in ((-B - disc) / (2.0 * A), (-B + disc) / (2.0 * A)):
        root = np.sqrt(e2)
        pn += [-root, root]
    return np.sort(np.concatenate([p2, np.array(pn)]))


def ref_magnetic_g(theta1, theta2):
    """G = 3 + cos(t1) + cos(2 t2) - cos(t1 - 2 t2)."""
    t1 = np.asarray(theta1)
    t2 = np.asarray(theta2)
    return 3.0 + np.cos(t1) + np.cos(2.0 * t2) - np.cos(t1 - 2.0 * t2)


def ref_magnetic_q2_roots(alpha_n, alpha_b, theta1, theta2):
    """Sorted eta roots eta = (-(aN+aB) +- sqrt((aN-aB)^2 + 12 -+ 4 sqrt2 sqrt G))/6."""
    A = alpha_n + alpha_b
    B = (alpha_n - alpha_b) ** 2
    G = ref_magnetic_g(theta1, theta2)
    vals = []
    for inner in (-1.0, 1.0):
        rad = np.sqrt(B + 12.0 + inner * 4.0 * np.sqrt(2.0) * np.sqrt(G))
        vals += [(-A - rad) / 6.0, (-A + rad) / 6.0]
    return np.sort(np.array(vals))


def ref_magnetic_q2_charpoly(alpha_n, alpha_b, theta1, theta2):
    """Ascending coefficients of the flux-pi quartic in eta (degree-3 lattice)."""
    aN, aB = alpha_n, alpha_b
    t1, t2 = theta1, theta2
    c0 = (aB * aB * aN * aN - 6.0 * aN * aB + 3.0
          + 2.0 * np.cos(t1 - 2.0 * t2) - 2.0 * np.cos(t1) - 2.0 * np.cos(2.0 * t2))
    c1 = -6.0 * (aN + aB) * (3.0 - aN * aB)
    c2 = 9.0 * (aN * aN + aB * aB + 4.0 * aN * aB - 6.0)
    c3 = 54.0 * (aN + aB)
    c4 = 81.0
    return np.array([c0, c1, c2, c3, c4])


def ref_zero_potential_monodromy(lam):
    """(c(1), c'(1), s(1), s'(1)) for q = 0: cos/sin in sqrt(lambda)."""
    lam = float(lam)
    if lam > 1e-8:
        w = np.sqrt(lam)
        return np.cos(w), -w * np.sin(w), np.sin(w) / w, np.cos(w)
    if lam < -1e-8:
        w = np.sqrt(-lam)
        return np.cosh(w), w * np.sinh(w), np.sinh(w) / w, np.cosh(w)
    # series about lambda = 0
    c = 1.0 - lam / 2.0 + lam * lam / 24.0
    cp = -lam * (1.0 - lam / 6.0)
    s = 1.0 - lam / 6.0 + lam * lam / 120.0
    sp = c
    return c, cp, s, sp


def ref_rk4_monodromy(q, edges, lam, steps_per_piece):
    """(d(lambda), s(1; lambda)) by classical RK4 on y'' = (q - lambda) y,
    batched over lambda, with ``steps_per_piece`` equal steps between
    consecutive ``edges`` (the knots of a sampled potential, so that every
    step sees one linear piece)."""
    lam = np.asarray(lam, dtype=float)
    y = [np.ones_like(lam), np.zeros_like(lam), np.zeros_like(lam), np.ones_like(lam)]

    def rhs(x, y):
        k = q(x) - lam
        return [y[1], k * y[0], y[3], k * y[2]]

    for x0, x1 in zip(edges[:-1], edges[1:]):
        h = (x1 - x0) / steps_per_piece
        for i in range(steps_per_piece):
            x = x0 + i * h
            k1 = rhs(x, y)
            k2 = rhs(x + 0.5 * h, [v + 0.5 * h * d for v, d in zip(y, k1)])
            k3 = rhs(x + 0.5 * h, [v + 0.5 * h * d for v, d in zip(y, k2)])
            k4 = rhs(x + h, [v + h * d for v, d in zip(y, k3)])
            y = [v + h / 6.0 * (a + 2.0 * b + 2.0 * c + e)
                 for v, a, b, c, e in zip(y, k1, k2, k3, k4)]
    return y[0] + y[3], y[2]
