"""Independent reference values for the output check.

Nothing here imports hexband.  The Floquet cells are written out again from
the model description (vertex-condition matrix A(theta) and diagonal scale D
per stack variant) and solved as batched Hermitian eigenproblems of
D^-1/2 A D^-1/2.  Hill discriminants come from the closed form for the zero
potential and from a fixed-step RK4 integration, aligned with the knots, for
sampled piecewise-linear potentials.  The checker compares every eta the
program writes against these values.
"""

from __future__ import annotations

import numpy as np

TRILAYERS = ("trilayer_hbn_g_hbn", "trilayer_g_hbn_g")
DIAGONAL_ONLY = ("hetero_bilayer",) + TRILAYERS


def dim(stack: dict) -> int:
    variant = stack["variant"]
    if variant == "monolayer":
        return 2
    if variant in TRILAYERS:
        return 6
    if variant == "magnetic_monolayer":
        return 2 * stack["flux_q"]
    return 4


def _cell(stack: dict, t1: np.ndarray, t2: np.ndarray):
    """Batched A (N, d, d) and diagonal scale (d,) of one stack."""
    variant = stack["variant"]
    aa = stack.get("alpha_a", 0.0)
    ab = stack.get("alpha_b", 0.0)
    ac = stack.get("alpha_c", 0.0)
    n = len(t1)
    F = 1.0 + np.exp(1j * t1) + np.exp(1j * t2)
    Fc = np.conj(F)

    def build(entries: dict, d: int) -> np.ndarray:
        a = np.zeros((n, d, d), dtype=complex)
        for (i, j), value in entries.items():
            a[:, i, j] = value
        return a

    if variant == "magnetic_monolayer" and stack["flux_q"] == 2:
        e1, e2 = np.exp(1j * t1), np.exp(1j * t2)
        a = build({(0, 0): -aa, (0, 1): 1.0 + np.conj(e2), (0, 3): np.conj(e1),
                   (1, 0): 1.0 + e2, (1, 1): -ab, (1, 2): 1.0,
                   (2, 1): 1.0, (2, 2): -aa, (2, 3): 1.0 - np.conj(e2),
                   (3, 0): e1, (3, 2): 1.0 - e2, (3, 3): -ab}, 4)
        return a, np.full(4, 3.0)
    if variant in ("monolayer", "magnetic_monolayer"):
        a = build({(0, 0): -aa, (0, 1): Fc, (1, 0): F, (1, 1): -ab}, 2)
        return a, np.full(2, 3.0)
    if variant in TRILAYERS:
        c = stack["t0"] ** 2
        if variant == "trilayer_hbn_g_hbn":
            oa, ob, ma, mb = aa, ab, ac, ac
        else:
            oa, ob, ma, mb = ac, ac, aa, ab
        entries = {(0, 0): -oa, (0, 1): Fc, (1, 0): F, (1, 1): -ob,
                   (2, 2): -ma, (2, 3): Fc, (3, 2): F, (3, 3): -mb,
                   (4, 4): -oa, (4, 5): Fc, (5, 4): F, (5, 5): -ob}
        for i, j in ((0, 3), (1, 2), (2, 5), (3, 4)):
            entries[(i, j)] = entries[(j, i)] = c
        t_1, t_2 = 3.0 + c, 3.0 + 2.0 * c
        return build(entries, 6), np.array([t_1, t_1, t_2, t_2, t_1, t_1])
    # the four two-layer stacks share the layer blocks
    lower_a, lower_b = -aa, -ab
    upper_a, upper_b = (-ac, -ac) if variant == "hetero_bilayer" else (-aa, -ab)
    entries = {(0, 0): lower_a, (0, 1): Fc, (1, 0): F, (1, 1): lower_b,
               (2, 2): upper_a, (2, 3): Fc, (3, 2): F, (3, 3): upper_b}
    if variant == "bilayer_aa_two_param":
        ca, cb = stack["t_a"] ** 2, stack["t_b"] ** 2
        entries[(0, 2)] = entries[(2, 0)] = ca
        entries[(1, 3)] = entries[(3, 1)] = cb
        scale = np.array([3.0 + ca, 3.0 + cb, 3.0 + ca, 3.0 + cb])
    else:
        c = stack["t0"] ** 2
        if variant == "bilayer_aa":
            links = ((0, 2), (1, 3))
        else:  # bilayer_aa_prime and hetero_bilayer couple a1-b2, b1-a2
            links = ((0, 3), (1, 2))
        for i, j in links:
            entries[(i, j)] = entries[(j, i)] = c
        scale = np.full(4, 3.0 + c)
    return build(entries, 4), scale


def eta(stack: dict, theta1, theta2) -> np.ndarray:
    """Sorted dispersion roots, shape (N, dim), at the given quasimomenta."""
    t1 = np.atleast_1d(np.asarray(theta1, dtype=float))
    t2 = np.atleast_1d(np.asarray(theta2, dtype=float))
    a, scale = _cell(stack, t1, t2)
    dinv = 1.0 / np.sqrt(scale)
    return np.linalg.eigvalsh(a * np.outer(dinv, dinv))


def diagonal_eta(stack: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.linspace(-np.pi, np.pi, n)
    return theta, eta(stack, theta, -theta)


def closed_form_expected(stack: dict, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Where the program is documented to use its closed forms (bands.csv source)."""
    variant = stack["variant"]
    if variant not in DIAGONAL_ONLY:
        return np.ones(len(t1), dtype=bool)
    pair = (abs(stack["alpha_a"] + stack["alpha_b"]) <= 1e-12
            and abs(stack.get("alpha_c", 0.0)) <= 1e-12)
    return np.abs(np.sin(t1) + np.sin(t2)) <= 1e-12 if pair else np.zeros(len(t1), bool)


# ------------------------------------------------------------------
#  Hill discriminant
# ------------------------------------------------------------------

def zero_potential_eta(lam) -> np.ndarray:
    """d(lambda)/2 of -y'' on the unit edge."""
    lam = np.asarray(lam, dtype=float)
    w = np.sqrt(np.abs(lam))
    return np.where(lam >= 0.0, np.cos(w), np.cosh(w))


def sampled_monodromy(x, values, lam, steps_per_knot: int = 2048):
    """(d(lambda)/2, s(1; lambda)) for a piecewise-linear potential, batched over lambda.

    Classical RK4 on y'' = (q - lambda) y with steps aligned to the knots, so
    every step sees a linear potential and keeps fourth order.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    c, cp = np.ones_like(lam), np.zeros_like(lam)
    s, sp = np.zeros_like(lam), np.ones_like(lam)

    def rhs(q, c, cp, s, sp):
        k = q - lam
        return cp, k * c, sp, k * s

    for seg in range(len(x) - 1):
        h = (x[seg + 1] - x[seg]) / steps_per_knot
        for i in range(steps_per_knot):
            x0 = x[seg] + i * h
            q0, qm, q1 = np.interp([x0, x0 + 0.5 * h, x0 + h], x, values)
            k1 = rhs(q0, c, cp, s, sp)
            k2 = rhs(qm, *(y + 0.5 * h * d for y, d in zip((c, cp, s, sp), k1)))
            k3 = rhs(qm, *(y + 0.5 * h * d for y, d in zip((c, cp, s, sp), k2)))
            k4 = rhs(q1, *(y + h * d for y, d in zip((c, cp, s, sp), k3)))
            c, cp, s, sp = (y + h / 6.0 * (a + 2.0 * b + 2.0 * e + f)
                            for y, a, b, e, f in zip((c, cp, s, sp), k1, k2, k3, k4))
    return 0.5 * (c + sp), s
