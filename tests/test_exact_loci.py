"""``report.txt`` touch records against the exact touch loci of the diagonal,
and the exact eta band ends.

On the diagonal slice F = 1 + 2 cos(theta1) is real, so det(A - eta D) is
a real polynomial p(F, eta).  With rational alpha and t0, sympy gives its
discriminant in eta exactly.  Two eta roots meet where the discriminant
vanishes, so its real zeros in [-1, 3] are the touch loci, independent of
``grid.n``, of every refiner and of both engine routes.  A cone or crossing
of one band pair is a zero of order 2 and a parabolic touch one of order 4,
and touches of several pairs at one locus add their orders.

Band k (the k-th root in ascending order) takes its extremes over
F in [-1, 3] at an end, F = -1 or 3, or where dp/dF = 0 on the curve
p = 0: a critical point of one root branch, or a crossing of two, where
the order changes branch.  Those F are the real zeros in [-1, 3] of the
resultant in eta of p and dp/dF, so the band ends are p's roots there.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
import sympy as sp

from hexband.bands import _REFINE_XATOL, sample_diagonal
from hexband.cli import main
from hexband.lattice import (
    LAYOUTS,
    CouplingParams,
    StackConfig,
    StackVariant,
    VertexParams,
)

F, ETA = sp.symbols("F eta", real=True)
ORDER = {"cone": 2, "crossing": 2, "parabolic": 4}


def diagonal_polynomial(variant: str, settings: dict) -> sp.Expr:
    """det(A - eta D) on the diagonal, p(F, eta), for the layout of
    ``variant`` with the rational stack ``settings``."""
    layout = LAYOUTS[StackVariant(variant)]
    dim = 2 * len(layout.layers)
    A = sp.zeros(dim, dim)
    for k, role in enumerate(layout.layers):
        A[2 * k, 2 * k] = -settings["alpha_" + role[0]]
        A[2 * k + 1, 2 * k + 1] = -settings["alpha_" + role[1]]
        A[2 * k, 2 * k + 1] = A[2 * k + 1, 2 * k] = F
    scale = [3] * dim
    for i, j, name in layout.bonds:
        weight = settings[name] ** 2
        A[i, j] = A[j, i] = weight
        scale[i] += weight
        scale[j] += weight
    return sp.expand((A - ETA * sp.diag(*scale)).det(method="berkowitz"))


def _zeros_on_the_slice(poly: sp.Expr) -> list[tuple[sp.Expr, int]]:
    """The real zeros in [-1, 3] of a polynomial in F, with their orders."""
    return [(root, order) for factor, order in sp.Poly(poly, F).factor_list()[1]
            for root in sp.real_roots(factor) if -1 <= root <= 3]


def exact_touch_loci(variant: str, settings: dict) -> Counter:
    """Each real zero in [-1, 3] of the discriminant in eta of det(A - eta D)
    on the diagonal, with its order."""
    loci = Counter()
    for root, order in _zeros_on_the_slice(
            sp.discriminant(diagonal_polynomial(variant, settings), ETA)):
        loci[root] += order
    return loci


def exact_band_ends(variant: str, settings: dict) -> list[tuple[float, float]]:
    """The (lowest, highest) eta of each band on the diagonal: p's roots,
    in ascending order, at F = -1, F = 3 and the zeros in [-1, 3] of the
    resultant of p and dp/dF.  The roots are mpmath's at 40 digits, with
    the extra precision that keeps a double root (a crossing) to about 50."""
    p = diagonal_polynomial(variant, settings)
    critical = [root for root, _ in _zeros_on_the_slice(
        sp.resultant(p, sp.diff(p, F), ETA))]
    rows = []
    with mpmath.workdps(40):
        for f in [sp.Integer(-1), sp.Integer(3), *critical]:
            coeffs = sp.Poly(p.subs(F, f.evalf(60)), ETA).all_coeffs()
            roots = mpmath.polyroots([mpmath.mpf(str(c)) for c in coeffs],
                                     maxsteps=500, extraprec=60)
            rows.append(sorted(float(mpmath.re(eta)) for eta in roots))
    return [(min(band), max(band)) for band in zip(*rows)]


def _report_records(text: str) -> list[dict]:
    """The records of a report: the blocks after its header's blank line."""
    return [dict(line.split(": ", 1) for line in block.splitlines())
            for block in text.split("\n\n")[1:]]


@pytest.mark.parametrize("variant,settings", [
    ("monolayer", {"alpha_a": "0", "alpha_b": "0"}),
    ("monolayer", {"alpha_a": "1/2", "alpha_b": "-1/2"}),
    ("hetero_bilayer", {"alpha_a": "-1", "alpha_b": "1", "alpha_c": "3/10",
                        "t0": "3/10"}),
    ("bilayer_aa", {"alpha_a": "1/2", "alpha_b": "1/2", "t0": "3/10"}),
    ("trilayer_g_hbn_g", {"alpha_a": "-1", "alpha_b": "1", "alpha_c": "0",
                          "t0": "3/10"}),
    ("trilayer_hbn_g_hbn", {"alpha_a": "-1/10", "alpha_b": "1/10", "alpha_c": "0",
                            "t0": "3/10"}),
], ids=["monolayer-cone", "monolayer-gap", "hetero_bilayer", "bilayer_aa",
        "trilayer_g_hbn_g", "trilayer_hbn_g_hbn"])
def test_touch_records_sit_at_the_exact_loci(tmp_path, variant, settings):
    exact = {name: sp.Rational(value) for name, value in settings.items()}
    loci = exact_touch_loci(variant, exact)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "stack": {"variant": variant, **{k: float(v) for k, v in exact.items()}},
        "grid": {"kind": "diagonal", "n": 501}}))
    assert main(["classify", "--config", str(config), "--out", str(tmp_path)]) == 0
    records = _report_records((tmp_path / "report.txt").read_text())
    # the theta1 in [0, pi] of each locus, where the report keeps its records
    at = {root: math.acos((float(root) - 1.0) / 2.0) for root in loci}
    orders = Counter()
    for rec in records:
        if rec["kind"] == "gap":
            continue
        theta = float(rec["theta1"])
        # bounded Brent stops within this width of the minimum in theta1
        width = 2.0 * (math.sqrt(sys.float_info.epsilon) * abs(theta)
                       + _REFINE_XATOL / 3.0)
        near = [root for root, t in at.items() if abs(theta - t) <= width]
        assert near, (f"{rec['kind']} record at F = {rec['f_value']} sits at "
                      f"no exact locus of {sorted(map(float, loci))}")
        orders[near[0]] += ORDER[rec["kind"]]
    inside = [root for root in loci if -1 < root < 3]
    assert {float(r): orders[r] for r in inside} == {float(r): loci[r] for r in inside}


def test_exact_hetero_band_ends_give_criterion_05_gap():
    exact = {"alpha_a": -1, "alpha_b": 1, "alpha_c": 0, "t0": sp.Rational(3, 10)}
    ends = exact_band_ends("hetero_bilayer", exact)
    assert ends[2][0] - ends[1][1] == pytest.approx(0.0052009267541887, abs=1e-12)


@pytest.mark.parametrize("variant,settings", [
    ("monolayer", {"alpha_a": "1/2", "alpha_b": "-1/2"}),
    ("hetero_bilayer", {"alpha_a": "-1", "alpha_b": "1", "alpha_c": "0", "t0": "3/10"}),
    ("bilayer_aa_prime", {"alpha_a": "2/5", "alpha_b": "-9/10", "t0": "1/2"}),
    ("trilayer_g_hbn_g", {"alpha_a": "-1", "alpha_b": "1", "alpha_c": "0",
                          "t0": "3/10"}),
], ids=["monolayer", "hetero_bilayer", "bilayer_aa_prime", "trilayer_g_hbn_g"])
def test_sampled_bands_lie_within_the_exact_ends(variant, settings):
    # a missed candidate F would leave a sampled extreme outside its band's
    # exact ends; the samples at F = -1 and 3 and the grid's spacing bound
    # how far inside they stay
    exact = {name: sp.Rational(value) for name, value in settings.items()}
    ends = np.array(exact_band_ends(variant, exact))
    vertex = VertexParams(*(float(exact.get(name, 0))
                            for name in ("alpha_a", "alpha_b", "alpha_c")))
    coupling = CouplingParams(t0=float(exact["t0"])) if "t0" in exact else None
    values = sample_diagonal(StackConfig(StackVariant(variant), vertex, coupling=coupling),
                             n=2001).values
    lo, hi = values.min(axis=0), values.max(axis=0)
    assert np.all(lo >= ends[:, 0] - 1e-12) and np.all(hi <= ends[:, 1] + 1e-12)
    assert np.all(lo - ends[:, 0] < 1e-2) and np.all(ends[:, 1] - hi < 1e-2)
