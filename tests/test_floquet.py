"""Tests for Floquet assembly, characteristic polynomials, and root families."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import frozen
from hexband import (
    CouplingParams,
    EngineError,
    NoClosedFormError,
    StackConfig,
    StackVariant,
    VariantError,
    VertexParams,
    assemble,
    char_poly,
    closed_form_roots,
    numeric_roots,
)
from hexband.bands import roots_at
from hexband.lattice import FluxSpec, structure_function


def _cfg(variant, aa=0.0, ab=0.0, ac=0.0, **coupling):
    cp = CouplingParams(**coupling) if coupling else None
    return StackConfig(variant, VertexParams(aa, ab, ac), coupling=cp)


ALL_NONMAGNETIC = [
    _cfg(StackVariant.MONOLAYER, -0.4, 0.7),
    _cfg(StackVariant.BILAYER_AA, -1.0, 0.3, t0=0.3),
    _cfg(StackVariant.BILAYER_AA_TWO_PARAM, 0.25, -0.09, t_a=0.5, t_b=0.3),
    _cfg(StackVariant.BILAYER_AA_PRIME, -0.7, 0.4, t0=0.3),
    _cfg(StackVariant.HETERO_BILAYER, -1.0, 1.0, t0=0.3),
    _cfg(StackVariant.TRILAYER_HBN_G_HBN, -1.0, 1.0, t0=0.3),
    _cfg(StackVariant.TRILAYER_G_HBN_G, -0.1, 0.1, t0=0.3),
]


# ============================================================
#  Assembly invariants
# ============================================================

@pytest.mark.parametrize("cfg", ALL_NONMAGNETIC, ids=lambda c: c.variant.value)
def test_affine_part_is_hermitian(cfg):
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        fm = assemble(cfg, structure_function(t1, t2))
        np.testing.assert_allclose(fm.affine, fm.affine.conj().T, atol=1e-14)
        assert fm.dim == cfg.dim
        assert np.all(fm.diag_scale > 0)


def test_assemble_rejects_magnetic():
    cfg = StackConfig(StackVariant.MAGNETIC_MONOLAYER, flux=FluxSpec(1, 2))
    with pytest.raises(VariantError):
        assemble(cfg, structure_function(0.1, 0.2))
    with pytest.raises(VariantError):
        closed_form_roots(cfg, structure_function(0.1, 0.2))


# ============================================================
#  Characteristic polynomial
# ============================================================

@pytest.mark.parametrize("cfg", ALL_NONMAGNETIC, ids=lambda c: c.variant.value)
def test_char_poly_leading_coefficient(cfg):
    fm = assemble(cfg, structure_function(0.37, -1.1))
    coeffs = char_poly(fm)
    assert len(coeffs) == cfg.dim + 1
    assert coeffs[-1] == pytest.approx(float(np.prod(fm.diag_scale)), rel=1e-12)


@pytest.mark.parametrize("cfg", ALL_NONMAGNETIC, ids=lambda c: c.variant.value)
def test_char_poly_vanishes_on_numeric_roots(cfg):
    rng = np.random.default_rng(17)
    for _ in range(10):
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        fm = assemble(cfg, structure_function(t1, t2))
        coeffs = char_poly(fm)
        roots = numeric_roots(fm)
        resid = np.abs(npoly.polyval(roots.values, coeffs)) / abs(coeffs[-1])
        assert resid.max() < 1e-9


def test_char_poly_monolayer_explicit():
    # 9 eta^2 + 3(aa + ab) eta + aa*ab - |F|^2
    cfg = _cfg(StackVariant.MONOLAYER, 0.8, -0.5)
    t1, t2 = 0.9, -1.7
    fsq = abs(frozen.ref_structure_function(t1, t2)) ** 2
    coeffs = char_poly(assemble(cfg, structure_function(t1, t2)))
    np.testing.assert_allclose(
        coeffs, [0.8 * (-0.5) - fsq, 3.0 * (0.8 - 0.5), 9.0], atol=1e-12)


def test_aa_quartic_factorization_random():
    # char poly == product of the two closed quadratic factors, 1000 draws
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        aa, ab = rng.uniform(-3.0, 3.0, 2)
        t0 = rng.uniform(0.05, 1.0)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        cfg = _cfg(StackVariant.BILAYER_AA, aa, ab, t0=t0)
        coeffs = char_poly(assemble(cfg, structure_function(t1, t2)))
        fsq = abs(frozen.ref_structure_function(t1, t2)) ** 2
        product = npoly.polymul(frozen.ref_aa_factor(aa, ab, t0, fsq, +1.0),
                                frozen.ref_aa_factor(aa, ab, t0, fsq, -1.0))
        worst = max(worst, np.max(np.abs(coeffs - product)))
    assert worst < 1e-10


def test_aap_quartic_factorization_random():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        aa, ab = rng.uniform(-3.0, 3.0, 2)
        t0 = rng.uniform(0.05, 1.0)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        c = t0 * t0
        T = 3.0 + c
        cfg = _cfg(StackVariant.BILAYER_AA_PRIME, aa, ab, t0=t0)
        coeffs = char_poly(assemble(cfg, structure_function(t1, t2)))
        F = complex(frozen.ref_structure_function(t1, t2))
        product = np.array([1.0])
        for s in (1.0, -1.0):
            fsq = abs(F + s * c) ** 2
            product = npoly.polymul(
                product, [aa * ab - fsq, (aa + ab) * T, T * T])
        worst = max(worst, np.max(np.abs(coeffs - product)))
    assert worst < 1e-10


def test_two_param_reduces_to_single_coupling():
    # t_a = t_b = t0 must reproduce the single-coupling quartic exactly
    rng = np.random.default_rng(303)
    for _ in range(200):
        aa, ab = rng.uniform(-2.0, 2.0, 2)
        t0 = rng.uniform(0.05, 1.0)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        c_two = char_poly(assemble(
            _cfg(StackVariant.BILAYER_AA_TWO_PARAM, aa, ab, t_a=t0, t_b=t0),
            structure_function(t1, t2)))
        c_one = char_poly(assemble(
            _cfg(StackVariant.BILAYER_AA, aa, ab, t0=t0), structure_function(t1, t2)))
        np.testing.assert_allclose(c_two, c_one, atol=1e-10)


@pytest.mark.parametrize("variant", [StackVariant.TRILAYER_HBN_G_HBN,
                                     StackVariant.TRILAYER_G_HBN_G])
def test_trilayer_p2_divides_char_poly_all_theta(variant):
    # the 2x2-layer factor divides the sextic for every theta and alpha
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(300):
        aN = rng.uniform(-2.0, 2.0)
        t0 = rng.uniform(0.05, 1.0)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        c = t0 * t0
        T1 = 3.0 + c
        fsq = abs(frozen.ref_structure_function(t1, t2)) ** 2
        cfg = _cfg(variant, aN, -aN, t0=t0)
        coeffs = char_poly(assemble(cfg, structure_function(t1, t2)))
        if variant is StackVariant.TRILAYER_HBN_G_HBN:
            p2 = np.array([-aN * aN - fsq, 0.0, T1 * T1])
        else:
            p2 = np.array([-fsq, 0.0, T1 * T1])
        quotient, remainder = npoly.polydiv(coeffs, p2)
        worst = max(worst, np.max(np.abs(remainder)) / abs(coeffs[-1]))
    assert worst < 1e-9


def test_aa_degenerates_to_squared_monolayer():
    # with a vanishing coupling the quartic is the monolayer quadratic squared
    aa, ab = -0.6, 0.9
    t1, t2 = 1.3, -0.2
    quartic = char_poly(assemble(
        _cfg(StackVariant.BILAYER_AA, aa, ab, t0=1e-8), structure_function(t1, t2)))
    quad = char_poly(assemble(_cfg(StackVariant.MONOLAYER, aa, ab),
                              structure_function(t1, t2)))
    np.testing.assert_allclose(quartic, npoly.polymul(quad, quad), atol=1e-12)


def test_aa_factor_roots_at_unit_coupling():
    # T = 4, F = 0, alpha = 0, t0 = 1: factors 16 eta^2 -+ 8 eta + 1,
    # i.e. (4 eta -+ 1)^2: the roots are +-1/4, each doubled.
    cfg = _cfg(StackVariant.BILAYER_AA, 0.0, 0.0, t0=1.0)
    theta = 2.0 * np.pi / 3.0
    roots = closed_form_roots(cfg, structure_function(theta, -theta))
    np.testing.assert_allclose(roots.values, [-0.25, -0.25, 0.25, 0.25],
                               atol=1e-9)
    fsq = 0.0
    np.testing.assert_allclose(frozen.ref_aa_factor(0.0, 0.0, 1.0, fsq, +1.0),
                               [1.0, -8.0, 16.0], atol=1e-12)
    np.testing.assert_allclose(frozen.ref_aa_factor(0.0, 0.0, 1.0, fsq, -1.0),
                               [1.0, 8.0, 16.0], atol=1e-12)


# ============================================================
#  Closed-form vs numeric roots
# ============================================================

def test_monolayer_closed_vs_numeric_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        aa, ab = rng.uniform(-3.0, 3.0, 2)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        cfg = _cfg(StackVariant.MONOLAYER, aa, ab)
        closed = closed_form_roots(cfg, structure_function(t1, t2))
        numeric = numeric_roots(assemble(cfg, structure_function(t1, t2)))
        np.testing.assert_allclose(closed.values, numeric.values, atol=1e-9)
        fsq = abs(frozen.ref_structure_function(t1, t2)) ** 2
        np.testing.assert_allclose(closed.values,
                                   frozen.ref_monolayer_roots(aa, ab, fsq),
                                   atol=1e-12)


@pytest.mark.parametrize("variant,ref", [
    (StackVariant.BILAYER_AA,
     lambda aa, ab, t0, F: frozen.ref_aa_roots(aa, ab, t0, abs(F) ** 2)),
    (StackVariant.BILAYER_AA_PRIME,
     lambda aa, ab, t0, F: frozen.ref_aap_roots(aa, ab, t0, F)),
])
def test_bilayer_closed_vs_numeric_random(variant, ref):
    rng = np.random.default_rng(2)
    for _ in range(300):
        aa, ab = rng.uniform(-3.0, 3.0, 2)
        t0 = rng.uniform(0.05, 1.0)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        cfg = _cfg(variant, aa, ab, t0=t0)
        closed = closed_form_roots(cfg, structure_function(t1, t2))
        numeric = numeric_roots(assemble(cfg, structure_function(t1, t2)))
        np.testing.assert_allclose(closed.values, numeric.values, atol=1e-9)
        F = complex(frozen.ref_structure_function(t1, t2))
        np.testing.assert_allclose(closed.values, ref(aa, ab, t0, F), atol=1e-10)


def test_two_param_closed_vs_numeric_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        aa, ab = rng.uniform(-3.0, 3.0, 2)
        ta, tb = rng.uniform(0.05, 1.0, 2)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        cfg = _cfg(StackVariant.BILAYER_AA_TWO_PARAM, aa, ab, t_a=ta, t_b=tb)
        closed = closed_form_roots(cfg, structure_function(t1, t2))
        numeric = numeric_roots(assemble(cfg, structure_function(t1, t2)))
        np.testing.assert_allclose(closed.values, numeric.values, atol=1e-9)
        fsq = abs(frozen.ref_structure_function(t1, t2)) ** 2
        np.testing.assert_allclose(closed.values,
                                   frozen.ref_twoparam_roots(aa, ab, ta, tb, fsq),
                                   atol=1e-10)


@pytest.mark.parametrize("variant,refname", [
    (StackVariant.HETERO_BILAYER, "hetero"),
    (StackVariant.TRILAYER_HBN_G_HBN, "bngbn"),
    (StackVariant.TRILAYER_G_HBN_G, "gbng"),
])
def test_constrained_closed_vs_numeric_on_diagonal(variant, refname):
    rng = np.random.default_rng(4)
    for _ in range(300):
        aN = rng.uniform(-2.0, 2.0)
        t0 = rng.uniform(0.05, 1.0)
        th = rng.uniform(-np.pi, np.pi)
        cfg = _cfg(variant, aN, -aN, t0=t0)
        closed = closed_form_roots(cfg, structure_function(th, -th))
        numeric = numeric_roots(assemble(cfg, structure_function(th, -th)))
        np.testing.assert_allclose(closed.values, numeric.values, atol=1e-9)
        f = 1.0 + 2.0 * np.cos(th)
        if refname == "hetero":
            ref = frozen.ref_hetero_roots(aN, t0, f)
        else:
            ref = frozen.ref_trilayer_roots(refname, aN, t0, f)
        np.testing.assert_allclose(closed.values, ref, atol=1e-10)


@pytest.mark.parametrize("variant", [StackVariant.HETERO_BILAYER,
                                     StackVariant.TRILAYER_HBN_G_HBN,
                                     StackVariant.TRILAYER_G_HBN_G])
def test_constrained_variants_reject_unsupported_requests(variant):
    good = _cfg(variant, -1.0, 1.0, t0=0.3)
    with pytest.raises(NoClosedFormError):
        closed_form_roots(good, structure_function(0.4, 0.3))   # off the diagonal slice
    bad_pair = _cfg(variant, -1.0, 0.5, t0=0.3)
    with pytest.raises(NoClosedFormError):
        closed_form_roots(bad_pair, structure_function(0.4, -0.4))
    bad_third = StackConfig(variant, VertexParams(-1.0, 1.0, 0.2),
                            coupling=CouplingParams(t0=0.3))
    with pytest.raises(NoClosedFormError):
        closed_form_roots(bad_third, structure_function(0.4, -0.4))


# ============================================================
#  Root record invariants
# ============================================================

def test_roots_sorted_with_aligned_labels():
    cfg = _cfg(StackVariant.BILAYER_AA, -1.0, -0.9, t0=0.3)
    roots = closed_form_roots(cfg, structure_function(0.3, -0.3))
    assert np.all(np.diff(roots.values) >= 0)
    assert len(roots.branch_labels) == 4
    assert set(roots.branch_labels) == {"s+u+", "s+u-", "s-u+", "s-u-"}
    # labels must follow the values through the sort: recompute directly
    d = np.sqrt(0.01 + 4.0 * abs(frozen.ref_structure_function(0.3, -0.3)) ** 2)
    expect = {}
    for s, stag in ((1.0, "s+"), (-1.0, "s-")):
        for u, utag in ((1.0, "u+"), (-1.0, "u-")):
            expect[stag + utag] = (1.9 + 2.0 * s * 0.09 + u * d) / 6.18
    for val, lab in zip(roots.values, roots.branch_labels):
        assert val == pytest.approx(expect[lab], abs=1e-12)


def test_admissibility_mask():
    cfg = _cfg(StackVariant.MONOLAYER, 0.0, 0.0)
    roots = closed_form_roots(cfg, structure_function(0.0, 0.0))   # eta = +-1 exactly
    assert np.all(roots.admissible)
    big = _cfg(StackVariant.MONOLAYER, -3.5, -3.5)
    roots2 = closed_form_roots(big, structure_function(0.0, 0.0))  # upper branch beyond 1
    assert not roots2.admissible[-1]


def test_numeric_roots_have_no_labels():
    cfg = _cfg(StackVariant.BILAYER_AA, -1.0, 1.0, t0=0.3)
    assert numeric_roots(assemble(cfg, structure_function(0.9, -0.9))).branch_labels == ()


def test_residual_gate_trips_on_corrupted_roots():
    from hexband.floquet import _gate_coefficients, _residual_gate
    cfg = _cfg(StackVariant.MONOLAYER, 0.3, -0.2)
    F = structure_function(np.array([0.5]), np.array([0.7]))
    good = numeric_roots(assemble(cfg, structure_function(0.5, 0.7))).values
    _residual_gate(_gate_coefficients(cfg, F), good)       # passes silently
    with pytest.raises(EngineError):
        _residual_gate(_gate_coefficients(cfg, F), good + 1e-5)


def test_hermitian_guard_trips_on_a_non_hermitian_batch():
    from hexband.floquet import _hermitian_guard
    a = assemble(ALL_NONMAGNETIC[3], np.array([0.5, 1.0 + 0.5j, -0.7])).affine
    _hermitian_guard(a)                                    # passes silently
    a = a.copy()
    a[1, 0, 2] += 1e-9
    with pytest.raises(EngineError, match="not Hermitian"):
        _hermitian_guard(a)


def test_real_coefficients_trip_on_an_imaginary_part_past_the_points_scale():
    from hexband.floquet import _real_coefficients
    coeffs = np.array([[1e6, -2.0, 3.0], [1.0, -2.0, 3.0]], dtype=complex)
    coeffs[0, 1] += 1e-7j                                  # 1e-13 of 1e6
    assert np.array_equal(_real_coefficients(coeffs), coeffs.real)
    # the scale is each point's own: 1e-9 is past 1e-12 of the second's 3.0
    coeffs[1, 2] += 1e-9j
    with pytest.raises(EngineError, match="non-real coefficient"):
        _real_coefficients(coeffs)


def test_vertex_scales_are_three_plus_the_bond_weights():
    t = frozen.TRI_T1
    cases = [(ALL_NONMAGNETIC[1], [frozen.AA_T] * 4),
             (_cfg(StackVariant.BILAYER_AA_TWO_PARAM, t_a=0.5, t_b=0.3),
              [frozen.TWOP_TA, frozen.TWOP_TB] * 2),
             (ALL_NONMAGNETIC[5], [t, t, frozen.TRI_T2, frozen.TRI_T2, t, t]),
             (ALL_NONMAGNETIC[6], [t, t, frozen.TRI_T2, frozen.TRI_T2, t, t])]
    for cfg, scales in cases:
        assert assemble(cfg, 0.5).diag_scale == pytest.approx(scales, rel=1e-15)


@pytest.mark.parametrize("variant,alpha,branch,shift,coupling", [
    (StackVariant.MONOLAYER, 1.0, "u+", 1e-6, {}),
    (StackVariant.MONOLAYER, 1.0, "u+", 1e-7, {}),
    (StackVariant.MONOLAYER, 1.0, "u+", 1e-8, {}),
    # roots near +-3333, measured relative to themselves: a relative shift
    # of 3e-9 still trips the gate
    (StackVariant.MONOLAYER, 1e4, "u+", 1e-5, {}),
    # inner roots near 0.8 beside outer ones near 60: the gate must see a
    # small root's error past the scale of the large ones
    *((variant, sign * 200.0, branch, 1e-7, {"t0": t0})
      for variant, branch, t0 in ((StackVariant.HETERO_BILAYER, "in+", 0.3),
                                  (StackVariant.TRILAYER_HBN_G_HBN, "pn_in+", 0.5))
      for sign in (1.0, -1.0)),
    # at large |alpha| the G-hBN-G inner pair lies within 1e-6 of the p2
    # pair, a near-double root whose shift no residual can see
    (StackVariant.TRILAYER_G_HBN_G, 1.0, "pn_in+", 1e-6, {"t0": 0.3}),
    (StackVariant.TRILAYER_G_HBN_G, -1.0, "pn_in+", 1e-6, {"t0": 0.3}),
])
def test_residual_gate_trips_on_shifted_roots(variant, alpha, branch, shift,
                                              coupling):
    from hexband.floquet import _gate_coefficients, _residual_gate
    cfg = _cfg(variant, alpha, -alpha, **coupling)
    F = structure_function(np.array([0.5]), np.array([-0.5]))
    roots = closed_form_roots(cfg, structure_function(0.5, -0.5))   # passes the gate
    values = roots.values.copy()
    values[list(roots.order).index(roots.names.index(branch))] += shift
    with pytest.raises(EngineError, match="residual gate"):
        _residual_gate(_gate_coefficients(cfg, F), values)


@pytest.mark.parametrize("cfg", ALL_NONMAGNETIC, ids=lambda c: c.variant.value)
def test_closed_form_roots_of_an_empty_batch(cfg):
    roots = closed_form_roots(cfg, structure_function(np.array([]), np.array([])))
    assert roots.values.shape == (0, cfg.dim)


def test_residual_gate_trips_on_nan_roots():
    from hexband.floquet import _gate_coefficients, _residual_gate
    cfg = _cfg(StackVariant.MONOLAYER, 0.3, -0.2)
    F = structure_function(np.array([0.5]), np.array([0.7]))
    with pytest.raises(EngineError, match="residual gate"):
        _residual_gate(_gate_coefficients(cfg, F), np.array([np.nan, 0.1]))


@pytest.mark.parametrize("variant", [StackVariant.MONOLAYER,
                                     StackVariant.BILAYER_AA_PRIME,
                                     StackVariant.TRILAYER_HBN_G_HBN])
def test_nan_alpha_fails_the_residual_gate(variant):
    coupling = {} if variant is StackVariant.MONOLAYER else {"t0": 0.3}
    cfg = _cfg(variant, np.nan, np.nan, **coupling)
    with pytest.raises(EngineError, match="residual gate"):
        closed_form_roots(cfg, structure_function(0.4, -0.4))


# ============================================================
#  The engine as a function of F alone
# ============================================================

def _f_image_edges():
    """F on the three edges of the image of the zone under F, by name: the
    diameter [-1, 3], the segment iy with |y| <= sqrt(3) and the circle
    |F - 1| = 2, and one F outside the disc.  The real points are exactly
    real: F = 0 on the segment, F = -1 and 3 on the circle."""
    root3 = np.sqrt(3.0)
    phi = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    phi = phi[(phi != 0.0) & (np.abs(phi - np.pi) > 0.1)]
    return {
        "diameter": np.linspace(-1.0, 3.0, 17) + 0j,
        "segment": np.array([-root3, -1.2, -0.5, 0.0, 0.3, 1.0, root3]) * 1j,
        "circle": np.concatenate([[3.0, -1.0], 1.0 + 2.0 * np.exp(1j * phi)]),
        "outside": np.array([5.0 + 0j]),
    }


_EVERYWHERE = [StackVariant.MONOLAYER, StackVariant.BILAYER_AA,
               StackVariant.BILAYER_AA_TWO_PARAM, StackVariant.BILAYER_AA_PRIME]
_DIAMETER_ONLY = [StackVariant.HETERO_BILAYER, StackVariant.TRILAYER_HBN_G_HBN,
                  StackVariant.TRILAYER_G_HBN_G]


def _random_cfgs(variant, paired):
    rng = np.random.default_rng(61)
    for _ in range(20):
        aa, ab = rng.uniform(-2.0, 2.0, 2)
        t = rng.uniform(0.05, 1.0)
        coupling = ({} if variant is StackVariant.MONOLAYER else
                    {"t_a": t, "t_b": 0.6 * t}
                    if variant is StackVariant.BILAYER_AA_TWO_PARAM else {"t0": t})
        yield _cfg(variant, aa, -aa if paired else ab, **coupling)


@pytest.mark.parametrize("variant", _EVERYWHERE, ids=lambda v: v.value)
def test_closed_forms_match_the_eigensolver_on_the_f_image_edges(variant):
    F = np.concatenate(list(_f_image_edges().values()))
    for cfg in _random_cfgs(variant, paired=False):
        closed = closed_form_roots(cfg, F)
        numeric = numeric_roots(assemble(cfg, F))
        assert closed.closed.all()
        assert np.max(np.abs(closed.values - numeric.values)) <= 1e-12


@pytest.mark.parametrize("variant", _DIAMETER_ONLY, ids=lambda v: v.value)
def test_paired_stacks_serve_exactly_the_real_f(variant):
    edges = _f_image_edges()
    for cfg in _random_cfgs(variant, paired=True):
        for F in (edges["diameter"], edges["outside"]):
            closed = closed_form_roots(cfg, F)
            numeric = numeric_roots(assemble(cfg, F))
            assert closed.closed.all()
            assert np.max(np.abs(closed.values - numeric.values)) <= 1e-12
        for name in ("segment", "circle"):
            F = edges[name]
            with pytest.raises(NoClosedFormError) as info:
                closed_form_roots(cfg, F)
            assert info.value.servable.tolist() == (F.imag == 0.0).tolist()
            assert 0 < info.value.servable.sum() < len(F)


# ============================================================
#  The masks of the small-call path
# ============================================================
#
# The gate, the diagonal check and the quadratic build their masks only
# when a reduction says one is needed.  A max reduction propagates NaN where
# ``any(x > tol)`` ignores it, so these pin what a NaN point does.

@pytest.mark.parametrize("variant", _DIAMETER_ONLY, ids=lambda v: v.value)
def test_nan_theta_on_a_paired_stack_fails_the_residual_gate(variant):
    cfg = _cfg(variant, -0.8, 0.8, t0=0.4)
    for theta in ([np.nan], [0.3, np.nan], [np.nan, 0.3, 1.1]):
        theta = np.array(theta)
        with pytest.raises(EngineError, match="residual gate") as info:
            closed_form_roots(cfg, structure_function(theta, -theta))
        assert not isinstance(info.value, NoClosedFormError)
        with pytest.raises(EngineError, match="residual gate"):
            roots_at(cfg, theta, -theta)


@pytest.mark.parametrize("variant", _DIAMETER_ONLY, ids=lambda v: v.value)
def test_a_nan_point_beside_an_off_slice_point(variant):
    # a NaN point counts as on the slice and hides no point off it: the
    # batch is refused with its servable points named, and roots_at sends
    # the NaN point to the formulas, whose gate fails
    cfg = _cfg(variant, -0.8, 0.8, t0=0.4)
    t1 = np.array([np.nan, 0.7, 0.3])
    t2 = np.array([np.nan, 0.1, -0.3])
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
        F = structure_function(t1[order], t2[order])
        with pytest.raises(NoClosedFormError, match=r"Im F = 0\.744051\)") as info:
            closed_form_roots(cfg, F)
        assert info.value.servable.tolist() == [k != 1 for k in order]
        with pytest.raises(EngineError, match="residual gate"):
            roots_at(cfg, t1[order], t2[order])
    # without the NaN point the batch splits between the routes
    roots = roots_at(cfg, t1[1:], t2[1:])
    assert roots.closed.tolist() == [False, True]


def _sorted_eigenvalues(fm):
    dinv = 1.0 / np.sqrt(fm.diag_scale)
    return np.sort(np.linalg.eigvalsh(fm.affine * np.outer(dinv, dinv)), axis=-1)


@pytest.mark.parametrize("cfg", ALL_NONMAGNETIC, ids=lambda c: c.variant.value)
def test_numeric_roots_are_the_sorted_eigenvalues(cfg):
    # eigvalsh returns ascending values, so numeric_roots takes them as
    # they are: the same bits as sorting them
    rng = np.random.default_rng(17)
    for n in (1, 5, 40):
        F = structure_function(*rng.uniform(-np.pi, np.pi, (2, n)))
        fm = assemble(cfg, F)
        roots = numeric_roots(fm)
        assert roots.values.tobytes() == _sorted_eigenvalues(fm).tobytes()
        assert roots.closed.shape == (n,) and not roots.closed.any()
        assert roots.order is None and roots.names == ()
    one = numeric_roots(assemble(cfg, F[0]))
    assert one.values.tobytes() == _sorted_eigenvalues(assemble(cfg, F[0])).tobytes()
    assert one.closed.shape == () and not one.closed


def test_numeric_roots_of_degenerate_configs_are_the_sorted_eigenvalues():
    # equal eigenvalues: the zero matrix of an undecorated monolayer at
    # F = 0, and the AA bilayer's +-t0^2 pairs there
    for cfg in (_cfg(StackVariant.MONOLAYER),
                _cfg(StackVariant.BILAYER_AA, t0=0.5),
                _cfg(StackVariant.TRILAYER_G_HBN_G, t0=0.5)):
        F = np.array([0.0, 0.0, 1.0, -1.0, 3.0]) + 0j
        fm = assemble(cfg, F)
        values = numeric_roots(fm).values
        assert values.tobytes() == _sorted_eigenvalues(fm).tobytes()
        assert np.any(np.diff(values, axis=1) == 0.0)


def test_quadratic_clips_a_near_zero_discriminant():
    from hexband.floquet import _quadratic_roots
    B = np.array([0.0, 2.0, 2.0])
    C = np.array([2.5e-16, 1.0 + 2.5e-16, 1.0])     # disc ~ -1e-15, -1e-15, 0
    lo, hi = _quadratic_roots(1.0, B, C)
    assert (lo == -B / 2.0).all() and (hi == -B / 2.0).all()
    # a NaN point hides neither a clipped discriminant nor a negative one
    lo, hi = _quadratic_roots(1.0, np.array([np.nan, 0.0]), np.array([1.0, 2.5e-16]))
    assert np.isnan(lo[0]) and np.isnan(hi[0]) and lo[1] == hi[1] == 0.0
    with pytest.raises(EngineError, match="complex roots"):
        _quadratic_roots(1.0, np.array([np.nan, 0.0]), np.array([1.0, 1e-13]))
    with pytest.raises(EngineError, match="complex roots"):
        _quadratic_roots(1.0, np.array([0.0]), np.array([1e-13]))
