"""Robin flux cells, the q = 2 quartic, and reduced-zone classification."""

import numpy as np
import pytest

from hexband.bands import roots_at
from hexband.errors import EngineError, GridError, VariantError
from hexband.floquet import assemble, char_poly
from hexband.lattice import (
    FluxSpec,
    StackConfig,
    StackVariant,
    VertexParams,
    structure_function,
)
from hexband.magnetic import (
    G_MAX,
    G_MIN,
    assemble_robin,
    closed_form_roots_q2,
    g_function,
    magnetic_classify,
    q2_quartic_coeffs,
    reduced_zone_grid,
)

import frozen


def _mag_cfg(an, ab, p=1, q=2):
    return StackConfig(variant=StackVariant.MAGNETIC_MONOLAYER,
                       vertex=VertexParams(alpha_a=an, alpha_b=ab),
                       flux=FluxSpec(p=p, q=q))


def _mono_cfg(aa, ab):
    return StackConfig(variant=StackVariant.MONOLAYER,
                       vertex=VertexParams(alpha_a=aa, alpha_b=ab))


# ------------------------------------------------------------
#  Robin flux cells
# ------------------------------------------------------------

class TestRobinCells:
    def test_q1_matches_monolayer(self):
        mag = _mag_cfg(-0.3, 0.7, q=1)
        mono = _mono_cfg(-0.3, 0.7)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            fm_mag = assemble_robin(mag, t1, t2)
            fm_mono = assemble(mono, structure_function(t1, t2))
            assert np.array_equal(fm_mag.affine, fm_mono.affine)
            assert np.array_equal(fm_mag.diag_scale, fm_mono.diag_scale)
            assert np.allclose(char_poly(fm_mag), char_poly(fm_mono),
                               atol=1e-12)

    def test_q2_cell_is_hermitian(self):
        fm = assemble_robin(_mag_cfg(-1.0, 1.0), 0.7, -0.2)
        assert fm.dim == 4
        assert np.max(np.abs(fm.affine - fm.affine.conj().T)) < 1e-15
        assert np.array_equal(fm.diag_scale, np.full(4, 3.0))

    def test_rejects_non_magnetic_config(self):
        with pytest.raises(VariantError):
            assemble_robin(_mono_cfg(0.0, 0.0), 0.0, 0.0)

    def test_assemble_refuses_magnetic_variant(self):
        with pytest.raises(VariantError):
            assemble(_mag_cfg(0.0, 0.0), structure_function(0.0, 0.0))

    def test_q1_reduces_to_structure_function(self):
        t1 = np.array([0.0, 1.1, 2.0])
        t2 = np.array([0.0, -0.4, 2.9])
        top = np.abs(structure_function(t1, t2)) / 3.0
        vals = roots_at(_mag_cfg(0.0, 0.0, q=1), t1, t2).values
        np.testing.assert_allclose(vals, np.stack([-top, top], axis=1),
                                   rtol=0.0, atol=1e-14)

    def test_half_flux_spectrum_bounded_by_sqrt6_over_3(self):
        # at alpha = 0, eta^2 = (12 +- 4 sqrt(2 G)) / 36 peaks at G = 4.5:
        # |eta| <= sqrt(6)/3, not 1
        cfg = _mag_cfg(0.0, 0.0)
        grid = np.linspace(-np.pi, np.pi, 41)
        vals = roots_at(cfg, np.repeat(grid, 41), np.tile(grid, 41)).values
        assert np.max(np.abs(vals)) <= np.sqrt(6.0) / 3.0 + 1e-12
        # the bound is reached at the G maximum
        top = roots_at(cfg, np.pi / 3.0, -np.pi / 6.0).values[-1]
        assert top == pytest.approx(np.sqrt(6.0) / 3.0, abs=1e-14)


# ------------------------------------------------------------
#  The flux-pi quartic
# ------------------------------------------------------------

class TestQuartic:
    def test_coeffs_match_determinant_expansion(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(200):
            an, ab = rng.uniform(-2.0, 2.0, size=2)
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            cfg = _mag_cfg(an, ab)
            direct = char_poly(assemble_robin(cfg, t1, t2))
            quartic = q2_quartic_coeffs(cfg, t1, t2)
            worst = max(worst, float(np.max(np.abs(direct - quartic))))
        assert worst < 1e-10

    def test_coeffs_match_frozen_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            an, ab = rng.uniform(-2.0, 2.0, size=2)
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            ours = q2_quartic_coeffs(_mag_cfg(an, ab), t1, t2)
            ref = frozen.ref_magnetic_q2_charpoly(an, ab, t1, t2)
            assert np.allclose(ours, ref, atol=1e-12)

    def test_radical_roots_match_frozen_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            an, ab = rng.uniform(-2.0, 2.0, size=2)
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            ours = closed_form_roots_q2(_mag_cfg(an, ab), t1, t2)
            ref = frozen.ref_magnetic_q2_roots(an, ab, t1, t2)
            assert np.allclose(ours.values, ref, atol=1e-12)

    @pytest.mark.parametrize("an,ab", [(-1.0, -1.0), (-1.0, 1.0)])
    def test_radical_roots_match_eigensolver_on_zone(self, an, ab):
        cfg = _mag_cfg(an, ab)
        t1_ax, t2_ax = reduced_zone_grid(2, 101)
        worst = 0.0
        for t1 in t1_ax:
            for t2 in t2_ax:
                closed = closed_form_roots_q2(cfg, t1, t2).values
                numeric = np.linalg.eigvalsh(
                    assemble_robin(cfg, t1, t2).affine) / 3.0
                worst = max(worst, float(np.max(np.abs(closed - numeric))))
        assert worst < 1e-9

    def test_root_labels_track_radicands(self):
        roots = closed_form_roots_q2(_mag_cfg(-1.0, 1.0), 0.4, 0.9)
        assert roots.branch_labels == ("out-", "in-", "in+", "out+")

    def test_empty_batch(self):
        roots = closed_form_roots_q2(_mag_cfg(-1.0, 1.0), np.array([]), np.array([]))
        assert roots.values.shape == (0, 4)

    def test_nan_alpha_fails_the_residual_gate(self):
        with pytest.raises(EngineError, match="residual gate"):
            closed_form_roots_q2(_mag_cfg(np.nan, 0.5), 0.4, 0.9)

    def test_requires_q2(self):
        cfg = _mag_cfg(0.0, 0.0, q=1)
        with pytest.raises(VariantError):
            q2_quartic_coeffs(cfg, 0.0, 0.0)
        with pytest.raises(VariantError):
            closed_form_roots_q2(cfg, 0.0, 0.0)


# ------------------------------------------------------------
#  The G function and the reduced zone
# ------------------------------------------------------------

class TestGFunction:
    def test_matches_frozen_reference(self):
        rng = np.random.default_rng(31)
        t1 = rng.uniform(-np.pi, np.pi, size=100)
        t2 = rng.uniform(-np.pi, np.pi, size=100)
        assert np.allclose(g_function(t1, t2),
                           frozen.ref_magnetic_g(t1, t2), atol=1e-14)

    def test_maximum_and_closure_minimum(self):
        assert g_function(*frozen.MAG_G_MAX_THETA) == pytest.approx(
            frozen.MAG_G_MAX, abs=1e-14)
        assert g_function(np.pi / 2.0, 3.0 * np.pi / 8.0) == pytest.approx(
            frozen.MAG_G_MIN_CLOSED, abs=1e-14)
        assert G_MAX == frozen.MAG_G_MAX
        assert G_MIN == pytest.approx(frozen.MAG_G_MIN_CLOSED, abs=1e-15)

    def test_constant_on_axes(self):
        line = np.linspace(-np.pi, np.pi, 37)
        assert np.allclose(g_function(np.zeros_like(line), line), 4.0,
                           atol=1e-14)
        assert np.allclose(g_function(line, np.zeros_like(line)), 4.0,
                           atol=1e-14)

    def test_range_on_zone_closure(self):
        t1 = np.linspace(0.0, np.pi / 2.0, 401)
        t2 = np.linspace(-np.pi / 2.0, np.pi / 2.0, 401)
        tt1, tt2 = np.meshgrid(t1, t2, indexing="ij")
        g = g_function(tt1, tt2)
        assert np.min(g) >= G_MIN - 1e-12
        assert np.max(g) <= G_MAX + 1e-12

    def test_range_on_full_torus(self):
        # outside the reduced zone G keeps dropping, all the way to zero
        axis = np.linspace(-np.pi, np.pi, 501)
        tt1, tt2 = np.meshgrid(axis, axis)
        g = g_function(tt1, tt2)
        assert np.min(g) >= -1e-12
        assert np.max(g) <= G_MAX + 1e-12
        assert g_function(np.pi, np.pi / 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_reduced_zone_nearly_attains_maximum(self):
        t1_ax, t2_ax = reduced_zone_grid(2, 401)
        tt1, tt2 = np.meshgrid(t1_ax, t2_ax, indexing="ij")
        g = g_function(tt1, tt2)
        i, j = np.unravel_index(np.argmax(g), g.shape)
        assert np.max(g) > G_MAX - 1e-3
        assert abs(t1_ax[i] - np.pi / 3.0) < 0.02
        assert abs(t2_ax[j] + np.pi / 6.0) < 0.02


class TestReducedZone:
    def test_half_open_axes(self):
        t1, t2 = reduced_zone_grid(2, 50)
        assert t1.shape == t2.shape == (50,)
        assert t1[0] == 0.0 and t1[-1] < np.pi / 2.0
        assert t2[0] == -np.pi / 2.0 and t2[-1] < np.pi / 2.0

    def test_q1_zone(self):
        t1, t2 = reduced_zone_grid(1, 10)
        assert t1[-1] < np.pi and t2[0] == -np.pi

    def test_rejects_bad_arguments(self):
        with pytest.raises(GridError):
            reduced_zone_grid(0, 10)
        with pytest.raises(GridError):
            reduced_zone_grid(2, 1)


# ------------------------------------------------------------
#  Reduced-zone classification
# ------------------------------------------------------------

class TestMagneticClassify:
    def test_equal_alpha_cone(self):
        reports = magnetic_classify(_mag_cfg(-1.0, -1.0), n=101)
        cones = [r for r in reports if r.kind == "cone"]
        assert cones, "expected conical contact of the middle pair"
        for cone in cones:
            assert cone.band_pair == (1, 2)
            assert cone.value == pytest.approx(frozen.MAG_CONE_VALUE, abs=1e-6)
            assert g_function(cone.theta1, cone.theta2) == pytest.approx(
                G_MAX, abs=1e-8)
            # separation grows like (1/3) sqrt(8/5) |s| along the locus
            expected_gamma = np.sqrt(8.0 / 5.0) / 6.0
            assert cone.gamma == pytest.approx(expected_gamma, rel=1e-3)
        assert not [r for r in reports if r.kind == "parabolic"]
        outer = [r for r in reports if r.band_pair != (1, 2)]
        assert outer and all(r.kind == "gap" for r in outer)

    def test_equal_alpha_cone_location(self):
        reports = magnetic_classify(_mag_cfg(-1.0, -1.0), n=101)
        cones = [r for r in reports if r.kind == "cone"]
        assert any(abs(c.theta1 - np.pi / 3.0) < 1e-6
                   and abs(c.theta2 + np.pi / 6.0) < 1e-6 for c in cones)

    def test_conical_scaling_along_locus(self):
        cfg = _mag_cfg(-1.0, -1.0)
        direction = np.array([-2.0, 1.0]) / np.sqrt(5.0)
        center = np.array([np.pi / 3.0, -np.pi / 6.0])

        def sep(s):
            theta = center + s * direction
            vals = closed_form_roots_q2(cfg, theta[0], theta[1]).values
            return vals[2] - vals[1]

        ratios = [sep(s) / s for s in (1e-4, 2e-4, 4e-4)]
        assert ratios[0] == pytest.approx(np.sqrt(8.0 / 5.0) / 3.0, rel=2e-2)
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=2e-2)

    def test_opposite_alpha_gap(self):
        reports = magnetic_classify(_mag_cfg(-1.0, 1.0), n=101)
        assert reports and all(r.kind == "gap" for r in reports)
        mid = [r for r in reports if r.band_pair == (1, 2)]
        assert mid
        best = min(r.gap_width for r in mid)
        assert best == pytest.approx(frozen.MAG_GAP_BASELINE, abs=1e-8)
        assert best > 0.0
        outer = [r for r in reports if r.band_pair != (1, 2)]
        assert outer
        outer_best = min(r.gap_width for r in outer)
        assert outer_best == pytest.approx(frozen.MAG_OUTER_SEP_MIN, abs=1e-7)

    def test_gap_on_plain_axis_slice(self):
        # on the theta1 = 0 line G is identically 4 and the middle separation
        # is (2/3) sqrt(4 - 2 sqrt 2) everywhere
        cfg = _mag_cfg(-1.0, 1.0)
        for t2 in (-1.2, 0.3, 0.9):
            vals = closed_form_roots_q2(cfg, 0.0, t2).values
            assert vals[2] - vals[1] == pytest.approx(
                frozen.MAG_GAP_ON_G4_LOCUS, abs=1e-12)

    def test_requires_magnetic_variant(self):
        with pytest.raises(VariantError):
            magnetic_classify(_mono_cfg(0.0, 0.0))
