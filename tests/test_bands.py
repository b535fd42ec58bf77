"""Diagonal-slice sampling, touch classification, and gap analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexband.bands as bands_module
from hexband.bands import (
    FLAT_SEP_TOL,
    _grid_minima,
    adjacent_separations,
    classify_touches,
    diagonal_theta_for_f,
    gap_width_closed_form,
    mirror_images,
    roots_at,
    sample_diagonal,
)
from hexband.errors import InputError, NoClosedFormError, ResolutionError
from hexband.lattice import (
    CouplingParams,
    StackConfig,
    StackVariant,
    VertexParams,
    structure_function,
)
from hexband.refine import bounded_minima, pair_separations

import frozen


def _cfg(variant, aa=0.0, ab=0.0, ac=0.0, **coupling):
    coup = CouplingParams(**coupling) if coupling else None
    return StackConfig(variant=StackVariant(variant),
                       vertex=VertexParams(alpha_a=aa, alpha_b=ab, alpha_c=ac),
                       coupling=coup)


def _kinds(reports, kind):
    return [r for r in reports if r.kind == kind]


THETA_K = frozen.DIRAC_THETA1          # F = 0
THETA_M = np.pi                        # F = -1
THETA_G = 0.0                          # F = 3


# ------------------------------------------------------------
#  Sampling and point evaluation
# ------------------------------------------------------------

class TestSampling:
    def test_surface_shape_and_order(self):
        cfg = _cfg("monolayer", aa=0.3, ab=-0.4)
        surf = sample_diagonal(cfg, n=301)
        assert surf.values.shape == (301, 2)
        assert np.all(np.diff(surf.values, axis=1) >= 0.0)
        assert surf.route == "closed"

    def test_numeric_fallback_for_general_hetero(self):
        cfg = _cfg("hetero_bilayer", aa=-1.0, ab=0.7, t0=0.3)
        surf = sample_diagonal(cfg, n=301)
        assert surf.route == "numeric"

    def test_route_forcing(self):
        cfg = _cfg("monolayer", aa=0.1, ab=0.1)
        closed = roots_at(cfg, 1.1, route="closed")
        numeric = roots_at(cfg, 1.1, route="numeric")
        assert np.allclose(closed.values, numeric.values, atol=1e-12)
        assert closed.branch_labels and not numeric.branch_labels

    def test_unknown_route(self):
        with pytest.raises(InputError, match="route"):
            roots_at(_cfg("monolayer"), 0.5, route="fast")

    def test_theta_for_f(self):
        assert diagonal_theta_for_f(0.0) == pytest.approx(THETA_K, abs=1e-14)
        assert diagonal_theta_for_f(3.0) == pytest.approx(0.0, abs=1e-7)
        assert diagonal_theta_for_f(-1.0) == pytest.approx(np.pi, abs=1e-7)
        with pytest.raises(InputError, match="outside"):
            diagonal_theta_for_f(3.5)

    def test_adjacent_separations_monolayer(self):
        cfg = _cfg("monolayer", aa=1.0, ab=-1.0)
        sep = adjacent_separations(cfg, THETA_K)
        assert sep.shape == (1,)
        assert sep[0] == pytest.approx(2.0 / 3.0, abs=1e-12)


# ------------------------------------------------------------
#  Classification: monolayer
# ------------------------------------------------------------

class TestMonolayerClassification:
    def test_resolution_gate(self):
        surf = sample_diagonal(_cfg("monolayer"), n=99)
        with pytest.raises(ResolutionError, match="samples"):
            classify_touches(surf)

    @pytest.mark.parametrize("alpha", [0.0, 0.2, -1.0])
    def test_equal_alpha_gives_two_cones(self, alpha):
        surf = sample_diagonal(_cfg("monolayer", aa=alpha, ab=alpha), n=501)
        reports = classify_touches(surf)
        cones = _kinds(reports, "cone")
        # one record per feature: the cone at theta_K, whose mirror image
        # at -theta_K is the slice's other cone
        assert len(cones) == 1
        assert {r.kind for r in reports} == {"cone"}
        assert cones[0].theta1 == pytest.approx(THETA_K, abs=1e-6)
        locs = [r.theta1 for r in mirror_images(surf, cones)]
        assert locs == pytest.approx([-THETA_K, THETA_K], abs=1e-6)
        for r in cones:
            assert r.gamma == pytest.approx(frozen.SQRT3_OVER_3, rel=1e-4)
            assert r.value == pytest.approx(-alpha / 3.0, abs=1e-9)
            assert abs(r.f_value) < 1e-7

    def test_distinct_alpha_gives_gap_two_thirds(self):
        surf = sample_diagonal(_cfg("monolayer", aa=1.0, ab=-1.0), n=501)
        reports = classify_touches(surf)
        gaps = _kinds(reports, "gap")
        assert len(gaps) == 1 and len(reports) == 1
        for r in gaps:
            assert r.theta1 >= 0.0
            assert r.gap_width == pytest.approx(
                frozen.MONO_GAP_ALPHA_1_M1, abs=1e-12)
            assert not r.flat

    @pytest.mark.parametrize("seed", range(5))
    def test_random_gap_matches_formula(self, seed):
        rng = np.random.default_rng(1000 + seed)
        aa, ab = rng.uniform(-1.5, 1.5, size=2)
        cfg = _cfg("monolayer", aa=aa, ab=ab)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        width = min(r.separation for r in reports)
        assert width == pytest.approx(abs(aa - ab) / 3.0, abs=1e-10)


# ------------------------------------------------------------
#  Classification: AA bilayer trichotomy
# ------------------------------------------------------------

class TestAATrichotomy:
    def _aa(self, ab):
        return _cfg("bilayer_aa", aa=-1.0, ab=ab, t0=0.3)

    def test_equal_alpha_cones(self):
        reports = classify_touches(sample_diagonal(self._aa(-1.0), n=501))
        cones = _kinds(reports, "cone")
        assert len(cones) == 2                       # pairs (0,1) and (2,3)
        assert {r.band_pair for r in cones} == {(0, 1), (2, 3)}
        for r in cones:
            assert r.theta1 >= 0.0
            assert r.gamma == pytest.approx(frozen.AA_CONE_SLOPE, rel=1e-4)
        assert not _kinds(reports, "parabolic")
        # the sorted middle pair swaps analytic branches where |F| = t0^2
        crossings = _kinds(reports, "crossing")
        assert {r.band_pair for r in crossings} == {(1, 2)}
        assert len(crossings) == 2
        for r in crossings:
            assert r.theta1 >= 0.0
            assert abs(abs(r.f_value) - 0.09) < 1e-7
        assert not _kinds(reports, "gap")

    def test_offset_alpha_parabolic(self):
        # alpha_b = alpha_a + 2 t0^2 puts the u-index at an integer: quadratic contact
        reports = classify_touches(sample_diagonal(self._aa(-0.82), n=501))
        parabs = _kinds(reports, "parabolic")
        assert len(parabs) == 1
        for r in parabs:
            assert r.theta1 >= 0.0
            assert r.band_pair == (1, 2)
            assert r.value == pytest.approx(frozen.AA_PARABOLIC_TOUCH_VALUE,
                                            abs=1e-9)
            assert r.curvature == pytest.approx(
                0.5 * frozen.AA_PARABOLIC_SEP_D2, rel=1e-3)
        assert not _kinds(reports, "cone")
        assert not _kinds(reports, "crossing")

    def test_opposite_alpha_gap(self):
        reports = classify_touches(sample_diagonal(self._aa(1.0), n=501))
        assert {r.kind for r in reports} == {"gap"}
        mid = [r for r in reports if r.band_pair == (1, 2)]
        assert len(mid) == 1
        for r in mid:
            assert r.theta1 >= 0.0
            assert r.gap_width == pytest.approx(frozen.AA_GAP_ORIGIN, abs=1e-10)
        # outer pairs have theta-independent separation: one flat record each
        for pair in [(0, 1), (2, 3)]:
            flats = [r for r in reports if r.band_pair == pair]
            assert len(flats) == 1 and flats[0].flat
            assert flats[0].gap_width == pytest.approx(
                2.0 * 0.09 / frozen.AA_T, abs=1e-12)

    def test_generic_alpha_crossing(self):
        reports = classify_touches(sample_diagonal(self._aa(-0.9), n=501))
        crossings = _kinds(reports, "crossing")
        assert len(crossings) == 2
        assert {r.band_pair for r in crossings} == {(1, 2)}
        for r in crossings:
            assert r.theta1 >= 0.0
            assert abs(abs(r.f_value) - frozen.AA_CROSSING_F) < 1e-7
        assert not _kinds(reports, "cone")
        assert not _kinds(reports, "parabolic")

    def test_crossing_looks_like_cone_on_numeric_route(self):
        # without branch labels a transversal intersection is reported as a cone
        surf = sample_diagonal(self._aa(-0.9), n=501, route="numeric")
        reports = classify_touches(surf)
        assert not _kinds(reports, "crossing")
        cones = _kinds(reports, "cone")
        assert len(cones) == 2
        assert all(r.theta1 >= 0.0 for r in cones)


# ------------------------------------------------------------
#  Classification: one record per feature, from the half slice
# ------------------------------------------------------------

class TestHalfSlice:
    @pytest.mark.parametrize("config", [
        # pairs 0-1 and 2-3 have minima at theta1 = 0 and at +-pi
        _cfg("hetero_bilayer", aa=-1.0, ab=1.0, ac=0.0, t0=0.3),
        _cfg("monolayer", aa=0.2, ab=0.2),
    ], ids=["hetero_bilayer", "monolayer"])
    def test_even_and_odd_sample_counts_give_the_same_records(self, config):
        # an even count has no sample at theta1 = 0: the half slice starts
        # at -h/2 there, where "theta1 >= 0" would lose the minimum at 0
        records = {}
        for n in (500, 501):
            surface = sample_diagonal(config, n=n)
            h = surface.theta[1] - surface.theta[0]
            reports = classify_touches(surface)
            for r in reports:
                assert r.theta1 >= -h / 2.0 or r.theta1 == -np.pi, r
            records[n] = reports
        assert ([(r.kind, r.band_pair) for r in records[500]]
                == [(r.kind, r.band_pair) for r in records[501]])
        assert ([r.theta1 for r in records[500]]
                == pytest.approx([r.theta1 for r in records[501]], abs=1e-6))


# ------------------------------------------------------------
#  Classification: the symmetry points theta1 = 0 and -pi, taken exactly
# ------------------------------------------------------------

# pairs 1-2 and 3-4 have gap minima at theta1 = 0 (F = 3) and -pi (F = -1)
_BNGBN = _cfg("trilayer_hbn_g_hbn", aa=-1.0, ab=1.0, t0=0.3)
# alpha bisected so that pair 1-2's separation, as a function of F, has
# its minimum at F = 1 + 2 cos(0.002), just inside F = 3: two symmetric
# minima at theta1 = +-0.002, within one step of 0 at n = 2001 (h = 0.00314)
_DIP_ALPHA = 0.7381044390867144
_DIP = _cfg("trilayer_hbn_g_hbn", aa=-_DIP_ALPHA, ab=_DIP_ALPHA, t0=0.3)


def _near(reports, pair, point, h):
    """The records of band pair (pair, pair + 1) less than h past point."""
    return [r for r in reports if r.band_pair == (pair, pair + 1)
            and r.theta1 is not None and point <= r.theta1 < point + h]


class TestSymmetryPoints:
    @pytest.mark.parametrize("n", [201, 500, 501, 502, 2001])
    @pytest.mark.parametrize("point", [0.0, -np.pi], ids=["gamma", "minus_pi"])
    def test_a_minimum_at_a_symmetry_point_is_the_point_itself(self, n, point):
        # at n = 201 the grid's centre is 4.44e-16, not 0; an even n has no
        # sample at 0
        surface = sample_diagonal(_BNGBN, n=n)
        h = surface.theta[1] - surface.theta[0]
        reports = classify_touches(surface)
        fresh = adjacent_separations(_BNGBN, point)
        for pair in (1, 3):
            [record] = _near(reports, pair, point, h)
            assert record.kind == "gap"
            assert record.theta1 == point and record.theta2 == -point
            assert record.separation == fresh[pair]
            assert record.f_value == (3.0 if point == 0.0 else -1.0)

    @settings(max_examples=30, deadline=None)
    @given(variant=st.sampled_from(["trilayer_hbn_g_hbn", "trilayer_g_hbn_g",
                                    "hetero_bilayer", "monolayer"]),
           alpha=st.floats(0.05, 2.0), t0=st.floats(0.1, 1.0))
    def test_records_within_a_step_of_a_symmetry_point(self, variant, alpha, t0):
        # each is the point itself, with the separation there, or a
        # minimum past it that lies below that separation
        coupling = {} if variant == "monolayer" else {"t0": t0}
        cfg = _cfg(variant, aa=-alpha, ab=alpha, **coupling)
        surface = sample_diagonal(cfg, n=201)
        h = surface.theta[1] - surface.theta[0]
        reports = classify_touches(surface)
        for point in (0.0, -np.pi):
            fresh = adjacent_separations(cfg, point)
            for r in reports:
                if r.theta1 is None or not point <= r.theta1 < point + h:
                    continue
                if r.theta1 == point:
                    assert r.separation == fresh[r.band_pair[0]]
                else:
                    assert r.separation < fresh[r.band_pair[0]]

    def test_two_symmetric_minima_next_to_gamma_are_refined_past_it(self, monkeypatch):
        at_gamma = adjacent_separations(_DIP, 0.0)[1]
        # the setting: theta1 = 0 is a local maximum of pair 1-2
        assert adjacent_separations(_DIP, 0.002)[1] < at_gamma
        brackets = []

        def spy(fn, lo, hi, xatol):
            brackets.extend(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()))
            return bounded_minima(fn, lo, hi, xatol)

        monkeypatch.setattr(bands_module, "bounded_minima", spy)
        found = {}
        for n in (201, 501, 2001):
            brackets.clear()
            surface = sample_diagonal(_DIP, n=n)
            h = surface.theta[1] - surface.theta[0]
            reports = classify_touches(surface)
            # pairs 1-2 and 3-4 mirror each other; each is refined on (0, h]
            assert [b for b in brackets if b[0] == 0.0] == [(0.0, h), (0.0, h)]
            [record] = _near(reports, 1, 0.0, h)
            assert 0.0 < record.theta1 <= h
            assert record.separation < at_gamma
            found[n] = record
        # the profile is flat to its rounding (~2e-15) for ~2e-4 around the
        # minimum, so the refined theta1 agrees to that width and the
        # separations to the rounding
        thetas = [r.theta1 for r in found.values()]
        seps = [r.separation for r in found.values()]
        assert max(thetas) - min(thetas) < 1e-4
        assert abs(np.mean(thetas) - 0.002) < 1e-4
        assert max(seps) - min(seps) < 3e-15

    def test_two_symmetric_minima_next_to_gamma_on_an_even_grid(self, monkeypatch):
        at_gamma = adjacent_separations(_DIP, 0.0)[1]
        [odd] = _near(classify_touches(sample_diagonal(_DIP, n=2001)), 1, 0.0, 0.003)
        brackets = []

        def spy(fn, lo, hi, xatol):
            brackets.extend(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()))
            return bounded_minima(fn, lo, hi, xatol)

        monkeypatch.setattr(bands_module, "bounded_minima", spy)
        for n in (500, 502, 2000, 2002):
            brackets.clear()
            surface = sample_diagonal(_DIP, n=n)
            h = surface.theta[1] - surface.theta[0]
            reports = classify_touches(surface)
            # the grid bracket is [-3h/2, h/2] or [-h/2, 3h/2]; its mirror
            # past 0 is (0, 3h/2]
            assert [b for b in brackets if b[0] == 0.0] == [(0.0, 1.5 * h)] * 2
            [record] = _near(reports, 1, 0.0, 1.5 * h)
            assert record.separation < at_gamma
            # within the ~2e-4 where the profile is flat to its rounding
            assert abs(record.theta1 - 0.002) < 2.5e-4
            assert abs(record.separation - odd.separation) < 3e-15

    # the grid minimum at -h/2 (n = 500, 502) or, by rounding, at h/2 (282)
    @pytest.mark.parametrize("n", [282, 500, 502])
    def test_an_even_grid_takes_gamma_exactly(self, n, monkeypatch):
        # with no sample at 0, the minimum sits at -h/2 or h/2; refined on
        # the grid bracket, it took 36-38 calls and read theta1 ~ -2.5e-7
        h = 2.0 * np.pi / (n - 1)
        [odd_12, odd_34] = (_near(classify_touches(sample_diagonal(_BNGBN, n=501)),
                                  pair, 0.0, h) for pair in (1, 3))
        surface = sample_diagonal(_BNGBN, n=n)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return roots_at(*args, **kwargs)

        monkeypatch.setattr(bands_module, "roots_at", counting)
        reports = classify_touches(surface)
        for pair, [want] in ((1, odd_12), (3, odd_34)):
            [record] = _near(reports, pair, -h, 2.0 * h)
            assert record.theta1 == 0.0 and record.theta2 == 0.0
            assert record.separation == want.separation
        assert len(calls) <= 11

    def test_gamma_lanes_cost_no_refinement_rounds(self, monkeypatch):
        # refining the two gap minima at theta1 = 0 as well, through a
        # profile flat to rounding, takes 30 more calls here
        surface = sample_diagonal(_BNGBN, n=501)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return roots_at(*args, **kwargs)

        monkeypatch.setattr(bands_module, "roots_at", counting)
        classify_touches(surface)
        assert len(calls) == 11


# ------------------------------------------------------------
#  Classification: AA' bilayer
# ------------------------------------------------------------

class TestAAPrime:
    def test_equal_alpha_cone_locations(self):
        cfg = _cfg("bilayer_aa_prime", aa=-1.0, ab=-1.0, t0=0.3)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        cones = [r for r in _kinds(reports, "cone") if r.theta1 > 0]
        assert len(cones) == 2
        locs = sorted(r.theta1 for r in cones)
        assert locs[0] == pytest.approx(frozen.AAP_THETA_D_PLUS, abs=1e-7)
        assert locs[1] == pytest.approx(frozen.AAP_THETA_D_MINUS, abs=1e-7)
        fvals = sorted(abs(r.f_value) for r in cones)
        for f in fvals:
            assert f == pytest.approx(frozen.AAP_CONE_F, abs=1e-7)
        # the aligned-pair branches cross transversally at F = 0
        crossings = _kinds(reports, "crossing")
        assert {r.band_pair for r in crossings} == {(0, 1), (2, 3)}

    def test_opposite_alpha_gaps(self):
        cfg = _cfg("bilayer_aa_prime", aa=-1.0, ab=1.0, t0=0.3)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        mid_gaps = [r for r in _kinds(reports, "gap")
                    if r.band_pair == (1, 2)]
        assert mid_gaps
        best = min(r.gap_width for r in mid_gaps)
        assert best == pytest.approx(frozen.AAP_GAP_GLOBAL, abs=1e-10)
        # separation at the zone corner F = 0 is the local ridge value
        sep_k = adjacent_separations(cfg, THETA_K)[1]
        assert sep_k == pytest.approx(frozen.AAP_SEP_AT_ORIGIN, abs=1e-12)


# ------------------------------------------------------------
#  Hetero bilayer
# ------------------------------------------------------------

# Three edges of the image of the zone under F, as paths theta(x) for x in
# [-end, end]: the diagonal (the diameter F in [-1, 3]), the circle
# |F - 1| = 2 (theta1 = theta2) and the segment F = iy, |y| <= sqrt(3)
# (F - 1 = 2 cos(d / 2) exp(i s) at theta = s +- d / 2).

def _diagonal(x):
    return x, -x


def _circle(x):
    return x, x


def _segment(y):
    u = -1.0 + 1j * y
    half = np.arccos(np.minimum(np.abs(u) / 2.0, 1.0))
    return np.angle(u) + half, np.angle(u) - half


def _refined_minima(cfg, path, end, pair, n=201):
    """Every grid minimum of a pair's separation along a path, refined by
    ``bounded_minima`` within a grid step: the separations and their F."""
    x = np.linspace(-end, end, n)
    values = roots_at(cfg, *path(x)).values
    sep = np.pad(values[:, pair + 1] - values[:, pair], 1, constant_values=np.inf)
    at = x[(sep[1:-1] <= sep[:-2]) & (sep[1:-1] <= sep[2:])]
    h = x[1] - x[0]

    def separations(x, lanes):
        return pair_separations(lambda t1, t2: roots_at(cfg, t1, t2), *path(x),
                                np.full(len(x), pair))

    x, sep = bounded_minima(separations, np.maximum(at - h, -end),
                            np.minimum(at + h, end), 1e-12)
    return sep, structure_function(*path(x))


class TestHeteroBilayer:
    def test_gap_formula_value(self):
        cfg = _cfg("hetero_bilayer", aa=-1.0, ab=1.0, t0=0.3)
        assert gap_width_closed_form(cfg) == pytest.approx(
            frozen.HETERO_GAP_M1_03, rel=1e-14)

    def test_gap_formula_full_coupling(self):
        cfg = _cfg("hetero_bilayer", aa=-1.0, ab=1.0, t0=1.0)
        assert gap_width_closed_form(cfg) == pytest.approx(
            frozen.HETERO_GAP_M1_1, rel=1e-14)
        printed = np.sqrt(2.0) / 4.0 * np.sqrt(3.0 - np.sqrt(5.0))
        assert gap_width_closed_form(cfg) == pytest.approx(printed, abs=1e-15)

    def test_gap_vanishes_with_coupling(self):
        weak = gap_width_closed_form(
            _cfg("hetero_bilayer", aa=-1.0, ab=1.0, t0=1e-6))
        assert weak < 1e-12

    def test_classified_gap_matches_formula(self):
        cfg = _cfg("hetero_bilayer", aa=-1.0, ab=1.0, t0=0.3)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        mid = [r for r in reports if r.band_pair == (1, 2) and r.kind == "gap"]
        assert mid
        assert min(r.gap_width for r in mid) == pytest.approx(
            frozen.HETERO_GAP_M1_03, rel=1e-9)

    def test_narrowest_gaps_off_the_diagonal(self):
        # pair 0-1 is narrower on the circle |F - 1| = 2 than anywhere on
        # the diagonal, at a conjugate pair of F; pair 1-2's gap at F = 0
        # is not undercut on the circle or on the segment F = iy
        cfg = _cfg("hetero_bilayer", aa=-1.0, ab=1.0, t0=0.3)
        sep, F = _refined_minima(cfg, _circle, np.pi, pair=0)
        narrowest = F[sep - sep.min() < 1e-12]
        assert round(sep.min(), 6) == 0.073037
        assert sorted(np.round(narrowest.imag, 3)) == [-1.916, 1.916]
        assert (np.round(narrowest.real, 3) == 1.572).all()
        sep, F = _refined_minima(cfg, _diagonal, np.pi, pair=0)
        assert round(sep.min(), 6) == 0.077873
        assert F[np.argmin(sep)] == pytest.approx(3.0, abs=1e-12)

        gap = frozen.HETERO_GAP_M1_03          # 0.0052009 at F = 0
        sep, F = _refined_minima(cfg, _circle, np.pi, pair=1)
        assert sep.min() > 100.0 * gap
        sep, F = _refined_minima(cfg, _segment, np.sqrt(3.0), pair=1)
        assert sep.min() == pytest.approx(gap, abs=1e-12)
        assert sep.min() >= gap - 1e-15 and abs(F[np.argmin(sep)]) < 1e-6

    def test_no_formula_off_the_constraint(self):
        with pytest.raises(NoClosedFormError, match="alpha_b"):
            gap_width_closed_form(
                _cfg("hetero_bilayer", aa=-1.0, ab=0.5, t0=0.3))
        with pytest.raises(NoClosedFormError, match="variant"):
            gap_width_closed_form(_cfg("bilayer_aa", aa=0.1, ab=0.2, t0=0.3))


# ------------------------------------------------------------
#  Trilayers
# ------------------------------------------------------------

class TestTrilayers:
    @pytest.mark.parametrize("alpha_n", [-1.0, -0.1, -0.01])
    def test_bngbn_high_symmetry_separations(self, alpha_n):
        cfg = _cfg("trilayer_hbn_g_hbn", aa=alpha_n, ab=-alpha_n, t0=0.3)
        for f_val, expected in frozen.BNGBN_SEPS[alpha_n].items():
            theta = diagonal_theta_for_f(f_val)
            sep = adjacent_separations(cfg, theta)
            assert np.max(np.abs(sep - np.asarray(expected))) < 1e-9

    def test_bngbn_origin_gap(self):
        cfg = _cfg("trilayer_hbn_g_hbn", aa=-1.0, ab=1.0, t0=0.3)
        sep = adjacent_separations(cfg, THETA_K)
        assert sep[2] == pytest.approx(frozen.BNGBN_ORIGIN_GAP_M1, abs=1e-12)

    def test_bngbn_smallest_gap(self):
        cfg = _cfg("trilayer_hbn_g_hbn", aa=-0.1, ab=0.1, t0=0.3)
        reports = classify_touches(sample_diagonal(cfg, n=1001))
        gaps = _kinds(reports, "gap")
        assert gaps
        smallest = min(r.gap_width for r in gaps)
        assert smallest == pytest.approx(frozen.BNGBN_SMALLEST_GAP_M01,
                                         rel=1e-8)

    def test_gbng_cone_and_exact_pair(self):
        cfg = _cfg("trilayer_g_hbn_g", aa=-1.0, ab=1.0, t0=0.3)
        # the symmetric-factor roots are exactly +-|F|/(3 + t0^2)
        for theta in [0.4, 1.3, 2.8]:
            r = roots_at(cfg, theta, route="closed")
            f_abs = abs(1.0 + 2.0 * np.cos(theta))
            by_label = dict(zip(r.branch_labels, r.values))
            assert by_label["p2+"] == pytest.approx(f_abs / frozen.TRI_T1,
                                                    abs=1e-12)
            assert by_label["p2-"] == pytest.approx(-f_abs / frozen.TRI_T1,
                                                    abs=1e-12)
        reports = classify_touches(sample_diagonal(cfg, n=1001))
        cones = [r for r in _kinds(reports, "cone")
                 if abs(abs(r.theta1) - THETA_K) < 1e-6]
        assert cones
        for r in cones:
            assert r.value == pytest.approx(0.0, abs=1e-8)

    def test_gbng_midgap_at_detachment_locus(self):
        cfg = _cfg("trilayer_g_hbn_g", aa=-1.0, ab=1.0, t0=0.3)
        theta = diagonal_theta_for_f(frozen.GBNG_LOCUS_F)
        sep = adjacent_separations(cfg, theta)
        assert sep[2] == pytest.approx(frozen.GBNG_MIDGAP_AT_LOCUS, abs=1e-12)


# ------------------------------------------------------------
#  Two-parameter AA stacking
# ------------------------------------------------------------

class TestTwoParam:
    def test_matched_strengths_cone(self):
        cfg = _cfg("bilayer_aa_two_param", aa=0.25, ab=0.09,
                   t_a=0.5, t_b=0.3)
        r = roots_at(cfg, THETA_K, route="closed")
        assert np.allclose(r.values, frozen.TWOP_CONE_ROOTS_F0, atol=1e-12)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        cones = _kinds(reports, "cone")
        assert cones and all(r.band_pair == (2, 3) for r in cones)
        for rep in cones:
            assert rep.gamma == pytest.approx(frozen.TWOP_CONE_SLOPE, rel=1e-4)

    def test_mixed_signs_parabolic(self):
        cfg = _cfg("bilayer_aa_two_param", aa=-0.25, ab=0.09,
                   t_a=0.5, t_b=0.3)
        r = roots_at(cfg, THETA_K, route="closed")
        assert np.allclose(r.values, frozen.TWOP_PARAB_ROOTS_F0, atol=1e-12)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        assert _kinds(reports, "parabolic")
        assert not _kinds(reports, "cone")

    def test_generic_strengths_gapped(self):
        cfg = _cfg("bilayer_aa_two_param", aa=0.3, ab=0.2,
                   t_a=0.5, t_b=0.3)
        reports = classify_touches(sample_diagonal(cfg, n=501))
        assert {r.kind for r in reports} <= {"gap", "crossing"}
        assert _kinds(reports, "gap")


def _is_prominent_walk(y, i, eps):
    """Reference: walk each side of i until the profile rises above
    y[i] + eps (prominent on that side) or drops below y[i] - eps (not)."""
    m = len(y)
    for direction in (-1, 1):
        j = i
        for _ in range(m):
            j = (j + direction) % m
            if y[j] > y[i] + eps:
                break
            if y[j] < y[i] - eps:
                return False
        else:
            return False
    return True


def _grid_minima_walk(seps, half, eps):
    """Reference for ``_grid_minima``: each column on its own, a flat one
    skipped, and each periodic minimum on the half slice walked."""
    flat, pairs, index = [], [], []
    for pair, column in enumerate(seps.T):
        flat.append(bool(column.max() - column.min() < FLAT_SEP_TOL))
        if flat[-1]:
            continue
        y = column[:-1]
        for i in range(len(y)):
            if ((i == 0 or i >= half) and y[i] < y[i - 1]
                    and y[i] <= y[(i + 1) % len(y)] and _is_prominent_walk(y, i, eps)):
                pairs.append(pair)
                index.append(i)
    return flat, pairs, index


def _assert_grid_minima_match_the_walk(seps, half, eps):
    flat, pairs, index = _grid_minima(seps, half, eps)
    got = (flat.tolist(), pairs.tolist(), index.tolist())
    assert got == _grid_minima_walk(seps, half, eps)


# plateaus, ties and NaN, with steps at the scale of eps
_levels = st.sampled_from([0.0, 1.0, 1.0 + 1e-10, 1.0 + 3e-10, 1.0 - 2e-10,
                           2.0, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda m: st.lists(
           st.lists(_levels, min_size=m, max_size=m), min_size=1, max_size=4)),
       st.data(), st.sampled_from([0.0, 1e-10, 0.5]))
def test_grid_minima_match_the_walk(profiles, data, eps):
    # the periodic profiles (m, pairs), each closed by its first sample, and
    # a flat pair among them
    periodic = np.array(profiles).T
    flat_at = data.draw(st.integers(0, periodic.shape[1]), label="flat_at")
    periodic = np.insert(periodic, flat_at, 0.25, axis=1)
    seps = np.vstack([periodic, periodic[:1]])
    half = data.draw(st.integers(0, len(periodic)), label="half")
    _assert_grid_minima_match_the_walk(seps, half, eps)


def test_grid_minima_blocks_match_the_walk():
    # long enough that the walks of three pairs' minima take several blocks
    rng = np.random.default_rng(7)
    periodic = np.repeat(rng.choice([0.0, 1.0, 1.0 + 1e-10, np.nan], (300, 3)), 3, axis=0)
    seps = np.vstack([periodic, periodic[:1]])
    rows = bands_module.BATCH_BYTES // (8 * len(periodic))
    for half in (0, 450):
        _, pairs, _ = _grid_minima(seps, half, 1e-10)
        assert len(pairs) > rows and set(pairs.tolist()) == {0, 1, 2}
        _assert_grid_minima_match_the_walk(seps, half, 1e-10)
