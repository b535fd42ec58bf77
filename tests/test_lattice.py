"""Tests for the lattice-level model: parameters, grids, structure function."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from hexband import (
    CouplingParams,
    FluxSpec,
    GridError,
    InputError,
    StackConfig,
    StackVariant,
    VertexParams,
    diagonal_slice,
    full_grid,
    structure_function,
)
from hexband.lattice import LAYOUTS

import frozen


# ============================================================
#  Structure function
# ============================================================

def _fsq(theta1, theta2):
    return np.abs(structure_function(theta1, theta2)) ** 2


def test_fsq_identity_on_random_draws():
    # |F|^2 = 1 + 8 cos((t1 - t2)/2) cos(t1/2) cos(t2/2)
    rng = np.random.default_rng(20260819)
    t1 = rng.uniform(-np.pi, np.pi, 10_000)
    t2 = rng.uniform(-np.pi, np.pi, 10_000)
    product = 1.0 + 8.0 * np.cos((t1 - t2) / 2.0) * np.cos(t1 / 2.0) * np.cos(t2 / 2.0)
    np.testing.assert_allclose(_fsq(t1, t2), product, rtol=0.0, atol=1e-12)


def test_fsq_range_and_extrema():
    assert _fsq(0.0, 0.0) == pytest.approx(9.0, abs=1e-15)
    for sign in (1.0, -1.0):
        z = _fsq(sign * 2.0 * np.pi / 3.0, -sign * 2.0 * np.pi / 3.0)
        assert abs(z) < 1e-15
    rng = np.random.default_rng(7)
    vals = _fsq(rng.uniform(-np.pi, np.pi, 5000),
                rng.uniform(-np.pi, np.pi, 5000))
    assert vals.min() >= -1e-12
    assert vals.max() <= 9.0 + 1e-12


def test_fsq_raw_grid_minimum():
    # +-(2 pi/3, -2 pi/3) lie off the inclusive 1001-point axis, so the grid
    # minimum of |F|^2 stays away from 0; its maximum 9 lies on it at (0, 0)
    fsq = _fsq(*full_grid(1001))
    assert fsq.min() == pytest.approx(frozen.FSQ_RAW_GRID_MIN_1001, rel=1e-12)
    assert fsq.max() == 9.0


def test_structure_function_conjugation_symmetry():
    rng = np.random.default_rng(3)
    t1 = rng.uniform(-np.pi, np.pi, 100)
    t2 = rng.uniform(-np.pi, np.pi, 100)
    np.testing.assert_allclose(structure_function(-t1, -t2),
                               np.conj(structure_function(t1, t2)),
                               rtol=0.0, atol=1e-14)


def test_diagonal_slice_is_real_f():
    th = diagonal_slice(501)
    F = structure_function(th, -th)
    np.testing.assert_allclose(F.imag, 0.0, atol=1e-14)
    np.testing.assert_allclose(F.real, 1.0 + 2.0 * np.cos(th), atol=1e-14)


# ============================================================
#  Grids
# ============================================================

def test_diagonal_slice_endpoints_inclusive():
    th = diagonal_slice(5)
    assert th[0] == pytest.approx(-np.pi)
    assert th[-1] == pytest.approx(np.pi)
    assert len(th) == 5


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "10"])
def test_diagonal_slice_rejects_bad_n(bad):
    with pytest.raises(GridError):
        diagonal_slice(bad)


def test_full_grid_shape_and_bounds():
    g1, g2 = full_grid(11)
    assert g1.shape == (11, 11)
    assert g1[0, 0] == pytest.approx(-np.pi)
    assert g2[-1, -1] == pytest.approx(np.pi)
    with pytest.raises(GridError):
        full_grid(1)


def test_full_grid_axis_is_mirror_symmetric_bit_for_bit():
    # so theta and -theta give conjugate F at every point, which roots_at
    # serves with one engine row; an odd n's centre is +0.0, not -0.0
    for n in range(2, 102):
        g1, g2 = full_grid(n)
        axis = g2[0]
        assert (g1 == axis[:, None]).all() and (g2 == axis).all()
        assert axis[0] == -np.pi and axis[-1] == np.pi
        bits, mirrored = axis.view(np.int64), (-axis[::-1]).view(np.int64)
        centre = n // 2 if n % 2 else None
        assert [i for i in range(n) if bits[i] != mirrored[i]] == (
            [] if centre is None else [centre])
        assert centre is None or bits[centre] == 0
        F = structure_function(g1, g2) + 0.0       # -0.0 parts read as 0.0
        conj = np.conj(F[::-1, ::-1]) + 0.0
        assert F.tobytes() == conj.tobytes()


def test_full_grid_axis_lies_on_linspace():
    # within 5e-16 of the exact grid of the float pi, where linspace strays
    # up to 1.03e-15; so within 1.2e-15 of linspace (1.11e-15 at n = 96,
    # at most 8.9e-16 at every other n here) and equal to it at n = 71
    pi = Fraction(np.pi)
    for n in range(2, 102):
        axis = full_grid(n)[1][0]
        exact = [pi * (2 * i - (n - 1)) / (n - 1) for i in range(n)]
        assert max(abs(Fraction(a) - e) for a, e in zip(axis.tolist(), exact)) < 5e-16
        assert np.abs(axis - np.linspace(-np.pi, np.pi, n)).max() < 1.2e-15
    assert full_grid(71)[1][0].tobytes() == np.linspace(-np.pi, np.pi, 71).tobytes()


# ============================================================
#  Parameter validation
# ============================================================

def test_coupling_range():
    CouplingParams(t0=1.0)
    CouplingParams(t0=0.3)
    with pytest.raises(InputError):
        CouplingParams(t0=0.0)
    with pytest.raises(InputError):
        CouplingParams(t0=1.5)
    with pytest.raises(InputError):
        CouplingParams(t_a=0.5, t_b=-0.1)


def test_flux_spec_reduces_and_validates():
    f = FluxSpec(p=2, q=4)
    assert (f.p, f.q) == (1, 2)
    with pytest.raises(InputError):
        FluxSpec(p=0, q=2)
    with pytest.raises(InputError):
        FluxSpec(p=-1, q=1)
    with pytest.raises(InputError):
        FluxSpec(p=1.5, q=2)


def test_stack_config_validation():
    StackConfig(StackVariant.MONOLAYER, VertexParams(1.0, -1.0))
    with pytest.raises(InputError):
        StackConfig(StackVariant.MONOLAYER, coupling=CouplingParams(t0=0.3))
    with pytest.raises(InputError):
        StackConfig(StackVariant.BILAYER_AA, VertexParams())
    with pytest.raises(InputError):
        StackConfig(StackVariant.BILAYER_AA_TWO_PARAM,
                    coupling=CouplingParams(t0=0.3))
    with pytest.raises(InputError):
        StackConfig(StackVariant.BILAYER_AA,
                    coupling=CouplingParams(t0=0.3),
                    flux=FluxSpec(1, 2))
    with pytest.raises(InputError):
        StackConfig(StackVariant.MAGNETIC_MONOLAYER)
    with pytest.raises(InputError):
        StackConfig(StackVariant.MAGNETIC_MONOLAYER, flux=FluxSpec(1, 3))
    # a coupling the layout does not read is named, not ignored
    with pytest.raises(InputError, match="t_a"):
        StackConfig(StackVariant.BILAYER_AA, coupling=CouplingParams(t0=0.3, t_a=0.9))
    with pytest.raises(InputError, match="t0"):
        StackConfig(StackVariant.BILAYER_AA_TWO_PARAM,
                    coupling=CouplingParams(t0=0.3, t_a=0.5, t_b=0.4))
    with pytest.raises(InputError, match="t0"):
        StackConfig(StackVariant.MAGNETIC_MONOLAYER, coupling=CouplingParams(t0=0.3),
                    flux=FluxSpec(1, 2))


def test_stack_dims():
    assert StackConfig(StackVariant.MONOLAYER).dim == 2
    assert StackConfig(StackVariant.BILAYER_AA,
                       coupling=CouplingParams(t0=0.3)).dim == 4
    assert StackConfig(StackVariant.TRILAYER_G_HBN_G,
                       coupling=CouplingParams(t0=0.3)).dim == 6
    assert StackConfig(StackVariant.MAGNETIC_MONOLAYER,
                       flux=FluxSpec(1, 2)).dim == 4


def test_layouts_give_settings_and_closed_form_domain():
    fields = {v: LAYOUTS[v].fields for v in StackVariant}
    assert fields[StackVariant.MONOLAYER] == {"alpha_a", "alpha_b"}
    assert fields[StackVariant.MAGNETIC_MONOLAYER] == {"alpha_a", "alpha_b",
                                                       "flux_p", "flux_q"}
    assert fields[StackVariant.BILAYER_AA] == {"alpha_a", "alpha_b", "t0"}
    assert fields[StackVariant.BILAYER_AA_TWO_PARAM] == {"alpha_a", "alpha_b",
                                                         "t_a", "t_b"}
    assert fields[StackVariant.HETERO_BILAYER] == {"alpha_a", "alpha_b",
                                                   "alpha_c", "t0"}
    paired = {v for v in StackVariant if LAYOUTS[v].paired}
    assert paired == {StackVariant.HETERO_BILAYER, StackVariant.TRILAYER_HBN_G_HBN,
                      StackVariant.TRILAYER_G_HBN_G}
    # every vertex of a layout lies in one of its layers
    for layout in LAYOUTS.values():
        assert all(max(i, j) < 2 * len(layout.layers) for i, j, _ in layout.bonds)
