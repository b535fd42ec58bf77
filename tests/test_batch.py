"""The batch-first engine: batched calls against per-point calls, the memoised
cofactor expansion against determinants, pinned artifact digests, and the
independence of the residual gate from the eigensolver."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexband import bands, floquet
from hexband.bands import roots_at
from hexband.cli import main
from hexband.errors import EngineError, NoClosedFormError
from hexband.floquet import (
    _check_residuals,
    assemble,
    char_poly,
    batch_points,
    closed_form_roots,
    numeric_roots,
)
from hexband.lattice import (
    LAYOUTS,
    CouplingParams,
    FluxSpec,
    StackConfig,
    StackVariant,
    VertexParams,
    structure_function,
)
from hexband.magnetic import (
    _grid_local_minima,
    assemble_robin,
    closed_form_roots_q2,
)

_DIAGONAL_ONLY = {StackVariant.HETERO_BILAYER, StackVariant.TRILAYER_HBN_G_HBN,
                  StackVariant.TRILAYER_G_HBN_G}

# every variant, the magnetic one at q = 1 and at q = 2
CASES = [(v, None) for v in StackVariant if v is not StackVariant.MAGNETIC_MONOLAYER]
CASES += [(StackVariant.MAGNETIC_MONOLAYER, 1), (StackVariant.MAGNETIC_MONOLAYER, 2)]


def _case_id(case):
    variant, q = case
    return variant.value if q is None else f"{variant.value}_q{q}"


def _config(variant, q, aa, ab, t0):
    if variant is StackVariant.MAGNETIC_MONOLAYER:
        return StackConfig(variant, VertexParams(aa, ab), flux=FluxSpec(1, q))
    if variant in _DIAGONAL_ONLY:
        ab = -aa        # where the closed forms exist
    if variant is StackVariant.MONOLAYER:
        coupling = None
    elif variant is StackVariant.BILAYER_AA_TWO_PARAM:
        coupling = CouplingParams(t_a=t0, t_b=0.5 * t0)
    else:
        coupling = CouplingParams(t0=t0)
    return StackConfig(variant, VertexParams(aa, ab), coupling=coupling)


def _routes(cfg):
    """(closed-form roots, assembly) functions of a config."""
    if cfg.variant is not StackVariant.MAGNETIC_MONOLAYER:
        return closed_form_roots, assemble
    if cfg.flux.q == 2:
        return closed_form_roots_q2, assemble_robin
    # the q = 1 cell is the monolayer layout, which the general formulas serve
    return closed_form_roots, assemble_robin


def test_q1_cell_is_the_monolayer_bit_for_bit():
    cfg = _config(StackVariant.MAGNETIC_MONOLAYER, 1, -0.8, 0.6, 0.4)
    mono = StackConfig(StackVariant.MONOLAYER, cfg.vertex)
    t1, t2 = np.random.default_rng(3).uniform(-np.pi, np.pi, (2, 40))
    assert _same_bits(assemble_robin(cfg, t1, t2).affine, assemble(mono, t1, t2).affine)
    cell, layer = closed_form_roots(cfg, t1, t2), closed_form_roots(mono, t1, t2)
    assert _same_bits(cell.values, layer.values)
    assert cell.names == layer.names and _same_bits(cell.order, layer.order)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_angle = st.floats(-np.pi, np.pi, allow_nan=False)


# ============================================================
#  Batched calls equal per-point calls
# ============================================================

@pytest.mark.parametrize("case", CASES, ids=_case_id)
@settings(max_examples=25, deadline=None)
@given(alpha=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       t0=st.floats(0.05, 1.0),
       thetas=st.lists(st.tuples(_angle, _angle), min_size=1, max_size=12))
def test_batch_equals_points_bit_for_bit(case, alpha, t0, thetas):
    variant, q = case
    cfg = _config(variant, q, alpha[0], alpha[1], t0)
    closed_fn, assemble_fn = _routes(cfg)
    t1 = np.array([t[0] for t in thetas])
    t2 = np.array([t[1] for t in thetas])
    # closed forms of the constrained variants hold on the diagonal slice
    c2 = -t1 if variant in _DIAGONAL_ONLY else t2

    closed = closed_fn(cfg, t1, c2)
    fm = assemble_fn(cfg, t1, t2)
    numeric = numeric_roots(fm)
    coeffs = char_poly(fm)
    assert closed.values.shape == numeric.values.shape == (len(t1), cfg.dim)
    assert fm.affine.shape == (len(t1), cfg.dim, cfg.dim)
    assert coeffs.shape == (len(t1), cfg.dim + 1)
    for i in range(len(t1)):
        one = closed_fn(cfg, float(t1[i]), float(c2[i]))
        assert _same_bits(closed.values[i], one.values)
        assert tuple(closed.branch_labels[i]) == one.branch_labels
        assert _same_bits(closed.admissible[i], one.admissible)
        fm_one = assemble_fn(cfg, float(t1[i]), float(t2[i]))
        assert _same_bits(fm.affine[i], fm_one.affine)
        assert _same_bits(numeric.values[i], numeric_roots(fm_one).values)
        # a term that vanishes at this point but not across the batch adds
        # an exact zero, which can only flip the sign of a zero coefficient
        assert np.array_equal(coeffs[i], char_poly(fm_one))


@pytest.mark.parametrize("variant", sorted(_DIAGONAL_ONLY, key=lambda v: v.value),
                         ids=lambda v: v.value)
def test_batch_off_the_slice_names_the_servable_points(variant):
    cfg = _config(variant, None, -0.8, 0.8, 0.4)
    t1 = np.array([0.3, 0.7, -1.2, 2.0])
    t2 = np.array([-0.3, 0.1, 1.2, 0.5])
    with pytest.raises(NoClosedFormError) as info:
        closed_form_roots(cfg, t1, t2)
    assert info.value.servable.tolist() == [True, False, True, False]
    unpaired = StackConfig(variant, VertexParams(-0.8, 0.5),
                           coupling=CouplingParams(t0=0.4))
    with pytest.raises(NoClosedFormError) as info:
        closed_form_roots(unpaired, t1, -t1)
    assert info.value.servable is None


def _grid_local_minima_loop(sep):
    # the point-by-point scan the vectorised zone scan replaced
    n1, n2 = sep.shape
    out = []
    for i in range(n1):
        for j in range(n2):
            neigh = [sep[a, b] for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                     if 0 <= a < n1 and 0 <= b < n2]
            if all(sep[i, j] < w for w in neigh):
                out.append((i, j))
    return out


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 7), st.integers(1, 7)), data=st.data())
def test_grid_local_minima_matches_the_loop(shape, data):
    # small integer levels make plateaus and ties, where strictness matters
    levels = data.draw(st.lists(st.integers(0, 3), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    sep = np.array(levels, dtype=float).reshape(shape)
    assert _grid_local_minima(sep) == _grid_local_minima_loop(sep)


# ============================================================
#  Memoised cofactor expansion against determinants
# ============================================================

@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_char_poly_matches_determinant_interpolation(case):
    variant, q = case
    rng = np.random.default_rng(29)
    for _ in range(10):
        aa, ab = rng.uniform(-2.0, 2.0, 2)
        cfg = _config(variant, q, aa, ab, rng.uniform(0.05, 1.0))
        _, assemble_fn = _routes(cfg)
        fm = assemble_fn(cfg, *rng.uniform(-np.pi, np.pi, 2))
        n = fm.dim
        # det(A - eta D) at n + 1 Chebyshev nodes fixes the degree-n polynomial
        nodes = np.cos(np.pi * (np.arange(n + 1) + 0.5) / (n + 1))
        dets = [np.linalg.det(fm.affine - eta * np.diag(fm.diag_scale))
                for eta in nodes]
        reference = np.linalg.solve(np.vander(nodes, increasing=True), dets).real
        coeffs = char_poly(fm)
        assert np.max(np.abs(coeffs - reference)) <= 1e-12 * np.max(np.abs(reference))


# ============================================================
#  The residual gate's per-config tensor
# ============================================================

def _unpaired_config(variant, q, alphas, t):
    """A config with three independent alphas (alpha_c where the layout
    reads it) and couplings t, 0.7 t."""
    names = sorted({name for _, _, name in LAYOUTS[variant].bonds})
    aa, ab, ac = alphas
    ac = ac if "alpha_c" in LAYOUTS[variant].fields else 0.0
    coupling = (CouplingParams(**dict(zip(names, (t, 0.7 * t)))) if names else None)
    return StackConfig(variant, VertexParams(aa, ab, ac), coupling=coupling,
                       flux=FluxSpec(1, q) if q else None)


@pytest.mark.parametrize("case", CASES[:-1], ids=_case_id)    # all but the q = 2 cell
@settings(max_examples=25, deadline=None)
@given(alphas=st.tuples(*[st.floats(-2.0, 2.0)] * 3), t=st.floats(0.05, 1.0),
       thetas=st.lists(st.tuples(_angle, _angle), min_size=1, max_size=6))
def test_gate_tensor_at_F_is_char_poly(case, alphas, t, thetas):
    cfg = _unpaired_config(*case, alphas, t)
    t1 = np.array([theta[0] for theta in thetas])
    t2 = np.array([theta[1] for theta in thetas])
    reference = char_poly(assemble(cfg, t1, t2))
    coeffs = floquet._gate_coefficients(cfg, structure_function(t1, t2))
    scale = np.max(np.abs(reference), axis=1, keepdims=True)
    assert np.all(np.abs(coeffs - reference) <= 1e-13 * scale)


def test_classify_expands_each_config_once(tmp_path, monkeypatch):
    floquet._gate_tensor.cache_clear()
    expansions = []
    expand = floquet.char_poly
    monkeypatch.setattr(floquet, "char_poly", lambda fm, f_at=None: (
        expansions.append(f_at is not None) or expand(fm, f_at)))
    stacks = [{"variant": "trilayer_hbn_g_hbn", "alpha_a": 0.4, "alpha_b": -0.4,
               "t0": 0.5},
              {"variant": "bilayer_aa", "alpha_a": 0.9, "alpha_b": -0.2, "t0": 0.6}]
    for k, stack in enumerate(stacks):
        config = tmp_path / f"{k}.json"
        config.write_text(json.dumps({"schema_version": 1, "stack": stack,
                                      "outputs": ["plot", "spectrum"]}))
        assert main(["classify", "--config", str(config),
                     "--out", str(tmp_path / str(k))]) == 0
        # every gated batch of the run reads the one expansion of its stack
        assert expansions == [True] * (k + 1)
    assert floquet._gate_tensor.cache_info().misses == 2


# ============================================================
#  The two routes stay independent
# ============================================================

def test_cofactor_route_never_reaches_the_eigensolver(monkeypatch):
    cfg = _config(StackVariant.TRILAYER_G_HBN_G, None, -0.6, 0.6, 0.7)
    theta = np.linspace(-np.pi, np.pi, 9)
    values = closed_form_roots(cfg, theta, -theta).values
    fm = assemble(cfg, theta, -theta)
    F = structure_function(theta, -theta)

    def forbidden(*args, **kwargs):
        raise AssertionError("the cofactor route called an eigensolver")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    floquet._gate_tensor.cache_clear()      # the expansion runs under the patch
    assert char_poly(fm).shape == (9, 7)
    _check_residuals(cfg, F, values)
    _check_residuals(cfg, F[2:3], values[2])
    with pytest.raises(EngineError):
        _check_residuals(cfg, F, values + 1e-5)


# ============================================================
#  The root dispatcher
# ============================================================

def _eigensolver_reference(cfg, t1, t2):
    if cfg.variant is StackVariant.MAGNETIC_MONOLAYER:
        # the Robin cells' artifacts come from eigvalsh(A) / 3 (unit scales
        # 3), which differs from numeric_roots in the last bits
        return np.linalg.eigvalsh(assemble_robin(cfg, t1, t2).affine) / 3.0
    return numeric_roots(assemble(cfg, t1, t2)).values


def _batch_sizes(n, dim):
    """The points of each engine batch that ``roots_at`` makes of n points."""
    size = batch_points(dim)
    return [min(size, n - start) for start in range(0, n, size)]


@pytest.mark.parametrize("route", ["auto", "closed", "numeric"])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_roots_at_serves_each_point_by_its_route(case, route):
    variant, q = case
    cfg = _config(variant, q, -0.8, 0.6, 0.4)
    rng = np.random.default_rng(5)
    n = batch_points(4) + 90    # several engine batches at d = 4 and d = 6
    t1, t2 = rng.uniform(-np.pi, np.pi, (2, n))
    t2[::3] = -t1[::3]          # every third point on the diagonal slice
    if route == "numeric" or (route == "auto" and q == 1):
        formulas = np.zeros(n, dtype=bool)
    elif variant in _DIAGONAL_ONLY:
        formulas = np.arange(n) % 3 == 0
    else:
        formulas = np.ones(n, dtype=bool)

    roots = roots_at(cfg, t1, t2, route=route)
    assert roots.closed.tolist() == formulas.tolist()
    closed_fn, _ = _routes(cfg)
    if formulas.any():
        assert _same_bits(roots.values[formulas],
                          closed_fn(cfg, t1[formulas], t2[formulas]).values)
    if not formulas.all():
        assert _same_bits(roots.values[~formulas], _eigensolver_reference(
            cfg, t1[~formulas], t2[~formulas]))
    assert np.array_equal(roots.admissible, np.abs(roots.values) <= 1.0 + 1e-12)
    # labels only where every point has them
    assert (len(roots.branch_labels) > 0) == bool(formulas.all())
    one = roots_at(cfg, t1[0], t2[0], route=route)
    assert _same_bits(one.values, roots.values[0])
    assert one.closed.shape == () and bool(one.closed) == formulas[0]
    assert isinstance(one.branch_labels, tuple)


def test_roots_at_keeps_one_small_sort_order_per_point():
    # the branch names are stored once, and each point carries an int8
    # permutation of them, whether the points take one engine batch or more
    cfg = _config(StackVariant.MAGNETIC_MONOLAYER, 2, -0.8, 0.6, 0.4)
    for n in (10, 3 * batch_points(4) + 5):
        t1, t2 = np.random.default_rng(7).uniform(-np.pi, np.pi, (2, n))
        roots = roots_at(cfg, t1, t2)
        assert roots.names == ("in-", "in+", "out-", "out+")
        assert roots.order.dtype == np.int8 and roots.order.shape == (n, 4)
        for i in (0, n // 2, n - 1):
            one = roots_at(cfg, t1[i], t2[i])
            assert one.order.dtype == np.int8
            assert tuple(roots.branch_labels[i]) == one.branch_labels
            assert one.branch_labels == tuple(roots.names[k] for k in one.order)


def _count_closed_form_calls(monkeypatch):
    calls = []
    original = bands.closed_form_roots

    def counting(config, theta1, theta2):
        calls.append(np.size(theta1))
        return original(config, theta1, theta2)

    monkeypatch.setattr(bands, "closed_form_roots", counting)
    return calls


def test_roots_at_evaluates_scattered_closed_form_points_together(monkeypatch):
    cfg = _config(StackVariant.TRILAYER_HBN_G_HBN, None, -0.8, 0.8, 0.4)
    batch = batch_points(6)
    n = 10 * batch              # ten engine batches at d = 6
    diagonal = np.arange(n) % 7 == 0
    t1 = np.linspace(-3.0, 3.0, n)
    t2 = np.where(diagonal, -t1, 0.5 * t1)
    calls = _count_closed_form_calls(monkeypatch)
    roots = roots_at(cfg, t1, t2)
    # one refused call per batch, then the diagonal points in two batches
    together = _batch_sizes(int(diagonal.sum()), 6)
    assert len(together) == 2
    assert calls == [batch] * 10 + together
    assert roots.closed.tolist() == diagonal.tolist()


def test_roots_at_stops_trying_formulas_the_parameters_lack(monkeypatch):
    unpaired = StackConfig(StackVariant.HETERO_BILAYER, VertexParams(-0.8, 0.5),
                           coupling=CouplingParams(t0=0.4))
    theta = np.linspace(-np.pi, np.pi, 4 * batch_points(4) + 45)   # five batches
    calls = _count_closed_form_calls(monkeypatch)
    roots = roots_at(unpaired, theta, -theta)
    assert calls == [batch_points(4)]
    assert not roots.closed.any() and roots.branch_labels == ()
    assert _same_bits(roots.values, _eigensolver_reference(unpaired, theta, -theta))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_roots_at_bits_do_not_depend_on_the_batch_budget(case, monkeypatch):
    # every formula is elementwise and eigvalsh works matrix by matrix, so
    # the budget that sizes the engine batches moves no bit: 16 KiB, the
    # earlier budget, cuts the same points into more batches
    variant, q = case
    cfg = _config(variant, q, -0.8, 0.6, 0.4)
    rng = np.random.default_rng(11)
    n = 2 * batch_points(4) + 7
    t1, t2 = rng.uniform(-np.pi, np.pi, (2, n))
    t2[::3] = -t1[::3]          # both routes for the diagonal-only stacks
    routes = ("auto", "numeric")
    now = [roots_at(cfg, t1, t2, route=route) for route in routes]
    batches = len(_batch_sizes(n, cfg.dim))
    monkeypatch.setattr(floquet, "BATCH_BYTES", 16 * 1024)
    assert len(_batch_sizes(n, cfg.dim)) > batches
    for route, roots in zip(routes, now):
        before = roots_at(cfg, t1, t2, route=route)
        assert _same_bits(before.values, roots.values)
        assert _same_bits(before.closed, roots.closed)
        assert before.names == roots.names
        assert _same_bits(before.order, roots.order)


# ============================================================
#  Pinned artifact digests
# ============================================================

# SHA-256 of each artifact as the point-by-point engine wrote it; batching
# must reproduce every byte.  The rows after the first three pin the paths of
# the root dispatcher that the first three do not reach: a grid that mixes
# both routes (and so both values of the ``source`` column), the magnetic
# q = 1 cell on its eigensolver route, and validate's forced routes.
_HETERO = {"variant": "hetero_bilayer", "alpha_a": -0.8, "alpha_b": 0.8,
           "t0": 0.4}
_FLUX_Q1 = {"variant": "magnetic_monolayer", "alpha_a": -0.5, "alpha_b": 0.9,
            "flux_p": 1, "flux_q": 1}
_FLUX_Q2 = dict(_FLUX_Q1, flux_q=2)
_FULL_21 = {"kind": "full", "n": 21}
_DIAGONAL_201 = {"kind": "diagonal", "n": 201}
_DIAGONAL_501 = {"kind": "diagonal", "n": 501}
_AA_PRIME_FLAT = {"variant": "bilayer_aa_prime", "alpha_a": 0.0, "alpha_b": 0.0,
                  "t0": 1.0}
_FLUX_Q2_CONE = {"variant": "magnetic_monolayer", "alpha_a": -1.0,
                 "alpha_b": -1.0, "flux_p": 1, "flux_q": 2}
GOLDEN = [
    pytest.param(
        "bands", {"variant": "bilayer_aa_prime", "alpha_a": -0.7,
                  "alpha_b": 0.4, "t0": 0.3}, _FULL_21, "bands.csv",
        "7f52dd9ea1d8fbd76e741ac7938a228f5b31ba07978ec6187eba25411a0be82e",
        id="bands.csv"),
    pytest.param(
        "classify", {"variant": "trilayer_g_hbn_g", "alpha_a": -0.8,
                     "alpha_b": 0.8, "t0": 0.5}, {"kind": "diagonal", "n": 501},
        "report.txt",
        "be7b7e477cfe26721e9caca61c5608395b39be4b47fce85d8d7a3933f8959827",
        id="report.txt"),
    pytest.param(
        "magnetic", _FLUX_Q2, {"kind": "diagonal", "n": 31}, "magnetic.txt",
        "2e0174c9c50d29a76cfdd847c772738e89bfd449acb902a63d421b3d4896c857",
        id="magnetic.txt"),
    pytest.param(
        "bands", _HETERO, _FULL_21, "bands.csv",
        "f386acee9fcb25a3d1816d720e92e6038c9b7c7549a5967440e98fc3d97bcc15",
        id="bands.csv-hetero_bilayer-mixed_routes"),
    pytest.param(
        "bands", _FLUX_Q1, _FULL_21, "bands.csv",
        "d7e007a3c0acb5538bc9012923e35e750e7f93eb1ece88a6b3b4a3f0658bf2c1",
        id="bands.csv-magnetic_q1"),
    pytest.param(
        "magnetic", _FLUX_Q1, {"kind": "diagonal", "n": 31}, "magnetic.txt",
        "499e141f9b1ee1ab97eb2378c361e0d95b0dc1e530f2e1162d09ae388a86e223",
        id="magnetic.txt-q1"),
    pytest.param(
        "validate", {"variant": "trilayer_hbn_g_hbn", "alpha_a": -0.8,
                     "alpha_b": 0.8, "t0": 0.5}, _FULL_21, "validate.txt",
        "43a2ce2c6c441d8c1149240152454a2c2786fa218f83efe08ef8aba9d5a0053c",
        id="validate.txt-trilayer_hbn_g_hbn"),
    pytest.param(
        "validate", _FLUX_Q1, _FULL_21, "validate.txt",
        "f8601c94838ea0162369c6188a37f3df7fa5b2c927dff00ea07ee33ff7389645",
        id="validate.txt-magnetic_q1"),
    pytest.param(
        "validate", _FLUX_Q2, _FULL_21, "validate.txt",
        "89047fa6654ac9c49563143d0a6e8f2627e3fade48e391f117a678384a668a85",
        id="validate.txt-magnetic_q2"),
    # zero-potential spectra: the closed-form monodromy and the lockstep root
    # finder give the bits that one brentq call per root gave
    pytest.param(
        "spectrum", {"variant": "monolayer", "alpha_a": 0.0, "alpha_b": 0.0},
        _DIAGONAL_201, "spectrum.csv",
        "e386f08b523c7731d120d0689508a3fee6e7752afe4cb9b18520cfcabcd27167",
        id="spectrum.csv-monolayer"),
    pytest.param(
        "spectrum", {"variant": "bilayer_aa_prime", "alpha_a": -0.7,
                     "alpha_b": 0.4, "t0": 0.3}, _DIAGONAL_201, "spectrum.csv",
        "c96c2aee675167878f15aff2b84ddcbce157efeb79dcf387f7a53fde937e9339",
        id="spectrum.csv-bilayer_aa_prime"),
    pytest.param(
        "spectrum", {"variant": "trilayer_g_hbn_g", "alpha_a": -0.8,
                     "alpha_b": 0.8, "t0": 0.5}, _DIAGONAL_201, "spectrum.csv",
        "b4cafceba7a3f6b9fecdc3e9320ec47d5abcab1f2aafe21aa96b903181891907",
        id="spectrum.csv-trilayer_g_hbn_g"),
    pytest.param(      # one eta interval skipped, the other clipped
        "spectrum", {"variant": "monolayer", "alpha_a": 4.0, "alpha_b": 4.0},
        _DIAGONAL_201, "spectrum.csv",
        "ae9943c89738951ddedca3a8c4f4f700549d08598c019eb2411e8115563e8e1c",
        id="spectrum.csv-clipped_and_skipped"),
    # one full grid per layout that the rows above leave unpinned, and a
    # report whose crossings read the branch labels
    pytest.param(
        "bands", {"variant": "monolayer", "alpha_a": -0.5, "alpha_b": 0.9},
        _FULL_21, "bands.csv",
        "f411ec0d50cdbdf63ab93993ed485c7c91f0d707393a40b931f52f6ba42dc12f",
        id="bands.csv-monolayer"),
    pytest.param(
        "bands", {"variant": "bilayer_aa", "alpha_a": -0.7, "alpha_b": 0.4,
                  "t0": 0.3}, _FULL_21, "bands.csv",
        "5597e07eb2ba1e44102f0f56e409be7a4eb926017d401f4f2e477e417d32dcad",
        id="bands.csv-bilayer_aa"),
    pytest.param(
        "bands", {"variant": "bilayer_aa_two_param", "alpha_a": -0.7,
                  "alpha_b": 0.4, "t_a": 0.6, "t_b": 0.35}, _FULL_21, "bands.csv",
        "a104fc19aae8dce5fd19008e47144422fd7a7bdb01f7e9cabe27dabde01065ab",
        id="bands.csv-bilayer_aa_two_param"),
    pytest.param(
        "bands", {"variant": "trilayer_hbn_g_hbn", "alpha_a": -0.8,
                  "alpha_b": 0.8, "t0": 0.5}, _FULL_21, "bands.csv",
        "0ef589a98e42596502c22db29893341d0ef7a2cec1d6b22689fbe981a8d1bdf8",
        id="bands.csv-trilayer_hbn_g_hbn"),
    pytest.param(      # two crossings between two gaps
        "classify", {"variant": "bilayer_aa", "alpha_a": -0.3, "alpha_b": 0.2,
                     "t0": 0.6}, {"kind": "diagonal", "n": 501}, "report.txt",
        "77fe03eb829441d2af12ca13843d267fa446fdb5c8c98bf76a916d61ad0819f6",
        id="report.txt-bilayer_aa"),
    # records the rows above leave unpinned: a parabolic contact (with
    # crossings and a cone), cones on the eigensolver route, the plot's
    # markers, and a cone in each reduced zone
    pytest.param(
        "classify", _AA_PRIME_FLAT, _DIAGONAL_501, "report.txt",
        "3f0679ada862ed08d2bb78708c83d110da0508164f4e8c094ecf19577688fb9d",
        id="report.txt-bilayer_aa_prime-parabolic"),
    pytest.param(
        "classify", {"variant": "trilayer_hbn_g_hbn", "alpha_a": 1.0,
                     "alpha_b": 1.0, "t0": 1.0}, _DIAGONAL_501, "report.txt",
        "993cd4151bad7141caa8500ec26a2af165a4486fda5b144ac121a74d4b164176",
        id="report.txt-trilayer_hbn_g_hbn-numeric"),
    pytest.param(
        "plot", _AA_PRIME_FLAT, _DIAGONAL_501, "bands.svg",
        "ce965ac30e042c4407824e8c9045cb4ece5ce3e6c33c907f6065e16cf7a77c05",
        id="bands.svg-bilayer_aa_prime"),
    pytest.param(
        "magnetic", _FLUX_Q2_CONE, {"kind": "diagonal", "n": 101}, "magnetic.txt",
        "016601597d78084b1c2d776765045bb564200db9478797b0e2be40a7b949c1fe",
        id="magnetic.txt-q2-cone"),
    pytest.param(
        "magnetic", dict(_FLUX_Q2_CONE, flux_q=1), {"kind": "diagonal", "n": 101},
        "magnetic.txt",
        "fbd6cb521dc50c214560b7165c637b200f71072aeb9d851a2fbf801c4d4519fe",
        id="magnetic.txt-q1-cone"),
    # the slice header of gaps.txt on both routes, with and without a
    # closed-form gap
    pytest.param(
        "gaps", _HETERO, _DIAGONAL_501, "gaps.txt",
        "045c2b5341ad7f3dc5e83e3cb3c2619a05c291d07754b714cf6f6eedbc648fcc",
        id="gaps.txt-hetero_bilayer-closed"),
    pytest.param(
        "gaps", {"variant": "trilayer_hbn_g_hbn", "alpha_a": 0.4, "alpha_b": -0.3,
                 "alpha_c": 0.2, "t0": 0.5}, _DIAGONAL_501, "gaps.txt",
        "d0f68b7c4bb36a38fcd3114a539ea8e48cb5d44a82ee189f40bb157ed7d848e5",
        id="gaps.txt-trilayer_hbn_g_hbn-numeric"),
    # bands.csv on the diagonal slice (theta2 = -theta1, F real) and on the
    # full grid of the one layout no row above writes it for
    pytest.param(
        "bands", _HETERO, _DIAGONAL_201, "bands.csv",
        "343390702d221348fcab3b685ec835b07741e305f97b7231dcea5a6e064219f3",
        id="bands.csv-hetero_bilayer-diagonal"),
    pytest.param(
        "bands", {"variant": "trilayer_g_hbn_g", "alpha_a": -0.8,
                  "alpha_b": 0.8, "t0": 0.5}, _FULL_21, "bands.csv",
        "9e67dee03ceb03ed18d4a40b7d0599772998e4fcef9e5da243f19dc284ae2f18",
        id="bands.csv-trilayer_g_hbn_g"),
]


# sampled-potential spectra pin the bits of the Magnus integrator: a
# period-1/2 potential on five knots under a monolayer with alpha_a, alpha_b
# > 0 (the benchmark's sampled jobs), and nine knots whose eight pieces need
# one step halving, with a Dirichlet scan of 391 lambdas over two lane chunks
_KNOTS_5 = [0.0, 0.25, 0.5, 0.75, 1.0]
_KNOTS_9 = [k / 8.0 for k in range(9)]
GOLDEN_SAMPLED = [
    pytest.param(
        {"variant": "monolayer", "alpha_a": 0.6, "alpha_b": 1.2},
        {"kind": "sampled", "x": _KNOTS_5, "values": [1.5, -2.0, 1.5, -2.0, 1.5]},
        "74113dc1a0702bfc9d261217ec47ddc7c5df6d345adb77f7dce2466e13a0b374",
        id="spectrum.csv-monolayer-period_half"),
    pytest.param(
        {"variant": "bilayer_aa_prime", "alpha_a": -0.7, "alpha_b": 0.4,
         "t0": 0.3},
        {"kind": "sampled", "x": _KNOTS_9,
         "values": [0.0, 4.0, -1.0, 6.0, 2.0, 6.0, -1.0, 4.0, 0.0]},
        "927343d69fa043c93c303c55f6248b491c03dc93003dcf72f72062e31f9def54",
        id="spectrum.csv-bilayer_aa_prime-nine_knots"),
]


def _artifact_sha256(tmp_path, command, config, artifact):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, **config}))
    outdir = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(outdir)]) == 0
    return hashlib.sha256((outdir / artifact).read_bytes()).hexdigest()


@pytest.mark.parametrize("command,stack,grid,artifact,digest", GOLDEN)
def test_artifact_digest_is_pinned(tmp_path, command, stack, grid, artifact,
                                   digest):
    config = {"stack": stack, "grid": grid}
    assert _artifact_sha256(tmp_path, command, config, artifact) == digest


@pytest.mark.parametrize("stack,potential,digest", GOLDEN_SAMPLED)
def test_sampled_spectrum_digest_is_pinned(tmp_path, stack, potential, digest):
    config = {"stack": stack, "grid": _DIAGONAL_201, "potential": potential}
    assert _artifact_sha256(tmp_path, "spectrum", config,
                            "spectrum.csv") == digest


def test_sampled_spectrum_lists_the_top_dirichlet_point(tmp_path):
    # the 4th Dirichlet eigenvalue ends the last band's bracket and is the
    # scan's lam_max; like the zero potential's, the spectrum lists all 4
    stack, potential, _ = GOLDEN_SAMPLED[0].values
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "stack": stack,
                                "grid": _DIAGONAL_201, "potential": potential}))
    assert main(["spectrum", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows].count("pp") == 4
