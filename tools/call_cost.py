"""Microseconds per ``bands.roots_at`` call on the refiners' small batches,
per band chart and classifier grid scan of a diagonal slice, milliseconds
per Hill scan and inversion of a sampled potential, milliseconds per
``roots_at`` call on a paired stack's full grid, microseconds per
residual-gate tensor of a fresh config, and milliseconds per ``bands.csv``
text of a full grid.

    python3 tools/call_cost.py

The refiners evaluate the dispersion in lockstep rounds of a few points, so
a classify job makes about a thousand ``roots_at`` calls whose cost is
numpy's fixed cost per operation, not their points.  The first table
prints, for each variant and the route that serves it, the time of one call
at 1 and at 8 points: the best of 5 timings of ``REPEAT`` calls on the same
points.  Stack points lie on the diagonal slice theta2 = -theta1, where the
refiners work; flux-cell points lie in the q = 2 reduced zone.  A paired
stack (alpha_b = -alpha_a, alpha_c = 0) takes the closed forms there, an
unpaired one the eigensolver; the q = 1 cell takes ``eigvalsh(A) / 3`` and
the q = 2 cell its radical roots.

The second table prints, for each stack route, the serialization and scan
layers of a ``plot`` or ``classify`` job on the n = 501 slice: one
``svgplot.render_band_chart`` call with the slice's classified features,
and one grid scan of ``classify_touches`` (``bands._grid_minima`` over the
slice's separations), each the best of 5 timings of ``REPEAT // 20`` calls.

The third table prints, for fixed sampled potentials, the Hill layers of a
``spectrum`` job: one scan of the half-edge map for bands 1-4
(``hill._band_edges``) on a fresh potential, so with its step-halving gate
and its grids built, and the grid the gate picked (its halvings of the
base grid and its steps on the half edge); one inversion of the eta ends of
a monolayer spectrum like the benchmark's, alpha = (0.6, 1.2) on the
n = 201 diagonal, in bands 1-4 (``invert_discriminant``, its edges served
from the scan record); and the monodromies the two evaluate.
The times are the best of 5 timings of ``REPEAT // 40`` calls.  The
potentials are the benchmark's period-1/2 knots, 5 cos 2 pi x on 201 knots
and double wells of height 250 and 800.

The fourth table prints, for each paired stack's route of the first table,
the time of one ``roots_at`` call on the 71 x 71 full grid of a ``bands``
job (the best of 5 timings of ``REPEAT // 40`` calls), the
``closed_form_roots`` calls it makes and its engine points.  Off the
diagonal slice the paired stacks have no closed forms, so each engine batch
makes a refused formula call, and a batch that holds diagonal points one
more call on them.  The engine points are the points the formulas or the
eigensolver serve: one per F up to conjugation (``roots_at`` groups the
grid's 5 041 points by F and folds conj(F) onto F).

The fifth table prints, for each variant that the closed forms' residual
gate serves (every stack and the q = 1 cell), the time of building its gate
tensor (``floquet._gate_tensor``, with the layout form it expands) for a
fresh config, both caches cleared: the fixed cost of the first formula call
of a job.  It is the best of 5 timings of ``REPEAT // 20`` builds.

The sixth table prints, for each stack variant (its first route of the
first table) on the full grid of its benchmark ``bands`` job (61 x 61,
71 x 71 or 81 x 81), the serialization layer of ``bands.csv``: the time of
the text of ``cli._emit_bands`` with its engine rows computed beforehand
(the best of 5 timings of ``REPEAT // 40`` runs), and the engine points,
whose text it formats once each.  Then the eta values of those engine rows
and the nanoseconds per value of formatting them, with the numpy kernel
that writes ``bands.csv`` (``cli._g17_bytes``) and with one ``"%.17g"``
call per value (on a list of Python floats made beforehand), each the best
of 5 timings of ``REPEAT // 40`` runs.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hexband import (  # noqa: E402
    CouplingParams,
    StackConfig,
    StackVariant,
    VertexParams,
)
from hexband import bands, cli, floquet  # noqa: E402
from hexband.bands import (  # noqa: E402
    PROMINENCE_TOL,
    _grid_minima,
    classify_touches,
    roots_at,
    sample_diagonal,
)
from hexband.hill import PotentialSpec, _band_edges, invert_discriminant  # noqa: E402
from hexband.lattice import FluxSpec, full_grid  # noqa: E402
from hexband.svgplot import render_band_chart  # noqa: E402

REPEAT = 200        # calls per timing
SIZES = (1, 8)      # points per call


def _stack(variant, aa, ab, ac=0.0, **coupling):
    cp = CouplingParams(**coupling) if coupling else None
    return StackConfig(StackVariant(variant), VertexParams(aa, ab, ac), coupling=cp)


def _flux(q):
    return StackConfig(StackVariant.MAGNETIC_MONOLAYER, VertexParams(-1.0, -1.0, 0.0),
                       flux=FluxSpec(1, q))


# (variant, route, config): every stack's closed forms, the eigensolver on
# the unpaired stacks that have closed forms when paired, and both flux cells
ROUTES = [
    ("monolayer", "closed", _stack("monolayer", -0.4, 0.7)),
    ("bilayer_aa", "closed", _stack("bilayer_aa", -1.0, 0.3, t0=0.3)),
    ("bilayer_aa_two_param", "closed",
     _stack("bilayer_aa_two_param", 0.25, -0.09, t_a=0.5, t_b=0.3)),
    ("bilayer_aa_prime", "closed", _stack("bilayer_aa_prime", -0.7, 0.4, t0=0.3)),
    ("hetero_bilayer", "paired closed", _stack("hetero_bilayer", -1.0, 1.0, t0=0.3)),
    ("hetero_bilayer", "unpaired numeric",
     _stack("hetero_bilayer", -1.0, 0.6, t0=0.3)),
    ("trilayer_hbn_g_hbn", "paired closed",
     _stack("trilayer_hbn_g_hbn", -1.0, 1.0, t0=0.3)),
    ("trilayer_hbn_g_hbn", "unpaired numeric",
     _stack("trilayer_hbn_g_hbn", -1.0, 0.6, 0.2, t0=0.3)),
    ("trilayer_g_hbn_g", "paired closed", _stack("trilayer_g_hbn_g", -0.1, 0.1, t0=0.3)),
    ("trilayer_g_hbn_g", "unpaired numeric",
     _stack("trilayer_g_hbn_g", -0.7, 1.1, 0.03, t0=0.7)),
    ("magnetic q = 1", "eigvalsh", _flux(1)),
    ("magnetic q = 2", "radicals", _flux(2)),
]


# one config per variant that the residual gate serves: all but the q = 2 cell
GATED = {variant: config for variant, _, config in ROUTES
         if config.flux is None or config.flux.q == 1}

# the full-grid size of each stack variant's benchmark bands job
BANDS_GRID = {"monolayer": 71, "bilayer_aa": 61, "bilayer_aa_two_param": 61,
              "bilayer_aa_prime": 81, "hetero_bilayer": 71,
              "trilayer_hbn_g_hbn": 71, "trilayer_g_hbn_g": 71}

_COS_X = np.linspace(0.0, 1.0, 201)
# (name, knots, values) of each sampled potential of the Hill table
HILL = [
    ("period-1/2 knots", [0.0, 0.25, 0.5, 0.75, 1.0], [1.5, -2.0, 1.5, -2.0, 1.5]),
    ("5 cos 2 pi x, 201 knots", _COS_X, 5.0 * np.cos(2.0 * np.pi * _COS_X)),
    ("double well, height 250", [0.0, 0.3, 0.35, 0.65, 0.7, 1.0],
     [0.0, 0.0, 250.0, 250.0, 0.0, 0.0]),
    ("double well, height 800", [0.0, 0.3, 0.35, 0.65, 0.7, 1.0],
     [0.0, 0.0, 800.0, 800.0, 0.0, 0.0]),
]
HILL_BANDS = 4
# a monolayer spectrum stack like the benchmark's
_SPECTRUM_STACK = _stack("monolayer", 0.6, 1.2)


def _best_us(call, repeat: int) -> float:
    """Microseconds of one ``call()``, the best of 5 timings of ``repeat``."""
    return 1e6 * min(timeit.repeat(call, number=repeat, repeat=5)) / repeat


def call_us(config: StackConfig, points: int, repeat: int) -> float:
    """Microseconds of one ``roots_at`` call at ``points`` points, the best
    of 5 timings of ``repeat`` calls."""
    rng = np.random.default_rng(points)
    if config.flux is None:
        theta1 = rng.uniform(-np.pi, np.pi, points)
        theta2 = -theta1
    else:
        theta1 = rng.uniform(0.0, np.pi / 2, points)
        theta2 = rng.uniform(-np.pi / 2, np.pi / 2, points)
    roots_at(config, theta1, theta2)        # the config's caches, once
    return _best_us(lambda: roots_at(config, theta1, theta2), repeat)


def slice_us(config: StackConfig, repeat: int) -> tuple[float, float]:
    """Microseconds of one band chart and of one classifier grid scan of the
    config's n = 501 diagonal slice."""
    surface = sample_diagonal(config, n=501)
    reports = classify_touches(surface)
    seps = surface.separations()
    half = (surface.n_samples - 1) // 2
    return (_best_us(lambda: render_band_chart(surface, reports), repeat),
            _best_us(lambda: _grid_minima(seps, half, PROMINENCE_TOL), repeat))


def hill_ms(knots, values, repeat: int) -> tuple[float, int, int, float, int]:
    """Milliseconds of one scan for bands 1-4 on a fresh potential, the
    halvings and half-edge steps of the grid its gate picked, milliseconds of
    one inversion of the benchmark's eta ends, and the monodromies they
    take."""
    surface = sample_diagonal(_SPECTRUM_STACK, n=201)
    ends = np.clip([surface.values.min(axis=0), surface.values.max(axis=0)],
                   -1.0, 1.0).T.ravel()
    etas = np.tile(ends, HILL_BANDS)
    bands = np.repeat(np.arange(1, HILL_BANDS + 1), len(ends))
    fresh = iter([PotentialSpec.sampled(knots, values) for _ in range(5 * repeat)])
    scan = _best_us(lambda: _band_edges(next(fresh), HILL_BANDS), repeat)
    pot = PotentialSpec.sampled(knots, values)
    _band_edges(pot, HILL_BANDS)
    invert_discriminant(pot, etas, bands)
    evaluations = pot.magnus.evaluations
    invert = _best_us(lambda: invert_discriminant(pot, etas, bands), repeat)
    return scan / 1e3, pot.magnus.halvings, pot.magnus.steps, invert / 1e3, evaluations


def grid_ms(config: StackConfig, repeat: int) -> tuple[float, int, int]:
    """Milliseconds of one ``roots_at`` call on the 71 x 71 full grid, the
    ``closed_form_roots`` calls it makes, refused ones included, and the
    points the formulas and the eigensolver serve."""
    theta1, theta2 = (axis.ravel() for axis in full_grid(71))
    closed_fn, numeric_fn = bands.closed_form_roots, bands.numeric_roots
    calls = points = 0

    def closed(config, F):
        nonlocal calls, points
        calls += 1
        roots = closed_fn(config, F)
        points += len(F)
        return roots

    def numeric(fm):
        nonlocal points
        points += len(fm.affine)
        return numeric_fn(fm)

    bands.closed_form_roots, bands.numeric_roots = closed, numeric
    try:
        roots_at(config, theta1, theta2)
    finally:
        bands.closed_form_roots, bands.numeric_roots = closed_fn, numeric_fn
    ms = _best_us(lambda: roots_at(config, theta1, theta2), repeat) / 1e3
    return ms, calls, points


def bands_text_ms(config: StackConfig, n: int, repeat: int
                  ) -> tuple[float, int, int, float, float]:
    """Milliseconds of the text of one ``bands.csv`` on the n x n full grid,
    its engine rows computed beforehand; its engine points and their eta
    values; and the nanoseconds per value of the kernel's and of
    ``"%.17g"``'s text of those values."""
    run = cli.RunConfig(stack=config, grid_kind="full", grid_n=n)
    ctx = cli._RunContext(run=run, args=argparse.Namespace())
    served = bands.engine_rows(config, *cli._grid_thetas(run))
    engine = cli.engine_rows
    cli.engine_rows = lambda *_: served
    try:
        ms = _best_us(lambda: collections.deque(cli._emit_bands(ctx), maxlen=0),
                      repeat) / 1e3
    finally:
        cli.engine_rows = engine
    eta = served[0].values
    floats = eta.ravel().tolist()
    kernel = _best_us(lambda: cli._g17_bytes(eta), repeat) * 1e3 / eta.size
    g17 = _best_us(lambda: list(map("%.17g".__mod__, floats)), repeat) * 1e3 / eta.size
    return ms, len(eta), eta.size, kernel, g17


def gate_tensor_us(config: StackConfig, repeat: int) -> float:
    """Microseconds of building a fresh config's residual-gate tensor."""

    def fresh():
        floquet._layout_form.cache_clear()
        floquet._gate_tensor.cache_clear()
        floquet._gate_tensor(config)

    return _best_us(fresh, repeat)


def main(repeat: int = REPEAT) -> int:
    head = "  ".join(f"{n:>2} pt µs" for n in SIZES)
    print(f"{'variant':<22} {'route':<18} {head}")
    for variant, route, config in ROUTES:
        cells = "  ".join(f"{call_us(config, n, repeat):8.1f}" for n in SIZES)
        print(f"{variant:<22} {route:<18} {cells}")
    print()
    print(f"{'n = 501 slice':<22} {'route':<18} {'chart µs':>8}  {'scan µs':>8}")
    for variant, route, config in ROUTES:
        if config.flux is None:
            chart, scan = slice_us(config, max(1, repeat // 20))
            print(f"{variant:<22} {route:<18} {chart:8.1f}  {scan:8.1f}")
    print()
    print(f"{'Hill potential':<41} {'scan ms':>8}  {'halvings':>8}  {'steps':>5}  "
          f"{'invert ms':>9}  {'evaluations':>11}")
    for name, knots, values in HILL:
        scan, halvings, steps, invert, evaluations = hill_ms(knots, values,
                                                             max(1, repeat // 40))
        print(f"{name:<41} {scan:8.2f}  {halvings:8d}  {steps:5d}  {invert:9.2f}  "
              f"{evaluations:11d}")
    print()
    print(f"{'71 x 71 full grid':<22} {'route':<18} {'call ms':>8}  "
          f"{'formula calls':>13}  {'engine points':>13}")
    for variant, route, config in ROUTES:
        if route == "paired closed":
            ms, calls, points = grid_ms(config, max(1, repeat // 40))
            print(f"{variant:<22} {route:<18} {ms:8.2f}  {calls:13d}  {points:13d}")
    print()
    print(f"{'fresh config':<41} {'gate tensor µs':>14}")
    for variant, config in GATED.items():
        print(f"{variant:<41} {gate_tensor_us(config, max(1, repeat // 20)):14.1f}")
    print()
    print(f"{'bands.csv, full grid':<22} {'grid':<18} {'text ms':>8}  {'engine points':>13}"
          f"  {'eta values':>10}  {'kernel ns':>9}  {'%.17g ns':>8}")
    for variant, n in BANDS_GRID.items():
        config = next(config for name, _, config in ROUTES if name == variant)
        ms, points, values, kernel, g17 = bands_text_ms(config, n, max(1, repeat // 40))
        print(f"{variant:<22} {f'{n} x {n}':<18} {ms:8.2f}  {points:13d}"
              f"  {values:10d}  {kernel:9.1f}  {g17:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
