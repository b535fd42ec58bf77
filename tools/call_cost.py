"""Microseconds per ``bands.roots_at`` call on the refiners' small batches.

    python3 tools/call_cost.py

The refiners evaluate the dispersion in lockstep rounds of a few points, so
a classify job makes about a thousand ``roots_at`` calls whose cost is
numpy's fixed cost per operation, not their points.  This prints, for each
variant and the route that serves it, the time of one call at 1 and at 8
points: the best of 5 timings of ``REPEAT`` calls on the same points.
Stack points lie on the diagonal slice theta2 = -theta1, where the
refiners work; flux-cell points lie in the q = 2 reduced zone.  A paired
stack (alpha_b = -alpha_a, alpha_c = 0) takes the closed forms there, an
unpaired one the eigensolver; the q = 1 cell takes ``eigvalsh(A) / 3`` and
the q = 2 cell its radical roots.
"""

from __future__ import annotations

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
from hexband.bands import roots_at  # noqa: E402
from hexband.lattice import FluxSpec  # noqa: E402

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
    best = min(timeit.repeat(lambda: roots_at(config, theta1, theta2),
                             number=repeat, repeat=5))
    return 1e6 * best / repeat


def main(repeat: int = REPEAT) -> int:
    head = "  ".join(f"{n:>2} pt µs" for n in SIZES)
    print(f"{'variant':<22} {'route':<18} {head}")
    for variant, route, config in ROUTES:
        cells = "  ".join(f"{call_us(config, n, repeat):8.1f}" for n in SIZES)
        print(f"{variant:<22} {route:<18} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
