"""Whether each artifact's verdicts agree across grid resolutions, per stack.

    python3 tools/resolution_matrix.py

Runs ``classify``, ``gaps`` and ``spectrum`` at diagonal n = 201, 501 and
2001 on five stacks, and ``magnetic`` at n = 101, 201 and 501 on both flux
cells, through ``hexband.cli.main`` in one process, and prints one line per
stack and artifact: ``agree``, or ``differ`` with the first field that
moves and its value at each n.

What must agree: the number of records, each record's kind and band pair
exactly; its locations (theta1, theta2) and widths (``separation``,
``min_separation``) to the refiner's tolerance; and each ``spectrum.csv``
row's band indices exactly and its interval ends to 1e-10 (relative above
1).  A location's tolerance is twice the refiner's stopping width:
sqrt(eps) |theta1| + xatol / 3 for the diagonal's bounded Brent, xatol for
the zone's Nelder-Mead.  A width may move by the separation's slope times
that (a touch's width is its distance from the apex), so by ``SLOPE``
times it.  The diagonal is even in theta1, so a diagonal location is
compared as |theta1|.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hexband import cli  # noqa: E402
from hexband.bands import _REFINE_XATOL  # noqa: E402
from hexband.magnetic import _NM_XATOL  # noqa: E402

DIAGONAL_N = (201, 501, 2001)
ZONE_N = (101, 201, 501)
END_TOL = 1e-10
ARTIFACTS = {"classify": "report.txt", "gaps": "gaps.txt", "spectrum": "spectrum.csv",
             "magnetic": "magnetic.txt"}
STACKS = {
    "monolayer": {"variant": "monolayer", "alpha_a": 0.0, "alpha_b": 0.0},
    "bilayer_aa": {"variant": "bilayer_aa", "alpha_a": 0.5, "alpha_b": 0.5, "t0": 0.3},
    "hetero_bilayer": {"variant": "hetero_bilayer", "alpha_a": -1.0, "alpha_b": 1.0,
                       "alpha_c": 0.0, "t0": 0.3},
    "trilayer_g_hbn_g": {"variant": "trilayer_g_hbn_g", "alpha_a": -1.0,
                         "alpha_b": 1.0, "alpha_c": 0.0, "t0": 0.3},
    "bilayer_aa_prime": {"variant": "bilayer_aa_prime", "alpha_a": 0.4,
                         "alpha_b": -0.9, "t0": 0.5},
    "flux q = 1": {"variant": "magnetic_monolayer", "alpha_a": -0.2236,
                   "alpha_b": 1.3465, "flux_p": 1, "flux_q": 1},
    "flux q = 2": {"variant": "magnetic_monolayer", "alpha_a": -1.0,
                   "alpha_b": -1.0, "flux_p": 1, "flux_q": 2},
}
# the fields compared exactly; the others a run compares take a tolerance
EXACT = ("kind", "band_pair", "record", "eta_band", "hill_band")
WIDTHS = ("separation", "min_separation")
REPORT_FIELDS = ("kind", "band_pair") + WIDTHS + ("theta1", "theta2")
# how far a width may move per unit of location tolerance: every branch has
# |d eta / d F| <= 1/3 (F's places hold 1, every vertex scale is >= 3), so
# a separation moves by at most 2/3 |dF|; |dF / d theta1| <= 2 on the
# diagonal, and in the zone each coordinate of theta turns phases of modulus
# 1 at places of the same weight, 2/3 per coordinate and 4/3 over both
SLOPE = 4.0 / 3.0


def run_artifact(stack: dict, command: str, n: int) -> str:
    """The text of the artifact ``command`` writes for ``stack`` at grid n."""
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "config.json")
        grid = {"n": n} if command == "magnetic" else {"kind": "diagonal", "n": n}
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "stack": stack, "grid": grid}, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", config, "--out", work])
        if code != 0:
            raise RuntimeError(f"{command} at n = {n} exited {code}")
        with open(os.path.join(work, ARTIFACTS[command]), encoding="utf-8") as fh:
            return fh.read()


def records(text: str, command: str) -> list[dict[str, str]]:
    """The records of an artifact as field -> text: the blocks after a
    report's header, or the rows of ``spectrum.csv``."""
    if command == "spectrum":
        head, *rows = text.splitlines()
        return [dict(zip(head.split(","), row.split(","))) for row in rows]
    return [dict(line.split(": ", 1) for line in block.splitlines())
            for block in text.split("\n\n")[1:]]


def location_tolerance(command: str, theta: float) -> float:
    """How far apart two runs' locations near theta may lie."""
    if command == "magnetic":
        return 2.0 * _NM_XATOL
    return 2.0 * (math.sqrt(sys.float_info.epsilon) * theta + _REFINE_XATOL / 3.0)


def first_difference(command: str, runs: list[list[dict[str, str]]]) -> str | None:
    """The first compared field that moves between the runs, with its text
    in each run (``-`` where a record lacks it), or None when every verdict
    agrees."""
    counts = [len(run) for run in runs]
    if len(set(counts)) > 1:
        return "records: " + " | ".join(map(str, counts))
    for index, group in enumerate(zip(*runs), start=1):
        thetas = [abs(float(record.get("theta1", 0.0))) for record in group]
        located = location_tolerance(command, max(thetas))
        for field in group[0] if command == "spectrum" else REPORT_FIELDS:
            texts = [record.get(field, "-") for record in group]
            if field in EXACT or "-" in texts:
                moved = len(set(texts)) > 1
            else:
                values = [float(text) for text in texts]
                if command == "spectrum":
                    tol = END_TOL * max(1.0, *map(abs, values))
                elif field in WIDTHS:
                    tol = SLOPE * located
                else:
                    tol = located
                    if field == "theta1" and command != "magnetic":
                        values = thetas
                moved = max(values) - min(values) > tol
            if moved:
                return f"record {index} {field}: " + " | ".join(texts)
    return None


def verdict_rows(name: str, stack: dict) -> list[str]:
    """One line per artifact of ``stack``: its name, the artifact, the grid
    sizes and the verdict."""
    commands = ["magnetic"] if "flux_q" in stack else ["classify", "gaps", "spectrum"]
    sizes = ZONE_N if "flux_q" in stack else DIAGONAL_N
    rows = []
    for command in commands:
        runs = [records(run_artifact(stack, command, n), command) for n in sizes]
        moved = first_difference(command, runs)
        rows.append(f"{name:<18} {ARTIFACTS[command]:<13} "
                    f"{' '.join(map(str, sizes)):<13} "
                    + ("agree" if moved is None else f"differ: {moved}"))
    return rows


def main() -> int:
    print(f"{'stack':<18} {'artifact':<13} {'n':<13} verdict")
    for name, stack in STACKS.items():
        for row in verdict_rows(name, stack):
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
