"""Smoke tests of ``tools/digest_sweep.py``, the byte-for-byte refactor check,
of ``tools/src_lines.py``, the code-line count, and of ``tools/call_cost.py``,
the cost of a small ``roots_at`` call, of a slice's chart and grid scan, of
a Hill scan and inversion, of a ``roots_at`` call on a full grid, of a
fresh config's residual-gate tensor and of a full grid's ``bands.csv`` text."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def sweep_s0():
    """The tool's run over the seed-0 job lists of the three workloads."""
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest_sweep.py"), "0", "0"],
        capture_output=True, text=True)


def test_digest_sweep_prints_one_clean_line_per_job(monkeypatch, sweep_s0):
    proc = sweep_s0
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # the job lists the tool runs, imported as the tool imports them
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    ids = [f"s0:{name}:{job['id']}" for name in workloads.WORKLOADS
           for job in workloads.job_list(name, 0)]
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [fields[0] for fields in lines] == ids
    for fields in lines:
        assert len(fields) == 6, fields
        assert fields[1] == "0", fields
        for digest in fields[2:]:
            assert digest == "-" or re.fullmatch("[0-9a-f]{64}", digest), fields


def test_digest_sweep_matches_the_recorded_seed_0_digests(sweep_s0):
    # every artifact, stdout and stderr byte of the 83 seed-0 jobs, pinned;
    # a change that means to move them re-records digests_s0.txt and says why
    with open(os.path.join(ROOT, "tests", "digests_s0.txt"), encoding="utf-8") as fh:
        recorded = fh.read().splitlines()
    assert sweep_s0.stdout.splitlines() == recorded


_SOURCE = '''"""A module docstring,

over three lines."""

# a comment
import os  # a trailing comment


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        return (x +
                1)


TEXT = """two
lines"""
'''


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", f"{name}.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_src_lines_counts_code_lines_only():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "src_lines.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(name for name in os.listdir(os.path.join(ROOT, "src", "hexband"))
                     if name.endswith(".py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0]) > 0
    tool = _tool("src_lines")
    # import, class, def, the two lines of the return and the two of TEXT
    assert tool.code_lines(_SOURCE) == 7


def test_call_cost_prints_one_line_per_route(capsys):
    tool = _tool("call_cost")
    assert tool.main(repeat=1) == 0
    calls, slices, hill, grids, gates, texts = capsys.readouterr().out.split("\n\n")
    head, *lines = calls.splitlines()
    assert head.split()[:2] == ["variant", "route"]
    assert len(lines) == len(tool.ROUTES) == 12
    for line, (variant, route, _) in zip(lines, tool.ROUTES):
        assert line.startswith(f"{variant:<22} {route:<18} ")
        costs = line[42:].split()
        assert len(costs) == len(tool.SIZES) and all(float(c) > 0.0 for c in costs)
    # the chart and grid scan of each stack route's n = 501 slice
    head, *lines = slices.splitlines()
    assert head.split() == ["n", "=", "501", "slice", "route", "chart", "µs", "scan", "µs"]
    stacks = [(variant, route) for variant, route, config in tool.ROUTES
              if config.flux is None]
    assert len(lines) == len(stacks) == 10
    for line, (variant, route) in zip(lines, stacks):
        assert line.startswith(f"{variant:<22} {route:<18} ")
        costs = line[42:].split()
        assert len(costs) == 2 and all(float(c) > 0.0 for c in costs)
    # the Hill scan, inversion and monodromy count of each sampled potential
    head, *lines = hill.splitlines()
    assert head.split() == ["Hill", "potential", "scan", "ms", "invert", "ms",
                            "evaluations"]
    assert len(lines) == len(tool.HILL) == 3
    for line, (name, _, _) in zip(lines, tool.HILL):
        assert line.startswith(f"{name:<41} ")
        scan, invert, evaluations = line[42:].split()
        assert float(scan) > 0.0 and float(invert) > 0.0 and int(evaluations) > 0
    # one roots_at call on each paired stack's full grid, its formula calls
    # and engine points: one per F up to conjugation
    head, *lines = grids.splitlines()
    assert head.split() == ["71", "x", "71", "full", "grid", "route", "call", "ms",
                            "formula", "calls", "engine", "points"]
    paired = [(variant, route) for variant, route, _ in tool.ROUTES
              if route == "paired closed"]
    assert len(lines) == len(paired) == 3
    for line, (variant, route) in zip(lines, paired):
        assert line.startswith(f"{variant:<22} {route:<18} ")
        ms, calls, points = line[42:].split()
        assert float(ms) > 0.0 and int(calls) > 0 and int(points) == 1571
    # the gate tensor of a fresh config of each variant the residual gate serves
    head, *lines = gates.splitlines()
    assert head.split() == ["fresh", "config", "gate", "tensor", "µs"]
    assert len(lines) == len(tool.GATED) == 8 and "magnetic q = 2" not in tool.GATED
    for line, variant in zip(lines, tool.GATED):
        assert line.startswith(f"{variant:<41} ") and float(line[42:]) > 0.0
    # the text of each stack variant's bands.csv on its benchmark grid, and
    # its engine points: one per F up to conjugation on the mirror-symmetric
    # axis; then their eta values and the ns per value of the numpy kernel
    # and of "%.17g"
    head, *lines = texts.splitlines()
    assert head.split() == ["bands.csv,", "full", "grid", "grid", "text", "ms",
                            "engine", "points", "eta", "values", "kernel", "ns",
                            "%.17g", "ns"]
    points = {61: 1266, 71: 1571, 81: 2133}
    assert len(lines) == len(tool.BANDS_GRID) == 7
    for line, (variant, n) in zip(lines, tool.BANDS_GRID.items()):
        assert line.startswith(f"{variant:<22} {f'{n} x {n}':<18} ")
        ms, engine, values, kernel, g17 = line[42:].split()
        assert float(ms) > 0.0 and int(engine) == points[n]
        dim = next(config.dim for name, _, config in tool.ROUTES if name == variant)
        assert int(values) == points[n] * dim
        assert float(kernel) > 0.0 and float(g17) > 0.0
