"""Smoke test of ``tools/digest_sweep.py``, the byte-for-byte refactor check."""

import importlib
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_digest_sweep_prints_one_clean_line_per_job(monkeypatch):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest_sweep.py"), "0", "0"],
        capture_output=True, text=True)
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
        assert len(fields) == 5, fields
        assert fields[1] == "0", fields
        for digest in fields[2:]:
            assert digest == "-" or re.fullmatch("[0-9a-f]{64}", digest), fields
