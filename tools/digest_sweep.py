"""Artifact and console digests of the benchmark jobs, one line per job.

    python3 tools/digest_sweep.py <first_seed> <last_seed>

Runs every job of the three workloads' job lists (grid-bands, diag-classify
and hill-spectrum, from ``perfbench/workloads.py``) for the seeds
first_seed..last_seed through ``hexband.cli.main`` in one process and prints
``id exit artifacts stdout stderr manifest`` per job.  ``artifacts`` is the
sha256 of the job's data artifacts (every file it wrote but
``manifest.json``), or ``-`` for a job that wrote none; ``stdout`` and
``stderr`` are the sha256 of what the job printed, with its output
directory replaced by ``<out>``; ``manifest`` is the sha256 of its
``manifest.json`` without the wall time ``elapsed_seconds``, dumped with
sorted keys, or ``-`` for a job that wrote none.  Two checkouts that compute
and echo the same thing print the same lines, so a refactor is checked with
``diff`` of the two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from hexband import cli  # noqa: E402
import workloads  # noqa: E402


def artifacts_digest(outdir: str) -> str:
    names = sorted(name for name in os.listdir(outdir) if name != "manifest.json")
    if not names:
        return "-"
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def manifest_digest(outdir: str) -> str:
    path = os.path.join(outdir, "manifest.json")
    if not os.path.exists(path):
        return "-"
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    del manifest["elapsed_seconds"]
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def console_digest(text: str, outdir: str) -> str:
    return hashlib.sha256(text.replace(outdir, "<out>").encode()).hexdigest()


def run_job(job: dict, work: str) -> tuple[int, str, str, str, str]:
    config = os.path.join(work, f"{job['id']}.json")
    outdir = os.path.join(work, job["id"])
    os.makedirs(outdir)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(job["config"], fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(workloads.cli_args(job, config, outdir))
    return (code, artifacts_digest(outdir), console_digest(out.getvalue(), outdir),
            console_digest(err.getvalue(), outdir), manifest_digest(outdir))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: digest_sweep.py <first_seed> <last_seed>", file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    for seed in range(first, last + 1):
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(prefix="hexband-digests-") as work:
                for job in workloads.job_list(workload, seed):
                    fields = run_job(job, work)
                    print(f"s{seed}:{workload}:{job['id']}", *fields, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
