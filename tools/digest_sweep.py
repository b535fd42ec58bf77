"""Artifact digests of the diag-classify benchmark jobs, one line per job.

    python3 tools/digest_sweep.py <first_seed> <last_seed>

Runs every job of the diag-classify job lists (``perfbench/workloads.py``)
for the seeds first_seed..last_seed through ``hexband.cli.main`` in one
process and prints ``id exit sha256`` per job, where the digest covers the
job's data artifacts (every file it wrote but ``manifest.json``, which
holds a wall time) and is ``-`` for a job that wrote none.  Two checkouts
that compute the same thing print the same lines, so a refactor is checked
with ``diff`` of the two outputs.
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


def run_job(job: dict, work: str) -> tuple[int, str]:
    config = os.path.join(work, f"{job['id']}.json")
    outdir = os.path.join(work, job["id"])
    os.makedirs(outdir)
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(job["config"], fh)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(workloads.cli_args(job, config, outdir))
    return code, artifacts_digest(outdir)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: digest_sweep.py <first_seed> <last_seed>", file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    for seed in range(first, last + 1):
        with tempfile.TemporaryDirectory(prefix="hexband-digests-") as work:
            for job in workloads.job_list("diag-classify", seed):
                code, digest = run_job(job, work)
                print(f"s{seed}:{job['id']} {code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
