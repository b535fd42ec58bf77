"""hexband benchmark: seeded sweeps of CLI jobs through ``hexband.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-bands --seed 3 --seconds 15 --trace 0

One process runs the workload's job list as a closed loop with one client:
each job is a ``hexband.cli.main([...])`` call made after the previous one
returned.  Passes over the job list repeat until ``--seconds`` have gone
by (untraced runs also until ten job samples lie beyond the workload's tail
percentile).  Job times are wall times scaled to a reference machine speed
by a calibration kernel that runs around and during each job (``speed.py``).
Set-up (``import hexband.cli`` in fresh interpreters) is measured apart from
the sweep, in wall time.  After the sweep every job's output is
checked against independent values (``check.py``), a negative control makes
sure the check notices a 1e-6 error, and the last line of standard output
is one JSON object with the metrics that BENCHMARK.json names (a failed
check sets ``correct`` to false; the exit code is 2 only when the benchmark
cannot run):

* ``--trace 0``: the end-to-end metrics, measured without tracing;
* ``--trace 1``: the per-layer metrics, from passes that run every job
  untraced and traced, so that the tracing overhead is measured too.

Everything the run writes goes under ``perfbench/out/``.  ``--record-reference``
runs one pass of the default seed and stores the checked values and digests
of each job in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 60

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Per-layer counters that must read non-zero on a workload; a zero means a
# binding was missed or the workload no longer reaches the layer.
PREDICTED_NONZERO = {
    "grid-bands": ("cli.main.calls", "cli.artifact_bytes",
                   "floquet.assemble.calls", "floquet.char_poly.calls",
                   "floquet.closed_form_roots.calls",
                   "floquet.closed_form_roots.fallbacks",
                   "floquet.numeric_roots.calls",
                   "lattice.structure_function.calls"),
    "diag-classify": ("cli.main.calls", "floquet.char_poly.calls",
                      "floquet.closed_form_roots.fallbacks",
                      "floquet.numeric_roots.calls",
                      "bands.sample_diagonal.calls",
                      "bands.classify_touches.calls", "bands.roots_at.calls",
                      "bands.classify_touches.evals_per_call",
                      "magnetic.closed_form_roots_q2.calls",
                      "magnetic.assemble_robin.calls",
                      "magnetic.magnetic_classify.calls",
                      "svgplot.render_band_chart.calls"),
    "hill-spectrum": ("cli.main.calls", "bands.sample_diagonal.calls",
                      "hill.integrate_monodromy.calls",
                      "hill.dirichlet_spectrum.calls",
                      "hill.dirichlet_spectrum.repeat_ratio",
                      "hill.invert_discriminant.calls",
                      "hill.bands_from_root_surface.calls"),
}
# Layers a workload does not reach: every call counter under these prefixes
# must read zero.
PREDICTED_ZERO = {
    "grid-bands": ("hill.", "magnetic.", "bands.classify_touches.",
                   "svgplot."),
    "diag-classify": ("hill.",),
    "hill-spectrum": ("magnetic.", "bands.classify_touches.", "svgplot."),
}


class BenchError(Exception):
    """The benchmark cannot run here."""


# ------------------------------------------------------------------
#  Set-up: fresh interpreters
# ------------------------------------------------------------------

def _child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed: {proc.stderr.strip()[-400:]}")
    return proc


def measure_setup() -> list[float]:
    """Wall seconds of ``import hexband.cli`` in each of several fresh
    interpreters (one more launch before them compiles the bytecode caches).

    These are not scaled to the reference speed: the calibration kernel,
    run in this process just after a child has exited, reads slow by a
    varying amount, and the scaled set-up times spread more than the raw.
    """
    code = ("import time; t = time.perf_counter(); import hexband.cli; "
            "print(repr(time.perf_counter() - t))")
    _child(["-c", code])
    return [float(_child(["-c", code]).stdout) for _ in range(SETUP_LAUNCHES)]


def measure_importtime() -> dict[str, float]:
    """Cumulative import seconds of scipy.integrate and scipy.optimize, from
    ``-X importtime`` (median over launches; 0 when not imported)."""
    wanted = {"scipy.integrate": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        seen = dict.fromkeys(wanted, 0.0)
        for line in _child(["-X", "importtime", "-c", "import hexband.cli"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for name, value in seen.items():
            wanted[name].append(value)
    return {f"setup.{name.replace('.', '_')}_import_s": statistics.median(v)
            for name, v in wanted.items()}


# ------------------------------------------------------------------
#  The sweep
# ------------------------------------------------------------------

def prepare(workload: str, seed: int) -> tuple[list[dict], str]:
    work = os.path.join(OUT, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = workloads.job_list(workload, seed)
    for job in jobs:
        job["config_path"] = os.path.join(work, f"{job['id']}.json")
        job["outdir"] = os.path.join(work, job["id"])
        with open(job["config_path"], "w", encoding="utf-8") as fh:
            json.dump(job["config"], fh)
    return jobs, work


def run_job(cli, job: dict) -> dict:
    """One CLI call; its wall time and what it left behind."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(workloads.cli_args(job, job["config_path"], job["outdir"]))
        error = None
    except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    result = {"seconds": seconds, "exit": code}
    if code == 0:
        result["digest"] = check.artifact_digest(job["outdir"], job["command"])
        result["bytes"] = sum(os.path.getsize(os.path.join(job["outdir"], name))
                              for name in os.listdir(job["outdir"]))
    else:
        lines = (error or stderr.getvalue()).strip().splitlines()
        result["error"] = lines[-1] if lines else f"exit {code}"
    return result


def sweep(cli, workload: str, jobs: list[dict], seconds: float, tracer=None) -> list[dict]:
    """Passes over the job list until ``seconds`` have gone by and, for the
    end-to-end metrics, ten job samples lie beyond the tail percentile.

    A job's ``seconds`` are its wall time at the reference speed, scaled by
    the calibration kernel around and during it (``wall_seconds`` as
    measured; see ``speed.py``).  With a tracer, each pass runs every job
    twice, untraced and traced, in alternating order, so that drifts in
    machine speed cancel out of the tracing overhead.
    """
    passes: list[dict] = []
    meter = speed.Meter()

    def timed(job: dict) -> dict:
        return meter.run(lambda: run_job(cli, job))

    started = time.perf_counter()
    while True:
        untraced, traced = [], []
        if tracer is not None:
            tracer.reset_counters()
        for k, job in enumerate(jobs):
            order = (False, True) if k % 2 == 0 else (True, False)
            for with_tracer in (order if tracer is not None else (False,)):
                if not with_tracer:
                    untraced.append(timed(job))
                    continue
                tracer.install()
                try:
                    traced.append(timed(job))
                finally:
                    tracer.uninstall()
        record = {"seconds": sum(r["seconds"] for r in untraced),
                  "wall_seconds": sum(r["wall_seconds"] for r in untraced), "jobs": untraced}
        if tracer is not None:
            record["traced"] = {"seconds": sum(r["seconds"] for r in traced),
                                "jobs": traced, "counters": tracer.counters()}
        passes.append(record)
        samples = len(jobs) * len(passes)
        tail_ready = (tracer is not None or
                      tail_percentile(workload, samples) == workloads.TAIL_PERCENTILE[workload])
        if time.perf_counter() - started >= seconds and tail_ready:
            return passes


# ------------------------------------------------------------------
#  Output check
# ------------------------------------------------------------------

def load_reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def check_outputs(jobs: list[dict], passes: list[dict], reference: dict | None) -> dict:
    """Check every job that exited 0; return verdicts per job id.

    A job's verdict holds for each pass that wrote the same digest.  Digests
    that differ from the reference (default seed) or, for other seeds, from
    the first pass are counted as mismatches, not as failures.
    """
    verdicts = {}
    for k, job in enumerate(jobs):
        runs = [p["jobs"][k] for p in passes]
        runs += [p["traced"]["jobs"][k] for p in passes if "traced" in p]
        ref = (reference or {}).get("jobs", {}).get(job["id"])
        if reference is not None and ref is None:
            raise BenchError(f"reference.json has no job {job['id']}")
        verdict = {"ok": True, "problem": None, "values": None}
        if any(r["exit"] == 0 for r in runs):
            try:
                verdict["values"] = check.check_job(job, job["outdir"])
                if ref is not None and ref.get("values") is not None:
                    check.compare_reference(verdict["values"], ref["values"], job["id"])
            except check.CheckError as exc:
                verdict.update(ok=False, problem=str(exc))
        first = next((r["digest"] for r in runs if r["exit"] == 0), None)
        expected = ref["digest"] if ref is not None else first
        for r in runs:
            if r["exit"] == 0:
                r["digest_mismatch"] = r["digest"] != expected
        verdicts[job["id"]] = verdict
    return verdicts


def negative_control(jobs: list[dict], verdicts: dict, workload: str) -> dict:
    """Perturb one eta of one finished job by 1e-6; the check must fail it."""
    for job in jobs:
        usable = (job["command"] in ("bands", "classify", "gaps", "magnetic")
                  or (job["command"] == "spectrum" and job["route"] == "zero"))
        if usable and verdicts[job["id"]]["ok"] and verdicts[job["id"]]["values"]:
            break
    else:
        return {"job": None, "detected": False, "problem": "no checked job to perturb"}
    target = os.path.join(OUT, "control", workload)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(job["outdir"], target)
    check.corrupt(job, target)
    try:
        check.check_job(job, target)
    except check.CheckError as exc:
        return {"job": job["id"], "detected": True, "problem": str(exc)}
    return {"job": job["id"], "detected": False, "problem": None}


# ------------------------------------------------------------------
#  Metrics
# ------------------------------------------------------------------

def tail_percentile(workload: str, samples: int) -> int:
    """The workload's tail percentile, as long as at least ten samples lie
    beyond it; otherwise the highest integer percentile that has ten beyond."""
    if samples < 11:
        raise BenchError(f"{samples} job samples cannot give a tail")
    return min(workloads.TAIL_PERCENTILE[workload], (100 * (samples - 10)) // samples)


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, much steadier than one order statistic when a few
    dozen job times fall into clusters of similar jobs."""
    x = np.sort(samples)
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def end_to_end(workload: str, passes: list[dict], jobs: list[dict], verdicts: dict,
               setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    times = [r["seconds"] for p in passes for r in p["jobs"]]
    attempted = len(times)
    ok = sum(1 for p in passes for k, r in enumerate(p["jobs"])
             if r["exit"] == 0 and verdicts[jobs[k]["id"]]["ok"])
    sweep_total = sum(p["seconds"] for p in passes)
    tail_p = tail_percentile(workload, attempted)
    metrics = {
        "setup_s": statistics.median(setup),
        # a pass at each job's median time: robust to a slow spell in one pass
        "sweep_s": sum(statistics.median(p["jobs"][k]["seconds"] for p in passes)
                       for k in range(len(jobs))),
        "ok_jobs_per_s": ok / sweep_total,
        "job_s.p50": quantile(times, 0.5),
        "job_s.tail": quantile(times, tail_p / 100.0),
        "ok_frac": ok / attempted,
        "peak_rss_mb": rss_mb,
    }
    detail = {"attempted": attempted, "ok": ok, "failed": attempted - ok,
              "failed_frac": (attempted - ok) / attempted,
              "tail_percentile": tail_p, "job_samples": attempted,
              "passes": len(passes), "setup_launches": setup,
              "wall_sweep_s": statistics.median(p["wall_seconds"] for p in passes),
              "kernel_s": statistics.median(r["kernel_s"] for p in passes for r in p["jobs"])}
    return metrics, detail


def per_layer(passes: list[dict], untraced_sweep: float, importtime: dict) -> dict:
    traced = [p["traced"] for p in passes]
    names = traced[0]["counters"].keys()
    out = {name: statistics.median(p["counters"][name] for p in traced) for name in names}
    out["cli.artifact_bytes"] = statistics.median(
        sum(r.get("bytes", 0) for r in p["jobs"]) for p in traced)
    out["cli.digest_mismatches"] = statistics.median(
        sum(1 for r in p["jobs"] if r.get("digest_mismatch")) for p in traced)
    out["trace.overhead_frac"] = (
        statistics.median(p["seconds"] for p in traced) / untraced_sweep - 1.0)
    out.update(importtime)
    return out


def check_predictions(workload: str, counters: dict) -> list[str]:
    problems = [f"{name} predicted non-zero, reads 0"
                for name in PREDICTED_NONZERO[workload] if not counters.get(name)]
    problems += [f"{name} predicted zero, reads {value}"
                 for name, value in counters.items()
                 if name.endswith(".calls") and value
                 and name.startswith(PREDICTED_ZERO[workload])]
    return problems


# ------------------------------------------------------------------
#  Entry point
# ------------------------------------------------------------------

def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "hexband", "cli.py")):
        raise BenchError(f"no hexband sources under {SRC}")
    sys.path.insert(0, SRC)
    import hexband.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported hexband from {cli.__file__}, not from {SRC}")
    return cli


def record_reference(workload: str) -> None:
    cli = import_cli()
    jobs, _ = prepare(workload, REFERENCE_SEED)
    results = [run_job(cli, job) for job in jobs]
    passes = [{"seconds": 0.0, "jobs": results}]
    verdicts = check_outputs(jobs, passes, None)
    entry = {}
    for job, result in zip(jobs, results):
        verdict = verdicts[job["id"]]
        if not verdict["ok"]:
            raise BenchError(f"{job['id']} fails its check: {verdict['problem']}")
        entry[job["id"]] = {"exit": result["exit"], "digest": result.get("digest"),
                            "values": verdict["values"]}
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = {"seed": REFERENCE_SEED, "jobs": entry}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = import_cli()
    setup = measure_setup()
    importtime = measure_importtime() if trace else {}
    reference = load_reference(workload, seed)
    jobs, work = prepare(workload, seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = sweep(cli, workload, jobs, seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = check_outputs(jobs, passes, reference)
    control = negative_control(jobs, verdicts, workload)
    e2e, detail = end_to_end(workload, passes, jobs, verdicts, setup, rss_mb)
    problems = [f"{job_id}: {v['problem']}" for job_id, v in verdicts.items() if not v["ok"]]
    if not control["detected"]:
        problems.append(f"negative control not detected on {control['job']}")
    if trace:
        values = per_layer(passes, e2e["sweep_s"], importtime)
        problems += check_predictions(workload, values)
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    summary_list = [workloads.summary(job) for job in jobs]
    result = {
        "correct": not problems,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "machine": machine(), "job_list": summary_list,
        "job_list_sha256": hashlib.sha256(json.dumps(summary_list).encode()).hexdigest(),
        "end_to_end": e2e, "detail": detail, "problems": problems, "control": control,
        "reference_checked": reference is not None,
        "passes": [{"seconds": p["seconds"], "wall_seconds": p["wall_seconds"],
                    "traced_seconds": p["traced"]["seconds"] if trace else None}
                   for p in passes],
        "jobs": [{"id": job["id"], "config": job["config"],
                  "check": {k: v for k, v in verdicts[job["id"]].items() if k != "values"},
                  "runs": [p["jobs"][k] for p in passes]}
                 for k, job in enumerate(jobs)],
        "result": result,
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        report["per_layer"] = values
        report["bindings"] = tracer.bindings()
        report["spans"] = tracer.write_spans(os.path.join(OUT, f"{name}-spans.npz"))
    with open(os.path.join(OUT, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return result, report


def print_summary(report: dict) -> None:
    e2e, d = report["end_to_end"], report["detail"]
    print(f"hexband benchmark: workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} jobs={len(report['job_list'])} passes={d['passes']} "
          f"job list sha256={report['job_list_sha256'][:16]}")
    print(f"  sweep and job times in seconds at the reference speed: calibration kernel "
          f"{1000 * d['kernel_s']:.3f} ms (reference {1000 * speed.REFERENCE_S:.3f} ms), "
          f"wall time of a pass {d['wall_sweep_s']:.4g} s")
    rows = [("setup_s", e2e["setup_s"], "s", f"wall time, median of {len(d['setup_launches'])} fresh interpreters"),
            ("sweep_s", e2e["sweep_s"], "s", "a pass at each job's median time"),
            ("ok_jobs_per_s", e2e["ok_jobs_per_s"], "1/s", ""),
            ("job_s.p50", e2e["job_s.p50"], "s", f"{d['job_samples']} samples"),
            ("job_s.tail", e2e["job_s.tail"], "s", f"p{d['tail_percentile']} of {d['job_samples']} samples"),
            ("failed_frac", d["failed_frac"], "ratio", f"{d['failed']} of {d['attempted']} jobs failed"),
            ("ok_frac", e2e["ok_frac"], "ratio", "1 - failed_frac"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "")]
    if report["trace"]:
        for name, value in sorted(report["per_layer"].items()):
            print(f"  {name:<44} {value:>14.6g}")
    else:
        for name, value, unit, note in rows:
            print(f"  {name:<14} {value:>14.6g} {unit:<5} {note}")
    failures = sorted({r.get("error") for j in report["jobs"] for r in j["runs"] if r.get("error")})
    for message in failures:
        print(f"  failed job: {message}")
    control = report["control"]
    print(f"  output check: {'reference values of seed 0 and ' if report['reference_checked'] else ''}"
          f"independent values; negative control on {control['job']}: "
          f"{'detected' if control['detected'] else 'NOT detected'}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the checked outputs of the default seed")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.record_reference:
            record_reference(args.workload)
            return 0
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_summary(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
