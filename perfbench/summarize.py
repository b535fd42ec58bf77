"""Medians and spreads over benchmark result files.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json
    python3 perfbench/summarize.py --baseline perfbench/baseline.json perfbench/out/*.json

For each workload and metric it prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``), which is what the bounds in
BENCHMARK.json are held against.  ``--baseline`` also writes these figures,
the machine, the versions and the default-seed job lists to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize(reports: list[dict]) -> dict:
    table: dict = {}
    for report in reports:
        key = f"{report['workload']} trace={report['trace']}"
        for name, metric in report["result"]["metrics"].items():
            table.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    out: dict = {}
    for key, metrics in sorted(table.items()):
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            out.setdefault(key, {})[name] = {
                "runs": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", help="result files of run.py")
    parser.add_argument("--baseline", help="also write the figures to this file")
    args = parser.parse_args(argv)
    reports = []
    for path in args.results:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    figures = summarize(reports)
    for key, metrics in figures.items():
        print(key)
        for name, f in metrics.items():
            spread = "n/a" if f["spread"] is None else f"{f['spread']:.3f}"
            print(f"  {name:<44} runs {f['runs']:>2}  median {f['median']:<12.6g} "
                  f"q1 {f['q1']:<12.6g} q3 {f['q3']:<12.6g} spread {spread}")
    if args.baseline:
        baseline = {
            "machine": {**reports[0]["machine"], "cpu": cpu_model()},
            "seeds": sorted({r["seed"] for r in reports}),
            "figures": figures,
            "job_lists": {r["workload"]: {"seed": r["seed"], "sha256": r["job_list_sha256"],
                                          "jobs": r["job_list"]}
                          for r in reports if r["seed"] == 0},
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
