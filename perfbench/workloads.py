"""Seeded job lists of the three workloads.

A job is one CLI call: a subcommand and the config document it reads.  The
workload seed draws alpha, t0 and the potential coefficients; the amount of
work per job (variant, subcommand, grid size, route) is fixed by the
workload, so that seeds vary the inputs and not the size of a sweep.
"""

from __future__ import annotations

import random

from model import DIAGONAL_ONLY as PAIRED

VARIANTS = ("monolayer", "bilayer_aa", "bilayer_aa_two_param", "bilayer_aa_prime",
            "hetero_bilayer", "trilayer_hbn_g_hbn", "trilayer_g_hbn_g")

# full-grid size per variant; bilayer_aa_prime carries the char_poly hot spot
GRID_N = {"monolayer": 71, "bilayer_aa": 61, "bilayer_aa_two_param": 61,
          "bilayer_aa_prime": 81, "hetero_bilayer": 71,
          "trilayer_hbn_g_hbn": 71, "trilayer_g_hbn_g": 71}
VALIDATE_SAMPLES = 200
DIAG_N = 501
MAGNETIC_N = 101
SPECTRUM_N = 201
ZERO_SPECTRA_PER_VARIANT = 4
SAMPLED_SPECTRA = 2
KNOTS = (0.0, 0.25, 0.5, 0.75, 1.0)
# job_s.tail percentile per workload; a run makes passes until at least ten
# job samples lie beyond it: two passes of grid-bands (42 job samples),
# diag-classify (64) and hill-spectrum (60, where p83 lies among the
# trilayer jobs and not on the step up to the sampled-potential jobs)
TAIL_PERCENTILE = {"grid-bands": 76, "diag-classify": 84, "hill-spectrum": 83}


def _stack(rng: random.Random, variant: str, paired: bool) -> dict:
    """Draw one stack; ``paired`` gives alpha_b = -alpha_a and alpha_c = 0,
    where hetero and trilayer stacks have closed forms on the diagonal."""
    stack = {"variant": variant, "alpha_a": rng.uniform(-1.5, 1.5)}
    if variant in PAIRED and paired:
        stack["alpha_b"] = -stack["alpha_a"]
    else:
        stack["alpha_b"] = rng.uniform(-1.5, 1.5)
        if variant in PAIRED:
            stack["alpha_c"] = rng.uniform(-1.0, 1.0)
    if variant == "bilayer_aa_two_param":
        stack["t_a"] = rng.uniform(0.3, 1.0)
        stack["t_b"] = rng.uniform(0.3, 1.0)
    elif variant != "monolayer":
        stack["t0"] = rng.uniform(0.3, 1.0)
    return stack


def _job(command: str, stack: dict, kind: str, n: int, route: str, **extra) -> dict:
    config = {"schema_version": 1, "stack": stack, "grid": {"kind": kind, "n": n}}
    if "potential" in extra:
        config["potential"] = extra.pop("potential")
    return {"command": command, "variant": stack["variant"], "n": n,
            "route": route, "config": config, **extra}


def _diagonal_route(stack: dict) -> str:
    paired = "alpha_c" not in stack
    return "closed" if stack["variant"] not in PAIRED or paired else "numeric"


def grid_bands(rng: random.Random) -> list[dict]:
    # two validate jobs per bands job: with one each, the per-job median would
    # fall between the slowest validate and the fastest bands job
    jobs = []
    for variant in VARIANTS:
        stack = _stack(rng, variant, paired=True)
        route = "mixed" if variant in PAIRED else "closed"
        jobs.append(_job("bands", stack, "full", GRID_N[variant], route))
        for validated in (stack, _stack(rng, variant, paired=True)):
            jobs.append(_job("validate", validated, "full", GRID_N[variant], "closed",
                             samples=VALIDATE_SAMPLES, seed=rng.randrange(2 ** 31)))
    return jobs


def diag_classify(rng: random.Random) -> list[dict]:
    jobs = []
    for variant in VARIANTS:
        for paired in ((True, False) if variant in PAIRED else (True,)):
            stack = _stack(rng, variant, paired)
            for command in ("classify", "gaps", "plot"):
                jobs.append(_job(command, stack, "diagonal", DIAG_N,
                                 _diagonal_route(stack)))
    for q, route in ((2, "closed"), (1, "numeric")):
        stack = {"variant": "magnetic_monolayer", "alpha_a": rng.uniform(-1.5, 1.5),
                 "alpha_b": rng.uniform(-1.5, 1.5), "flux_p": 1, "flux_q": q}
        jobs.append(_job("magnetic", stack, "diagonal", MAGNETIC_N, route))
    return jobs


def hill_spectrum(rng: random.Random) -> list[dict]:
    jobs = []
    for variant in VARIANTS:
        for _ in range(ZERO_SPECTRA_PER_VARIANT):
            stack = _stack(rng, variant, paired=True)
            jobs.append(_job("spectrum", stack, "diagonal", SPECTRUM_N, "zero"))
    # Sampled jobs: period-1/2 potentials (knot values p, q, p, q, p) on
    # monolayers with alpha_a, alpha_b > 0, whose lower branch reaches below
    # eta = -1.  A period-1/2 potential closes every gap where d = -2, so the
    # bracket defect of the band inversion fires at the first inversion
    # (eta = -1, band 1) of every such job.  With generic even potentials or
    # stacks it fires in a band picked by rounding, and the time to failure
    # (4-15 s a job) swamps the seed-to-seed spread of the sweep.
    for _ in range(SAMPLED_SPECTRA):
        stack = {"variant": "monolayer", "alpha_a": rng.uniform(0.3, 1.5),
                 "alpha_b": rng.uniform(0.3, 1.5)}
        p, q = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        potential = {"kind": "sampled", "x": list(KNOTS), "values": [p, q, p, q, p]}
        jobs.append(_job("spectrum", stack, "diagonal", SPECTRUM_N, "sampled",
                         potential=potential))
    return jobs


WORKLOADS = {"grid-bands": grid_bands, "diag-classify": diag_classify,
             "hill-spectrum": hill_spectrum}


def job_list(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"hexband-bench:{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    for index, job in enumerate(jobs):
        job["id"] = f"{index:03d}-{job['command']}-{job['variant']}"
    return jobs


def cli_args(job: dict, config_path: str, outdir: str) -> list[str]:
    args = [job["command"], "--config", config_path, "--out", outdir]
    if job["command"] == "validate":
        args += ["--samples", str(job["samples"]), "--seed", str(job["seed"])]
    return args


def summary(job: dict) -> list:
    """The job-list entry recorded for comparing two runs."""
    return [job["id"], job["variant"], job["command"], job["n"], job["route"]]
