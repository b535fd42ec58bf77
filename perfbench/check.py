"""Output check for one finished job.

``check_job`` reads the artifacts a job wrote, verifies them against the
independent values of ``model`` (any seed), and returns the values that are
recorded as the reference of the default seed.  ``compare_reference`` holds
those values against the recorded ones.  ``corrupt`` perturbs one eta of a
finished job's output by 1e-6 for the negative control.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from xml.etree import ElementTree

import numpy as np

import model

ETA_GATE = 1e-8          # the program's own validate gate
TOL_TOUCH = 1e-6         # default tolerances.tol_touch
ADMISSIBILITY_TOL = 1e-12
SPECTRUM_BANDS = 4       # Hill bands the spectrum subcommand inverts
KINDS = {"cone", "parabolic", "crossing", "gap"}
PRIMARY = {"bands": "bands.csv", "validate": "validate.txt",
           "classify": "report.txt", "gaps": "gaps.txt", "plot": "bands.svg",
           "magnetic": "magnetic.txt", "spectrum": "spectrum.csv"}


class CheckError(Exception):
    """An artifact disagrees with what the job should have produced."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(got: float, want: float, what: str, tol: float = ETA_GATE) -> None:
    _require(abs(got - want) <= tol,
             f"{what}: got {got!r}, expected {want!r} (tolerance {tol:g})")


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_digest(outdir: str, command: str) -> str:
    return sha256(os.path.join(outdir, PRIMARY[command]))


# ------------------------------------------------------------------
#  Parsers
# ------------------------------------------------------------------

def _parse_report(text: str) -> tuple[dict, list[dict]]:
    """Key-value report: a header, then blank-line separated records."""
    header: dict = {}
    records: list[dict] = []
    current = header
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(": ")
        _require(bool(sep), f"malformed report line {line!r}")
        if key == "record":
            current = {}
            records.append(current)
        current[key] = value
    _require(int(header.get("records", -1)) == len(records),
             f"header says {header.get('records')} records, found {len(records)}")
    return header, records


def _pair(record: dict, d: int) -> tuple[int, int]:
    i, j = (int(v) for v in record["band_pair"].split(","))
    _require(j == i + 1 and 0 <= i and j < d, f"bad band_pair {i},{j}")
    return i, j


# ------------------------------------------------------------------
#  Per-command checks; each returns the reference values of the job
# ------------------------------------------------------------------

def _check_bands(job: dict, outdir: str) -> dict:
    stack, n = job["config"]["stack"], job["config"]["grid"]["n"]
    d = model.dim(stack)
    with open(os.path.join(outdir, "bands.csv"), encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    _require(header == "theta1,theta2,F_real,F_imag,band_index,eta,admissible,source",
             f"bands.csv header {header!r}")
    rows = np.array([line.split(",") for line in lines])
    _require(rows.shape == (n * n * d, 8), f"bands.csv shape {rows.shape}")
    num = rows[:, :7].astype(float)
    axis = np.linspace(-np.pi, np.pi, n)
    t1 = np.repeat(np.repeat(axis, n), d)
    t2 = np.repeat(np.tile(axis, n), d)
    _require(np.max(np.abs(num[:, 0] - t1)) <= 1e-12
             and np.max(np.abs(num[:, 1] - t2)) <= 1e-12, "theta grid mismatch")
    f = 1.0 + np.exp(1j * t1) + np.exp(1j * t2)
    _require(np.max(np.abs(num[:, 2] - f.real)) <= 1e-12
             and np.max(np.abs(num[:, 3] - f.imag)) <= 1e-12, "F column mismatch")
    _require(np.array_equal(num[:, 4], np.tile(np.arange(d), n * n)),
             "band_index column mismatch")
    want = model.eta(stack, axis.repeat(n), np.tile(axis, n)).ravel()
    dev = np.abs(num[:, 5] - want)
    worst = int(np.argmax(dev))
    _close(num[worst, 5], want[worst], f"eta at row {worst + 2}")
    admissible = (np.abs(num[:, 5]) <= 1.0 + ADMISSIBILITY_TOL).astype(float)
    _require(np.array_equal(num[:, 6], admissible), "admissible column mismatch")
    source = rows[:, 7]
    closed = model.closed_form_expected(stack, axis.repeat(n), np.tile(axis, n))
    _require(np.array_equal(source == "closed_form", closed.repeat(d))
             and np.all((source == "closed_form") | (source == "numeric")),
             "source column does not follow the documented route")
    stride = max(1, len(rows) // 64)
    return {"rows": len(rows), "eta": num[::stride, 5].tolist(),
            "closed_form_rows": int(np.sum(source == "closed_form"))}


def _check_validate(job: dict, outdir: str) -> dict:
    with open(os.path.join(outdir, "validate.txt"), encoding="utf-8") as fh:
        text = fh.read()
    fields = dict(line.split(": ", 1) for line in text.splitlines()
                  if ": " in line and not line.startswith("#"))
    samples = job["samples"]
    _require(fields.get("verdict") == "PASS", f"verdict {fields.get('verdict')!r}")
    _require(int(fields["samples"]) == samples
             and int(fields["compared"]) + int(fields["skipped_no_closed_form"]) == samples,
             "validate sample counts do not add up")
    _require(int(fields["compared"]) > 0, "validate compared nothing")
    max_dev = float(fields["max_abs_deviation"])
    _require(0.0 <= max_dev <= ETA_GATE, f"max_abs_deviation {max_dev!r}")
    return {"verdict": fields["verdict"], "compared": int(fields["compared"]),
            "max_abs_deviation": max_dev}


def _check_records(stack: dict, records: list[dict], magnetic: bool) -> list:
    d = model.dim(stack)
    out = []
    for rec in records:
        kind = rec["kind"]
        _require(kind in KINDS, f"unknown record kind {kind!r}")
        i, j = _pair(rec, d)
        value, sep = float(rec["eta"]), float(rec["separation"])
        if "theta1" in rec:
            t1 = float(rec["theta1"])
            t2 = float(rec["theta2"])
            if not magnetic:
                _require(t2 == -t1, "record off the diagonal slice")
                _close(float(rec["f_value"]), 1.0 + 2.0 * math.cos(t1), "f_value", 1e-12)
            elif stack["flux_q"] == 2:
                g = 3.0 + math.cos(t1) + math.cos(2 * t2) - math.cos(t1 - 2 * t2)
                _close(float(rec["g_value"]), g, "g_value", 1e-12)
        else:
            _require(rec.get("flat") == "true", "record without location is not flat")
            t1 = t2 = 0.0
        roots = model.eta(stack, [t1], [t2])[0]
        _close(value, 0.5 * (roots[i] + roots[j]), f"record {rec['record']} eta")
        _close(sep, roots[j] - roots[i], f"record {rec['record']} separation")
        if kind == "gap":
            _require(float(rec["gap_width"]) == sep and sep > TOL_TOUCH,
                     f"record {rec['record']} is no gap")
        else:
            _require(sep <= TOL_TOUCH, f"record {rec['record']} is no touch")
        out.append([kind, i, j, value, sep])
    return out


def _check_classify(job: dict, outdir: str) -> dict:
    stack = job["config"]["stack"]
    with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as fh:
        header, records = _parse_report(fh.read())
    _require(header["variant"] == stack["variant"], "report variant")
    _require(int(header["grid_n"]) == job["config"]["grid"]["n"], "report grid_n")
    return {"route": header["route"],
            "records": _check_records(stack, records, magnetic=False)}


def _check_magnetic(job: dict, outdir: str) -> dict:
    stack = job["config"]["stack"]
    with open(os.path.join(outdir, "magnetic.txt"), encoding="utf-8") as fh:
        header, records = _parse_report(fh.read())
    _require(int(header["grid_n"]) == job["config"]["grid"]["n"], "magnetic grid_n")
    return {"records": _check_records(stack, records, magnetic=True)}


def _check_gaps(job: dict, outdir: str) -> dict:
    stack, n = job["config"]["stack"], job["config"]["grid"]["n"]
    with open(os.path.join(outdir, "gaps.txt"), encoding="utf-8") as fh:
        header, records = _parse_report(fh.read())
    theta, values = model.diagonal_eta(stack, n)
    seps = np.diff(values, axis=1)
    _require(len(records) == seps.shape[1], "gaps.txt record count")
    out = []
    for rec in records:
        i, j = _pair(rec, seps.shape[1] + 1)
        t1 = float(rec["theta1"])
        hits = np.nonzero(theta == t1)[0]
        _require(len(hits) > 0, f"gaps record {rec['record']} theta1 is no grid point")
        got = float(rec["min_separation"])
        _close(got, seps[hits[0], i], f"gaps record {rec['record']} min_separation")
        _require(got <= seps[:, i].min() + ETA_GATE,
                 f"gaps record {rec['record']} is not the grid minimum")
        _close(float(rec["f_value"]), 1.0 + 2.0 * math.cos(t1), "f_value", 1e-12)
        out.append([i, j, got])
    return {"records": out}


def _check_plot(job: dict, outdir: str) -> dict:
    stack, n = job["config"]["stack"], job["config"]["grid"]["n"]
    root = ElementTree.parse(os.path.join(outdir, "bands.svg")).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    lines = root.findall(f"{ns}polyline")
    theta, values = model.diagonal_eta(stack, n)
    _require(len(lines) == values.shape[1], "plot polyline count")
    lo, hi = values.min(), values.max()
    pad = 0.05 * max(hi - lo, 1e-3)
    lo, hi = lo - pad, hi + pad
    x = 72.0 + (theta - theta[0]) / (theta[-1] - theta[0]) * (800.0 - 24.0 - 72.0)
    for band, line in enumerate(lines):
        pts = np.array([p.split(",") for p in line.get("points").split()], dtype=float)
        y = 442.0 + (values[:, band] - lo) / (hi - lo) * (44.0 - 442.0)
        _require(pts.shape == (n, 2), "plot polyline length")
        _require(np.max(np.abs(pts[:, 0] - x)) <= 1e-5
                 and np.max(np.abs(pts[:, 1] - y)) <= 1e-5,
                 f"plot polyline {band} does not trace band {band}")
    markers = len(root.findall(f"{ns}circle")) + len(root.findall(f"{ns}g"))
    return {"polylines": len(lines), "markers": markers}


def _eta_intervals(stack: dict, n: int) -> list[tuple[int, float, float]]:
    """The clipped admissible eta range of each branch, as the program inverts them."""
    _, values = model.diagonal_eta(stack, n)
    out = []
    for band in range(values.shape[1]):
        lo, hi = float(values[:, band].min()), float(values[:, band].max())
        if lo > 1.0 or hi < -1.0:
            continue
        out.append((band, max(lo, -1.0), min(hi, 1.0)))
    return out


def _check_spectrum(job: dict, outdir: str) -> dict:
    cfg = job["config"]
    with open(os.path.join(outdir, "spectrum.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines[0] == "record,eta_band,hill_band,lambda_lo,lambda_hi",
             "spectrum.csv header")
    bands, points = [], []
    for line in lines[1:]:
        rec, eta_band, hill_band, lo, hi = line.split(",")
        if rec == "band":
            bands.append((int(eta_band), int(hill_band), float(lo), float(hi)))
        else:
            _require(rec == "pp" and lo == hi, f"spectrum row {line!r}")
            points.append(float(lo))
    intervals = {band: (lo, hi) for band, lo, hi in _eta_intervals(cfg["stack"], cfg["grid"]["n"])}
    _require(len(bands) == SPECTRUM_BANDS * len(intervals), "spectrum interval count")
    _require(bands == sorted(bands, key=lambda b: (b[2], b[3])), "intervals unsorted")
    if not intervals:
        _require(not points, "point spectrum without admissible intervals")
        return {"intervals": [], "points": []}
    ends = np.array([[b[2], b[3]] for b in bands]).ravel()
    potential = cfg.get("potential", {"kind": "zero"})
    if potential["kind"] == "zero":
        got = model.zero_potential_eta(ends)
        want_points = (np.pi * np.arange(1, SPECTRUM_BANDS + 1)) ** 2
        _require(len(points) == SPECTRUM_BANDS
                 and np.allclose(points, want_points, rtol=0.0, atol=1e-8),
                 "Dirichlet points of the zero potential")
        for _, hill_band, lo, hi in bands:
            for lam in (lo, hi):
                w = math.sqrt(max(lam, 0.0))
                _require((hill_band - 1) * math.pi - 1e-9 <= w <= hill_band * math.pi + 1e-9,
                         f"lambda {lam!r} outside Hill band {hill_band}")
    else:
        got, _ = model.sampled_monodromy(potential["x"], potential["values"], ends)
        if points:
            _, s1 = model.sampled_monodromy(potential["x"], potential["values"], points)
            _require(np.all(np.abs(s1) <= ETA_GATE), "Dirichlet points are no zeros of s(1)")
    got = got.reshape(-1, 2)
    for k, (eta_band, _, _, _) in enumerate(bands):
        want = intervals[eta_band]
        pair = sorted(got[k])
        _close(pair[0], want[0], f"interval {k} eta at its lower end")
        _close(pair[1], want[1], f"interval {k} eta at its upper end")
    return {"intervals": [list(b) for b in bands], "points": points}


_CHECKS = {"bands": _check_bands, "validate": _check_validate,
           "classify": _check_classify, "gaps": _check_gaps, "plot": _check_plot,
           "magnetic": _check_magnetic, "spectrum": _check_spectrum}


def _check_manifest(job: dict, outdir: str) -> None:
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    _require(manifest["command"] == job["command"], "manifest command")
    for name, digest in manifest["outputs"].items():
        _require(digest == "sha256:" + sha256(os.path.join(outdir, name)),
                 f"manifest digest of {name}")


def check_job(job: dict, outdir: str) -> dict:
    """Check one job's artifacts; return the values its reference records.

    Raises ``CheckError`` on the first disagreement.
    """
    _check_manifest(job, outdir)
    try:
        return _CHECKS[job["command"]](job, outdir)
    except (KeyError, ValueError, IndexError, OSError, ElementTree.ParseError) as exc:
        raise CheckError(f"unreadable artifact: {exc!r}") from exc


def compare_reference(got, want, where: str = "") -> None:
    """Same structure, equal strings and integers, floats within ETA_GATE."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and got.keys() == want.keys(), f"{where} keys")
        for key in want:
            compare_reference(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want),
                 f"{where}: {len(got)} entries, reference has {len(want)}")
        for k, (g, w) in enumerate(zip(got, want)):
            compare_reference(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        _close(float(got), want, where, ETA_GATE * max(1.0, abs(want)))
    else:
        _require(got == want, f"{where}: {got!r} differs from reference {want!r}")


# ------------------------------------------------------------------
#  Negative control
# ------------------------------------------------------------------

_ETA_LINE = re.compile(r"^(eta|min_separation): (.+)$", re.M)


def corrupt(job: dict, outdir: str) -> None:
    """Add 1e-6 to one eta of a finished job, as validate --corrupt-closed-form
    does, and re-sign the manifest so only the value check can notice."""
    command = job["command"]
    path = os.path.join(outdir, PRIMARY[command])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if command == "bands":
        head, first, rest = text.split("\n", 2)
        cols = first.split(",")
        cols[5] = repr(float(cols[5]) + 1e-6)
        text = "\n".join([head, ",".join(cols), rest])
    elif command == "spectrum":
        # move the interval end with the steepest eta(lambda) so that its eta
        # shifts by 1e-6
        lines = text.split("\n")
        best = None
        for k, line in enumerate(lines[1:], start=1):
            cols = line.split(",")
            if cols[0] != "band":
                continue
            for c in (3, 4):
                lam = float(cols[c])
                slope = abs(math.sin(math.sqrt(lam))) / (2 * math.sqrt(lam)) if lam > 0 else 0.0
                if best is None or slope > best[0]:
                    best = (slope, k, c, lam)
        _require(best is not None and best[0] > 0.0, "no interval to perturb")
        _, k, c, lam = best
        cols = lines[k].split(",")
        cols[c] = repr(lam + 1e-6 / best[0])
        lines[k] = ",".join(cols)
        text = "\n".join(lines)
    else:
        match = _ETA_LINE.search(text)
        _require(match is not None, f"{PRIMARY[command]} has no eta to perturb")
        text = (text[:match.start(2)] + repr(float(match.group(2)) + 1e-6)
                + text[match.end(2):])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    manifest_path = os.path.join(outdir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["outputs"][PRIMARY[command]] = "sha256:" + sha256(path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
