"""Command-line front end: configuration, serialization, and plot emission.

Configuration is a single JSON document, versioned by a mandatory
``schema_version`` field (currently 1)::

    {
      "schema_version": 1,
      "stack": {"variant": "monolayer", "alpha_a": 1.0, "alpha_b": -1.0},
      "grid": {"kind": "diagonal", "n": 501},
      "tolerances": {"tol_touch": 1e-6, "tol_slope": 1e-4},
      "potential": {"kind": "zero"},
      "outputs": ["bands", "plot"]
    }

Unknown keys are rejected recursively.  ``stack`` accepts ``variant``,
``alpha_a``/``alpha_b``/``alpha_c`` (|alpha| <= 1e100), the couplings
``t0``/``t_a``/``t_b``, and ``flux_p``/``flux_q`` for the magnetic variant;
a setting the variant's layout does not read is rejected.  ``potential`` accepts
``{"kind": "zero"}``, ``{"kind": "file", "path": ...}`` (two-column text),
or ``{"kind": "sampled", "x": [...], "values": [...]}``.  ``outputs`` lists
extra artifacts from {bands, report, spectrum, plot} to emit alongside the
subcommand's own artifact.

Subcommands: ``bands``, ``classify``, ``gaps``, ``spectrum``, ``magnetic``,
``validate``, ``plot``.  Every run writes its artifacts atomically
(temp-then-rename) into ``--out`` plus one ``manifest.json`` echoing the
resolved configuration and the sha256 digest of each artifact; identical
configurations reproduce byte-identical data files.  A run that writes
``spectrum.csv`` also records in the manifest's ``trace.hill`` block the
Magnus step count, the worst step-halving deviation against its gate and
the number of monodromy evaluations (null steps and deviation for the
closed-form zero potential); these never enter the data files.

Exit codes: 0 success; 1 configuration problems (including a sampling grid
too coarse to classify); 2 numerical-validation failures; 3 I/O errors
while writing outputs.

Number formatting: CSV floats use fixed 17-significant-digit formatting;
key-value reports use shortest round-trip (repr) formatting.  Both survive
text -> float -> text round trips exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bands import (
    MIN_CLASSIFY_SAMPLES,
    TouchReport,
    classify_touches,
    gap_width_closed_form,
    roots_at,
    sample_diagonal,
)
from .errors import (
    ConfigError,
    EngineError,
    NoClosedFormError,
    ResolutionError,
    ValidationError,
)
from .floquet import chunk_slices
from .hill import MAGNUS_TOL, PotentialSpec, bands_from_root_surface
from .lattice import (
    LAYOUTS,
    CouplingParams,
    FluxSpec,
    StackConfig,
    StackVariant,
    VertexParams,
    diagonal_slice,
    structure_function,
)
from .magnetic import g_function, magnetic_classify
from .svgplot import render_band_chart

SCHEMA_VERSION = 1
VALIDATE_GATE = 1e-8
BANDS_CSV_HEADER = "theta1,theta2,F_real,F_imag,band_index,eta,admissible,source"
SPECTRUM_CSV_HEADER = "record,eta_band,hill_band,lambda_lo,lambda_hi"

_ALLOWED_KEYS = {
    "": {"schema_version", "stack", "grid", "tolerances", "potential",
         "outputs"},
    "stack": {"variant", "alpha_a", "alpha_b", "alpha_c", "t0", "t_a", "t_b",
              "flux_p", "flux_q"},
    "grid": {"kind", "n"},
    "tolerances": {"tol_touch", "tol_slope"},
    "potential": {"kind", "path", "x", "values"},
}

_OUTPUT_NAMES = ("bands", "report", "spectrum", "plot")
_OUTPUT_FILES = {"bands": "bands.csv", "report": "report.txt",
                 "spectrum": "spectrum.csv", "plot": "bands.svg"}


def _g17(x: float) -> str:
    value = float(x)
    if value == 0.0:  # normalize -0.0 so grids serialize uniformly
        value = 0.0
    return f"{value:.17g}"


def _rr(x: float) -> str:
    """Shortest round-trip text for report values."""
    return repr(float(x))


# ============================================================
#  Configuration
# ============================================================

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters (config file plus flag overrides)."""

    stack: StackConfig
    grid_kind: str = "diagonal"
    grid_n: int = 501
    tol_touch: float = 1e-6
    tol_slope: float = 1e-4
    potential: PotentialSpec | None = None
    outputs: tuple[str, ...] = ()


def _reject_unknown(section: str, mapping: dict) -> None:
    allowed = _ALLOWED_KEYS[section]
    where = f"section {section!r}" if section else "the top level"
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} at {where} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )


def _need_mapping(value, section: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    _reject_unknown(section, value)
    return value


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {field!r} must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = float("inf")
    # json.loads accepts NaN, Infinity and -Infinity
    if not np.isfinite(value):
        raise ConfigError(f"config field {field!r} must be a finite number")
    return value


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {field!r} must be an integer")
    return value


def _parse_stack(raw: dict) -> StackConfig:
    data = _need_mapping(raw, "stack")
    if "variant" not in data:
        raise ConfigError("config field 'stack.variant' is required")
    try:
        variant = StackVariant(data["variant"])
    except ValueError:
        names = ", ".join(v.value for v in StackVariant)
        raise ConfigError(
            f"unknown stack.variant {data['variant']!r} (one of: {names})"
        ) from None
    reads = LAYOUTS[variant].fields
    unread = sorted(data.keys() - reads - {"variant", "flux_p", "flux_q"})
    if unread:
        raise ConfigError(
            f"config field 'stack.{unread[0]}' is not read by variant "
            f"{variant.value} (its settings: {', '.join(sorted(reads))})")
    values = {name: _as_float(data[name], f"stack.{name}")
              for name in sorted(reads) if name in data}
    alphas = {k: v for k, v in values.items() if k.startswith("alpha_")}
    couplings = {k: v for k, v in values.items() if k not in alphas}
    for name, value in alphas.items():
        # the closed forms square alpha, and a float ** 2 raises past ~1.3e154
        if abs(value) > 1e100:
            raise ConfigError(
                f"config field 'stack.{name}' = {value!r} exceeds 1e100 in magnitude")
    vertex = VertexParams(**alphas)
    coupling = CouplingParams(**couplings) if couplings else None
    flux = None
    if "flux_p" in data or "flux_q" in data:
        flux = FluxSpec(p=_as_int(data.get("flux_p", 1), "stack.flux_p"),
                        q=_as_int(data.get("flux_q", 1), "stack.flux_q"))
    return StackConfig(variant=variant, vertex=vertex, coupling=coupling,
                       flux=flux)


def _parse_potential(raw) -> PotentialSpec:
    data = _need_mapping(raw, "potential")
    kind = data.get("kind")
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "file":
        if "path" not in data:
            raise ConfigError("potential.kind 'file' requires potential.path")
        return PotentialSpec.from_file(data["path"])
    if kind == "sampled":
        if "x" not in data or "values" not in data:
            raise ConfigError(
                "potential.kind 'sampled' requires potential.x and "
                "potential.values"
            )
        return PotentialSpec.sampled(data["x"], data["values"])
    raise ConfigError(
        f"unknown potential.kind {kind!r} (one of: zero, file, sampled)"
    )


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r}: invalid JSON at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown("", raw)
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare schema_version = {SCHEMA_VERSION} "
            f"(got {raw.get('schema_version')!r})"
        )
    if "stack" not in raw:
        raise ConfigError("config section 'stack' is required")
    stack = _parse_stack(raw["stack"])

    grid_kind, grid_n = "diagonal", 501
    if "grid" in raw:
        grid = _need_mapping(raw["grid"], "grid")
        grid_kind = grid.get("kind", "diagonal")
        if grid_kind not in ("diagonal", "full"):
            raise ConfigError(
                f"grid.kind must be 'diagonal' or 'full', got {grid_kind!r}"
            )
        grid_n = _as_int(grid.get("n", 501), "grid.n")

    tol_touch, tol_slope = 1e-6, 1e-4
    if "tolerances" in raw:
        tols = _need_mapping(raw["tolerances"], "tolerances")
        tol_touch = _as_float(tols.get("tol_touch", tol_touch),
                              "tolerances.tol_touch")
        tol_slope = _as_float(tols.get("tol_slope", tol_slope),
                              "tolerances.tol_slope")

    potential = _parse_potential(raw["potential"]) if "potential" in raw else None

    outputs: tuple[str, ...] = ()
    if "outputs" in raw:
        if (not isinstance(raw["outputs"], list)
                or not all(isinstance(o, str) for o in raw["outputs"])):
            raise ConfigError("config field 'outputs' must be a list of names")
        for name in raw["outputs"]:
            if name not in _OUTPUT_NAMES:
                raise ConfigError(
                    f"unknown output {name!r} "
                    f"(one of: {', '.join(_OUTPUT_NAMES)})"
                )
        outputs = tuple(raw["outputs"])

    return RunConfig(stack=stack, grid_kind=grid_kind, grid_n=grid_n,
                     tol_touch=tol_touch, tol_slope=tol_slope,
                     potential=potential, outputs=outputs)


def _apply_overrides(run: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "grid", None) is not None:
        run = replace(run, grid_n=args.grid)
    if getattr(args, "grid_kind", None) is not None:
        run = replace(run, grid_kind=args.grid_kind)
    if getattr(args, "tol_touch", None) is not None:
        run = replace(run, tol_touch=args.tol_touch)
    return run


def _stack_numbers(stack: StackConfig) -> dict:
    """The alphas and the coupling strengths that are set, in config order."""
    numbers = vars(stack.vertex) | vars(stack.coupling or CouplingParams())
    return {name: value for name, value in numbers.items() if value is not None}


def _config_echo(run: RunConfig) -> dict:
    stack: dict = {"variant": run.stack.variant.value, **_stack_numbers(run.stack)}
    if run.stack.flux is not None:
        stack["flux_p"] = run.stack.flux.p
        stack["flux_q"] = run.stack.flux.q
    echo = {
        "schema_version": SCHEMA_VERSION,
        "stack": stack,
        "grid": {"kind": run.grid_kind, "n": run.grid_n},
        "tolerances": {"tol_touch": run.tol_touch,
                       "tol_slope": run.tol_slope},
        "outputs": list(run.outputs),
    }
    if run.potential is not None:
        pot: dict = {"kind": run.potential.kind}
        if run.potential.kind == "sampled":
            pot["x"] = list(map(float, run.potential.x))
            pot["values"] = list(map(float, run.potential.values))
        echo["potential"] = pot
    return echo


# ============================================================
#  Output plumbing
# ============================================================

def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.hexband.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _write_manifest(outdir: str, command: str, run: RunConfig,
                    written: dict[str, str], elapsed: float,
                    notes: tuple[str, ...] = (),
                    trace: dict | None = None) -> None:
    manifest = {
        "tool": "hexband",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "elapsed_seconds": elapsed,
        "config": _config_echo(run),
        "outputs": {name: _sha256(os.path.join(outdir, name))
                    for name in sorted(written)},
    }
    if notes:
        manifest["notes"] = list(notes)
    if trace:
        manifest["trace"] = trace
    _atomic_write_text(os.path.join(outdir, "manifest.json"),
                       json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ============================================================
#  Shared evaluation helpers
# ============================================================

def _grid_thetas(run: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """theta1 and theta2 of every grid point, in CSV row order."""
    if run.grid_kind == "diagonal":
        theta = diagonal_slice(run.grid_n)
        return theta, -theta
    axis = np.linspace(-np.pi, np.pi, run.grid_n)
    return np.repeat(axis, run.grid_n), np.tile(axis, run.grid_n)


def _require_diagonal_slice(run: RunConfig, artifact: str) -> None:
    """Every artifact but bands.csv samples the diagonal slice of a
    non-magnetic stack; checked before anything is written."""
    if run.stack.variant is StackVariant.MAGNETIC_MONOLAYER:
        raise ConfigError(
            f"{artifact} samples the diagonal slice of non-magnetic stacks; "
            "use the 'magnetic' subcommand for flux runs"
        )
    if run.grid_kind != "diagonal":
        raise ConfigError(
            f"{artifact} samples the diagonal slice only; grid.kind 'full' "
            "(--full) serves bands.csv alone"
        )


def _diagonal_reports(run: RunConfig):
    surface = sample_diagonal(run.stack, n=run.grid_n)
    reports = classify_touches(surface, tol_touch=run.tol_touch,
                               tol_slope=run.tol_slope)
    return surface, reports


# ============================================================
#  Artifact emitters
# ============================================================

def _emit_bands(run: RunConfig) -> str:
    lines = [BANDS_CSV_HEADER]
    theta1, theta2 = _grid_thetas(run)
    roots = roots_at(run.stack, theta1, theta2)
    admissible_all = roots.admissible
    for part in chunk_slices(len(theta1), run.stack.dim):
        t1, t2 = theta1[part], theta2[part]
        f = structure_function(t1, t2)
        for a, b, fr, fi, row, flags, by_formula in zip(
                t1.tolist(), t2.tolist(), f.real.tolist(), f.imag.tolist(),
                roots.values[part].tolist(), admissible_all[part].tolist(),
                roots.closed[part].tolist()):
            point = f"{_g17(a)},{_g17(b)},{_g17(fr)},{_g17(fi)},"
            source = "closed_form" if by_formula else "numeric"
            for band, (eta, admissible) in enumerate(zip(row, flags)):
                lines.append(f"{point}{band},{_g17(eta)},{int(admissible)},{source}")
    return "\n".join(lines) + "\n"


def _mirror_collapse(reports: tuple[TouchReport, ...]) -> list[TouchReport]:
    """Fold theta -> -theta mirror images (diagonal profiles are even)."""
    kept: list[TouchReport] = []
    consumed = [False] * len(reports)
    for i, rep in enumerate(reports):
        if consumed[i]:
            continue
        if rep.theta1 is None:
            kept.append(rep)
            continue
        twin = None
        for j in range(i + 1, len(reports)):
            other = reports[j]
            if (not consumed[j] and other.kind == rep.kind
                    and other.band_pair == rep.band_pair
                    and other.theta1 is not None
                    and abs(other.theta1 + rep.theta1) < 1e-6):
                twin = j
                break
        if twin is not None:
            consumed[twin] = True
            if rep.theta1 < reports[twin].theta1:
                rep = reports[twin]
        kept.append(rep)
    return kept


def _report_records(reports: tuple[TouchReport, ...]) -> list[TouchReport]:
    """Collapse mirrors, then keep one gap record (the narrowest) per pair."""
    folded = _mirror_collapse(reports)
    records: list[TouchReport] = [r for r in folded if r.kind != "gap"]
    gaps: dict[tuple[int, int], TouchReport] = {}
    for rep in folded:
        if rep.kind != "gap":
            continue
        best = gaps.get(rep.band_pair)
        if best is None or rep.separation < best.separation:
            gaps[rep.band_pair] = rep
    records.extend(gaps.values())
    records.sort(key=lambda r: (r.band_pair,
                                r.theta1 if r.theta1 is not None else -10.0))
    return records


def _record_lines(index: int, rep: TouchReport) -> list[str]:
    lines = [f"record: {index}",
             f"kind: {rep.kind}",
             f"band_pair: {rep.band_pair[0]},{rep.band_pair[1]}"]
    if rep.theta1 is not None:
        lines.append(f"theta1: {_rr(rep.theta1)}")
    if rep.theta2 is not None:
        lines.append(f"theta2: {_rr(rep.theta2)}")
    if rep.f_value is not None:
        lines.append(f"f_value: {_rr(rep.f_value)}")
    lines.append(f"eta: {_rr(rep.value)}")
    lines.append(f"separation: {_rr(rep.separation)}")
    if rep.gap_width is not None:
        lines.append(f"gap_width: {_rr(rep.gap_width)}")
    if rep.gamma is not None:
        lines.append(f"gamma: {_rr(rep.gamma)}")
    if rep.curvature is not None:
        lines.append(f"curvature: {_rr(rep.curvature)}")
    if rep.flat:
        lines.append("flat: true")
    return lines


def _report_header(run: RunConfig, title: str) -> list[str]:
    lines = [f"# hexband {title}",
             f"tool: hexband {__version__}",
             f"variant: {run.stack.variant.value}"]
    lines += [f"{name}: {_rr(value)}"
              for name, value in _stack_numbers(run.stack).items()]
    if run.stack.flux is not None:
        lines.append(f"flux: {run.stack.flux.p}/{run.stack.flux.q}")
    return lines


def _emit_report(run: RunConfig) -> str:
    surface, reports = _diagonal_reports(run)
    records = _report_records(reports)
    lines = _report_header(run, "classification report")
    lines += ["grid_kind: diagonal",
              f"grid_n: {surface.n_samples}",
              f"route: {surface.route}",
              f"tol_touch: {_rr(run.tol_touch)}",
              f"tol_slope: {_rr(run.tol_slope)}"]
    try:
        lines.append(f"closed_form_gap: {_rr(gap_width_closed_form(run.stack))}")
    except NoClosedFormError:
        pass
    lines.append(f"records: {len(records)}")
    for idx, rep in enumerate(records, start=1):
        lines.append("")
        lines.extend(_record_lines(idx, rep))
    return "\n".join(lines) + "\n"


def _emit_gaps(run: RunConfig) -> str:
    surface = sample_diagonal(run.stack, n=run.grid_n)
    seps = surface.separations()
    lines = _report_header(run, "minimal separations (grid resolution)")
    lines += ["grid_kind: diagonal",
              f"grid_n: {surface.n_samples}",
              f"route: {surface.route}"]
    try:
        lines.append(f"closed_form_gap: {_rr(gap_width_closed_form(run.stack))}")
    except NoClosedFormError:
        pass
    lines.append(f"records: {seps.shape[1]}")
    for pair in range(seps.shape[1]):
        at = int(np.argmin(seps[:, pair]))
        theta = float(surface.theta[at])
        f = complex(structure_function(theta, -theta))
        lines += ["",
                  f"record: {pair + 1}",
                  f"band_pair: {pair},{pair + 1}",
                  f"min_separation: {_rr(float(seps[at, pair]))}",
                  f"theta1: {_rr(theta)}",
                  f"f_value: {_rr(f.real)}"]
    return "\n".join(lines) + "\n"


def _emit_spectrum(run: RunConfig) -> tuple[str, tuple[str, ...], dict]:
    """spectrum.csv, its diagnostics, and how the Hill layer got there (for
    the manifest only, so that spectrum.csv stays deterministic)."""
    potential = run.potential if run.potential is not None else PotentialSpec.zero()
    surface = sample_diagonal(run.stack, n=run.grid_n)
    eta_intervals = [
        (float(np.min(surface.values[:, band])),
         float(np.max(surface.values[:, band])))
        for band in range(surface.dim)
    ]
    result = bands_from_root_surface(potential, eta_intervals)
    lines = [SPECTRUM_CSV_HEADER]
    for iv in result.intervals:
        lines.append(f"band,{iv.eta_band},{iv.hill_band},"
                     f"{_g17(iv.lo)},{_g17(iv.hi)}")
    for nu in result.dirichlet:
        lines.append(f"pp,,,{_g17(nu)},{_g17(nu)}")
    hill = {"monodromy_evaluations": result.evaluations,
            "magnus_steps": result.magnus_steps,
            "magnus_halving_deviation": result.magnus_deviation,
            "magnus_halving_gate": MAGNUS_TOL}
    return "\n".join(lines) + "\n", result.diagnostics, {"hill": hill}


def _emit_plot(run: RunConfig) -> str:
    surface = sample_diagonal(run.stack, n=run.grid_n)
    reports: tuple[TouchReport, ...] = ()
    if surface.n_samples >= MIN_CLASSIFY_SAMPLES:
        reports = classify_touches(surface, tol_touch=run.tol_touch,
                                   tol_slope=run.tol_slope)
    title = f"{run.stack.variant.value}: eta along the diagonal slice"
    return render_band_chart(surface, reports, title=title)


def _emit_magnetic(run: RunConfig) -> str:
    if run.stack.variant is not StackVariant.MAGNETIC_MONOLAYER:
        raise ConfigError(
            "the magnetic subcommand needs stack.variant = "
            "'magnetic_monolayer' (with flux_p/flux_q)"
        )
    reports = magnetic_classify(run.stack, n=run.grid_n,
                                tol_touch=run.tol_touch,
                                tol_slope=run.tol_slope)
    q = run.stack.flux.q
    lines = _report_header(run, "reduced-zone classification")
    lines += [f"zone: [0, pi/{q}) x [-pi/{q}, pi/{q})",
              f"grid_n: {run.grid_n}",
              f"tol_touch: {_rr(run.tol_touch)}",
              f"tol_slope: {_rr(run.tol_slope)}",
              f"records: {len(reports)}"]
    for idx, rep in enumerate(reports, start=1):
        lines.append("")
        lines.extend(_record_lines(idx, rep))
        if rep.theta1 is not None and q == 2:
            lines.append(f"g_value: {_rr(g_function(rep.theta1, rep.theta2))}")
    return "\n".join(lines) + "\n"


def _emit_validate(run: RunConfig, samples: int, seed: int,
                   corrupt: bool) -> tuple[str, float, int]:
    rng = np.random.default_rng(seed)
    # one draw per diagonal sample, two per off-diagonal one, in sample
    # order; the paired stacks are drawn on the diagonal slice, where their
    # closed forms hold, so that the comparison is actually exercised
    if run.stack.layout.paired:
        theta1 = rng.uniform(-np.pi, np.pi, samples)
        theta2 = -theta1
    else:
        theta1, theta2 = rng.uniform(-np.pi, np.pi, (samples, 2)).T
    roots = roots_at(run.stack, theta1, theta2, route="closed")
    compared = roots.closed
    formulas = roots.values[compared]
    if corrupt:
        formulas[:, 0] += 1e-6
    numeric = roots_at(run.stack, theta1[compared], theta2[compared],
                       route="numeric").values
    devs = np.zeros(samples)
    devs[compared] = np.max(np.abs(formulas - numeric), axis=1)
    rows = ["# index,theta1,theta2,status,max_abs_deviation"]
    for index, (t1, t2, ok, dev) in enumerate(zip(theta1.tolist(), theta2.tolist(),
                                                  compared.tolist(), devs.tolist())):
        rows.append(f"{index},{_g17(t1)},{_g17(t2)},compared,{_g17(dev)}" if ok
                    else f"{index},{_g17(t1)},{_g17(t2)},no_closed_form,")
    devs = devs[compared]
    max_dev = float(np.max(devs)) if devs.size else 0.0
    mean_dev = float(np.mean(devs)) if devs.size else 0.0
    summary = [f"samples: {samples}",
               f"compared: {devs.size}",
               f"skipped_no_closed_form: {samples - devs.size}",
               f"max_abs_deviation: {_g17(max_dev)}",
               f"mean_abs_deviation: {_g17(mean_dev)}",
               f"gate: {_g17(VALIDATE_GATE)}",
               f"verdict: {'FAIL' if not max_dev <= VALIDATE_GATE else 'PASS'}"]
    header = _report_header(run, "closed-form vs eigensolver validation")
    text = "\n".join(header + [f"seed: {seed}"] + summary + [""] + rows) + "\n"
    return text, max_dev, int(devs.size)


# ============================================================
#  Command drivers
# ============================================================

def _run_artifacts(command: str, run: RunConfig, outdir: str) -> int:
    primary = {"bands": "bands", "classify": "report",
               "spectrum": "spectrum", "plot": "plot"}[command]
    wanted = [name for name in _OUTPUT_NAMES
              if name == primary or name in run.outputs]
    for name in wanted:
        if name != "bands":
            _require_diagonal_slice(run, _OUTPUT_FILES[name])
    started = time.time()
    written: dict[str, str] = {}
    notes: tuple[str, ...] = ()
    trace: dict = {}
    for name in wanted:
        filename = _OUTPUT_FILES[name]
        if name == "bands":
            text = _emit_bands(run)
        elif name == "report":
            text = _emit_report(run)
        elif name == "spectrum":
            text, notes, trace = _emit_spectrum(run)
            for note in notes:
                print(f"spectrum: {note}", file=sys.stderr)
        else:
            text = _emit_plot(run)
        path = os.path.join(outdir, filename)
        _atomic_write_text(path, text)
        written[filename] = path
    _write_manifest(outdir, command, run, written, time.time() - started,
                    notes=notes, trace=trace)
    for filename in written:
        print(f"wrote {os.path.join(outdir, filename)}")
    return 0


def _run_gaps(run: RunConfig, outdir: str) -> int:
    _require_diagonal_slice(run, "gaps.txt")
    started = time.time()
    _atomic_write_text(os.path.join(outdir, "gaps.txt"), _emit_gaps(run))
    _write_manifest(outdir, "gaps", run, {"gaps.txt": ""},
                    time.time() - started)
    print(f"wrote {os.path.join(outdir, 'gaps.txt')}")
    return 0


def _run_magnetic(run: RunConfig, outdir: str) -> int:
    started = time.time()
    _atomic_write_text(os.path.join(outdir, "magnetic.txt"),
                       _emit_magnetic(run))
    _write_manifest(outdir, "magnetic", run, {"magnetic.txt": ""},
                    time.time() - started)
    print(f"wrote {os.path.join(outdir, 'magnetic.txt')}")
    return 0


def _run_validate(run: RunConfig, outdir: str, samples: int, seed: int,
                  corrupt: bool) -> int:
    started = time.time()
    text, max_dev, compared = _emit_validate(run, samples, seed, corrupt)
    _atomic_write_text(os.path.join(outdir, "validate.txt"), text)
    _write_manifest(outdir, "validate", run, {"validate.txt": ""},
                    time.time() - started)
    print(f"compared: {compared} of {samples}")
    print(f"max_abs_deviation: {_g17(max_dev)}")
    if compared:
        mean_line = [l for l in text.splitlines()
                     if l.startswith("mean_abs_deviation:")]
        print(mean_line[0])
    if not max_dev <= VALIDATE_GATE:
        raise ValidationError(
            f"closed-form vs eigensolver deviation {max_dev:g} exceeds "
            f"the {VALIDATE_GATE:g} gate"
        )
    return 0


# ============================================================
#  Argument parsing and entry point
# ============================================================

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="JSON configuration document")
    common.add_argument("--out", default=".",
                        help="output directory (default: current)")
    common.add_argument("--grid", type=int, default=None,
                        help="override grid.n")
    zone = common.add_mutually_exclusive_group()
    zone.add_argument("--diagonal", dest="grid_kind", action="store_const",
                      const="diagonal", default=None,
                      help="override grid.kind to the diagonal slice")
    zone.add_argument("--full", dest="grid_kind", action="store_const",
                      const="full", help="override grid.kind to the full grid")
    common.add_argument("--tol-touch", type=float, default=None,
                        help="override tolerances.tol_touch")
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for validate's random quasimomenta")

    parser = argparse.ArgumentParser(
        prog="hexband",
        description="Dispersion surfaces, touch classification, and "
                    "spectra of hexagonal quantum-graph stacks.")
    parser.add_argument("--version", action="version",
                        version=f"hexband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("bands", "sample dispersion branches to CSV"),
            ("classify", "classify touches/crossings/gaps to a report"),
            ("gaps", "summarize minimal adjacent separations"),
            ("spectrum", "map eta bands to lambda intervals (Hill)"),
            ("magnetic", "classify a flux stack over its reduced zone"),
            ("validate", "cross-check closed forms against the eigensolver"),
            ("plot", "render the diagonal-slice bands to SVG"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "validate":
            p.add_argument("--samples", type=int, default=200,
                           help="number of random quasimomenta")
            p.add_argument("--corrupt-closed-form", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # overflow and invalid arithmetic raise FloatingPointError (exit 2)
    # instead of warning and carrying inf or NaN into the artifacts
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            run = _apply_overrides(load_run_config(args.config), args)
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                print(f"hexband: cannot create output directory: {exc}",
                      file=sys.stderr)
                return 3
            if args.command in ("bands", "classify", "spectrum", "plot"):
                return _run_artifacts(args.command, run, args.out)
            if args.command == "gaps":
                return _run_gaps(run, args.out)
            if args.command == "magnetic":
                return _run_magnetic(run, args.out)
            return _run_validate(run, args.out, args.samples, args.seed,
                                 args.corrupt_closed_form)
        except (ConfigError, ResolutionError) as exc:
            print(f"hexband: config error: {exc}", file=sys.stderr)
            return 1
        except ValidationError as exc:
            print(f"hexband: validation failure: {exc}", file=sys.stderr)
            return 2
        except (EngineError, OverflowError, FloatingPointError) as exc:
            print(f"hexband: numerical failure: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"hexband: I/O error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
