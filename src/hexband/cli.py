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
a setting the variant's layout does not read is rejected.  ``tolerances``
(and ``--tol-touch``) must be positive; only the touch classifications of
``report.txt``, ``magnetic.txt`` and ``bands.svg`` (from 201 samples) read
them, and a run that writes none of those rejects them.  ``potential`` accepts
``{"kind": "zero"}``, ``{"kind": "file", "path": "..."}`` (a two-column text file),
or ``{"kind": "sampled", "x": [...], "values": [...]}``, with finite
numbers in both columns; only ``spectrum.csv`` reads it, and a run that
does not write ``spectrum.csv`` rejects it.  ``outputs`` lists extra
artifacts from {bands, report, spectrum, plot}, each at most once, that
every subcommand emits alongside its own; the diagonal-slice artifacts of a
run share one sampled surface and one touch classification.  That
classification has one record per feature, refined on the half slice of the
even profiles (``bands.classify_touches``): ``report.txt`` keeps every touch
and the narrowest gap of each pair (of two exactly equal gaps, the one at
the larger |theta1|), and ``bands.svg`` draws each record at +-theta1.
``validate``'s ``--samples`` must be at least 1 and its ``--seed``
non-negative; a ``grid.n`` or ``--samples`` whose arrays numpy cannot make
exits 1 as a config error.

Subcommands: ``bands``, ``classify``, ``gaps``, ``spectrum``, ``magnetic``,
``validate``, ``plot``.  After its configuration checks a run removes the
``manifest.json`` and the artifacts that it is about to write from ``--out``
(so each rename lands on a free name: on ext4 a rename over an existing
file writes back the new file's dirty pages inside the rename).  It then
streams each artifact, line by line, into a temp file renamed into
``--out``, hashing the bytes as they are written, and last writes
``manifest.json`` echoing the resolved settings its artifacts read
(``validate.txt`` alone reads no grid) and each artifact's sha256; a run
that fails part-way leaves no manifest.  Identical configurations
reproduce byte-identical data files.  Stdout gets one ``wrote <path>`` line
per artifact (then validate's summary lines), stderr the diagnostics and
errors.  A run that writes ``spectrum.csv`` also records in the manifest's
``trace.hill`` block, from its potential's ``hill.MagnusState``, the Magnus
step count, the worst step-halving deviation against its gate and the
number of monodromy evaluations (null steps and deviation, and no
evaluations, for the closed-form zero potential); these never enter the
data files.

Exit codes: 0 success; 1 configuration problems (including a sampling grid
too coarse to classify) and running out of memory; 2 numerical-validation
failures; 3 I/O errors while writing outputs.

Number formatting: CSV floats use fixed 17-significant-digit formatting;
key-value reports use shortest round-trip (repr) formatting.  Both survive
text -> float -> text round trips exactly.  ``_record_lines`` writes every
record of ``report.txt``, ``magnetic.txt`` and ``gaps.txt`` from a mapping.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import repeat

import numpy as np

from . import __version__
from .bands import (
    MIN_CLASSIFY_SAMPLES,
    DispersionSurface,
    TouchReport,
    classify_touches,
    engine_rows,
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
from .hill import MAGNUS_TOL, PotentialSpec, bands_from_root_surface
from .lattice import (
    LAYOUTS,
    CouplingParams,
    FluxSpec,
    StackConfig,
    StackVariant,
    VertexParams,
    _require_array_size,
    diagonal_slice,
    full_grid,
    structure_function,
)
from .magnetic import g_function, magnetic_classify
from .refine import DEFAULT_TOL_SLOPE, DEFAULT_TOL_TOUCH
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


def _g17(x: float) -> str:
    return "%.17g" % (float(x) + 0.0)  # -0.0 + 0.0 is 0.0: grids serialize uniformly


def _g17_text(values: np.ndarray) -> np.ndarray:
    """``_g17`` of every value, as an object array of the same shape: each
    distinct value is formatted once, all in one C-level pass."""
    distinct, at = np.unique(values, return_inverse=True)
    text = list(map("%.17g".__mod__, (distinct + 0.0).tolist()))
    return np.array(text, dtype=object)[at.reshape(values.shape)]


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
    tol_touch: float = DEFAULT_TOL_TOUCH
    tol_slope: float = DEFAULT_TOL_SLOPE
    potential: PotentialSpec | None = None
    outputs: tuple[str, ...] = ()
    tolerances_from: tuple[str, ...] = ()   # the settings that set tol_touch
                                            # or tol_slope, for their check


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


def _tolerance(value, field: str) -> float:
    """A finite positive tolerance: at or below zero no separation passes
    the touch or slope gate, and every pair would read as a gap."""
    value = _as_float(value, field)
    if not value > 0.0:
        raise ConfigError(f"config field {field!r} must be positive, got {value!r}")
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
        # np.loadtxt would read a list of strings as inline data rows
        if not isinstance(data["path"], str):
            raise ConfigError("config field 'potential.path' must be a string")
        return PotentialSpec.from_file(data["path"])
    if kind == "sampled":
        if "x" not in data or "values" not in data:
            raise ConfigError(
                "potential.kind 'sampled' requires potential.x and "
                "potential.values"
            )
        columns = []
        for name in ("x", "values"):
            if not isinstance(data[name], list):
                raise ConfigError(f"config field 'potential.{name}' must be a list")
            columns.append([_as_float(v, f"potential.{name}[{i}]")
                            for i, v in enumerate(data[name])])
        return PotentialSpec.sampled(*columns)
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
    if _as_int(raw.get("schema_version", 0), "schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare schema_version = {SCHEMA_VERSION} "
            f"(got {raw.get('schema_version')!r})"
        )
    if "stack" not in raw:
        raise ConfigError("config section 'stack' is required")
    run = RunConfig(stack=_parse_stack(raw["stack"]))

    if "grid" in raw:
        grid = _need_mapping(raw["grid"], "grid")
        grid_kind = grid.get("kind", run.grid_kind)
        if grid_kind not in ("diagonal", "full"):
            raise ConfigError(
                f"grid.kind must be 'diagonal' or 'full', got {grid_kind!r}"
            )
        run = replace(run, grid_kind=grid_kind,
                      grid_n=_as_int(grid.get("n", run.grid_n), "grid.n"))

    if "tolerances" in raw:
        tols = _need_mapping(raw["tolerances"], "tolerances")
        run = replace(run, tolerances_from=("config section 'tolerances'",),
                      tol_touch=_tolerance(tols.get("tol_touch", run.tol_touch),
                                           "tolerances.tol_touch"),
                      tol_slope=_tolerance(tols.get("tol_slope", run.tol_slope),
                                           "tolerances.tol_slope"))

    if "potential" in raw:
        run = replace(run, potential=_parse_potential(raw["potential"]))

    if "outputs" in raw:
        if (not isinstance(raw["outputs"], list)
                or not all(isinstance(o, str) for o in raw["outputs"])):
            raise ConfigError("config field 'outputs' must be a list of names")
        for i, name in enumerate(raw["outputs"]):
            if name not in _OUTPUT_NAMES:
                raise ConfigError(
                    f"unknown output {name!r} "
                    f"(one of: {', '.join(_OUTPUT_NAMES)})"
                )
            if name in raw["outputs"][:i]:
                raise ConfigError(f"output {name!r} is listed twice in 'outputs'")
        run = replace(run, outputs=tuple(raw["outputs"]))
    return run


def _apply_overrides(run: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "grid", None) is not None:
        run = replace(run, grid_n=args.grid)
    if getattr(args, "grid_kind", None) is not None:
        run = replace(run, grid_kind=args.grid_kind)
    if getattr(args, "tol_touch", None) is not None:
        run = replace(run, tol_touch=_tolerance(args.tol_touch, "--tol-touch"),
                      tolerances_from=(*run.tolerances_from, "--tol-touch"))
    return run


def _stack_numbers(stack: StackConfig) -> dict:
    """The alphas and the coupling strengths that are set, in config order."""
    numbers = vars(stack.vertex) | vars(stack.coupling or CouplingParams())
    return {name: value for name, value in numbers.items() if value is not None}


def _stack_settings(stack: StackConfig) -> dict:
    """The numbers of the stack that its layout reads, in config order."""
    return {k: v for k, v in _stack_numbers(stack).items() if k in stack.layout.fields}


def _reads_tolerances(run: RunConfig, files: list[str]) -> bool:
    """Whether an artifact of ``files`` is built on a touch classification,
    the one reader of the tolerances: a plot classifies only from
    ``MIN_CLASSIFY_SAMPLES`` samples on."""
    return ("report.txt" in files or "magnetic.txt" in files
            or ("bands.svg" in files and run.grid_n >= MIN_CLASSIFY_SAMPLES))


def _config_echo(run: RunConfig, files: list[str]) -> dict:
    """The settings that the artifacts ``files`` read, as a config."""
    stack: dict = {"variant": run.stack.variant.value, **_stack_settings(run.stack)}
    if run.stack.flux is not None:
        stack["flux_p"] = run.stack.flux.p
        stack["flux_q"] = run.stack.flux.q
    echo = {"schema_version": SCHEMA_VERSION, "stack": stack,
            "outputs": list(run.outputs)}
    if files != ["validate.txt"]:    # validate draws its own quasimomenta
        echo["grid"] = {"kind": run.grid_kind, "n": run.grid_n}
    if _reads_tolerances(run, files):
        echo["tolerances"] = {"tol_touch": run.tol_touch, "tol_slope": run.tol_slope}
    if run.potential is not None:
        pot: dict = {"kind": run.potential.kind}
        if run.potential.kind == "sampled":
            pot["x"] = list(map(float, run.potential.x))
            pot["values"] = list(map(float, run.potential.values))
        echo["potential"] = pot
    if "magnetic.txt" in files:  # the zone is its one grid; the default kind re-runs it
        del echo["grid"]["kind"]
    return echo


# ============================================================
#  Output plumbing
# ============================================================

def _write_artifact(path: str, lines: Iterable[str]) -> str:
    """Write each of ``lines`` plus ``"\n"``, as UTF-8 and as it comes, to a temp
    file renamed to ``path``; return the ``sha256:`` digest of the bytes written."""
    digest = hashlib.sha256()
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.hexband.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for line in lines:
                data = (line + "\n").encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return "sha256:" + digest.hexdigest()


def _write_manifest(outdir: str, command: str, run: RunConfig,
                    digests: dict[str, str], elapsed: float, extra: dict) -> None:
    manifest = {
        "tool": "hexband",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "elapsed_seconds": elapsed,
        "config": _config_echo(run, list(digests)),
        "outputs": digests,
    }
    manifest.update({key: value for key, value in extra.items() if value})
    _write_artifact(os.path.join(outdir, "manifest.json"),
                    [json.dumps(manifest, indent=2, sort_keys=True)])


# ============================================================
#  Shared evaluation helpers
# ============================================================

def _grid_thetas(run: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """theta1 and theta2 of every grid point, in CSV row order."""
    if run.grid_kind == "diagonal":
        theta = diagonal_slice(run.grid_n)
        return theta, -theta
    theta1, theta2 = full_grid(run.grid_n)
    return theta1.ravel(), theta2.ravel()


def _require_diagonal_slice(run: RunConfig, artifact: str) -> None:
    """Every artifact but bands.csv samples the diagonal slice of a
    non-magnetic stack, and magnetic.txt the reduced zone of a magnetic one;
    checked before anything is written."""
    zone = artifact == "magnetic.txt"
    if (run.stack.variant is StackVariant.MAGNETIC_MONOLAYER) != zone:
        raise ConfigError(
            f"{artifact} needs a {'' if zone else 'non-'}magnetic stack; the "
            "'magnetic' subcommand runs magnetic_monolayer stacks alone"
        )
    if run.grid_kind != "diagonal":
        where = "reduced zone" if zone else "diagonal slice"
        raise ConfigError(
            f"{artifact} samples the {where} only; grid.kind 'full' "
            "(--full) serves bands.csv alone"
        )


@dataclass
class _RunContext:
    """One run's settings and arguments; the diagonal-slice surface and touch
    classification that its artifacts share, each computed on first use and
    at most once per run; and what its emitters leave for the driver besides
    their text."""

    run: RunConfig
    args: argparse.Namespace
    extra: dict = field(default_factory=dict)        # manifest blocks
    console: list[str] = field(default_factory=list)  # stdout after `wrote`
    max_dev: float = 0.0                             # validate's, for its gate

    @cached_property
    def surface(self) -> DispersionSurface:
        return sample_diagonal(self.run.stack, n=self.run.grid_n)

    @cached_property
    def touches(self) -> tuple[TouchReport, ...]:
        return classify_touches(self.surface, tol_touch=self.run.tol_touch,
                                tol_slope=self.run.tol_slope)


# ============================================================
#  Artifact emitters
# ============================================================

def _emit_bands(ctx: _RunContext) -> Iterator[str]:
    """The header, then one chunk of text per grid row (``grid.n`` points: the
    slice, or one theta1 row of the full grid) with one CSV row per point and
    band, built column by column so that no Python frame runs per value.

    Each engine row's ``band_index,eta,admissible,source`` tails are built
    once (``engine_rows``: on a full grid, one row per F up to conjugation),
    and each point repeats its ``theta1,theta2,F_real,F_imag`` head before
    its row's tails: joining ``"", tail 0, tail 1, ...`` with a newline, the
    head and a comma between them gives the point's lines, each led by a
    newline.  The theta columns are formatted from the grid's n axis values."""
    n = ctx.run.grid_n
    theta1, theta2 = _grid_thetas(ctx.run)
    rows, inverse = engine_rows(ctx.run.stack, theta1, theta2)
    f = structure_function(theta1, theta2)
    eta = _g17_text(rows.values).T.tolist()
    flag = np.array(["0", "1"], dtype=object)[rows.admissible.T.astype(np.intp)].tolist()
    source = np.array(["numeric", "closed_form"], dtype=object)[
        rows.closed.astype(np.intp)].tolist()
    tails = [list(map(",".join, zip(repeat(str(band)), etas, flags, source)))
             for band, (etas, flags) in enumerate(zip(eta, flag))]
    lines = list(zip(repeat(""), *tails))
    if inverse is not None:
        lines = list(map(lines.__getitem__, inverse.tolist()))
    # theta2 of every chunk: the slice's -theta1, or the full grid's axis,
    # which also gives each chunk of the full grid its one theta1
    axis = _g17_text(theta2[:n]).tolist()
    if ctx.run.grid_kind == "diagonal":
        firsts = [["\n" + text for text in _g17_text(theta1).tolist()]]
    else:
        firsts = (repeat("\n" + text) for text in axis)
    f_real, f_imag = _g17_text(f.real).tolist(), _g17_text(f.imag).tolist()
    yield BANDS_CSV_HEADER
    for first, lo in zip(firsts, range(0, len(theta1), n)):
        at = slice(lo, lo + n)
        heads = map(",".join, zip(first, axis, f_real[at], f_imag[at], repeat("")))
        yield "".join(map(str.join, heads, lines[at]))[1:]


def _report_records(reports: tuple[TouchReport, ...]) -> list[TouchReport]:
    """Every touch and the narrowest gap of each pair, in the order of
    ``classify_touches`` (one record per feature, by band pair and theta1).
    Of two gaps of exactly equal width the one at the larger |theta1|
    stays; near-ties fall either way, by the grid's resolution."""
    narrowest: dict[tuple[int, int], TouchReport] = {}
    for rep in reports:
        if rep.kind == "gap":
            narrowest[rep.band_pair] = min(
                narrowest.get(rep.band_pair, rep), rep,
                key=lambda r: (r.separation, -abs(r.theta1 or 0.0)))
    return [r for r in reports if r.kind != "gap" or r is narrowest[r.band_pair]]


def _record_lines(index: int, fields: dict) -> list[str]:
    """A blank line, then the record's set fields in the mapping's order
    (``value`` as ``eta``)."""
    lines = ["", f"record: {index}"]
    for name, value in fields.items():
        if value is None or value is False:
            continue
        if value is True:
            value = "true"
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        elif not isinstance(value, str):
            value = _rr(value)
        lines.append(f"{'eta' if name == 'value' else name}: {value}")
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


def _slice_header(run: RunConfig, title: str, surface, *settings: str) -> list[str]:
    """Header of a diagonal-slice report, with the closed-form gap if any."""
    lines = _report_header(run, title)
    lines += ["grid_kind: diagonal",
              f"grid_n: {surface.n_samples}",
              f"route: {surface.route}",
              *settings]
    try:
        lines.append(f"closed_form_gap: {_rr(gap_width_closed_form(run.stack))}")
    except NoClosedFormError:
        pass
    return lines


def _emit_report(ctx: _RunContext) -> list[str]:
    run = ctx.run
    records = _report_records(ctx.touches)
    lines = _slice_header(run, "classification report", ctx.surface,
                          f"tol_touch: {_rr(run.tol_touch)}",
                          f"tol_slope: {_rr(run.tol_slope)}")
    lines.append(f"records: {len(records)}")
    for idx, rep in enumerate(records, start=1):
        lines += _record_lines(idx, vars(rep))
    return lines


def _emit_gaps(ctx: _RunContext) -> list[str]:
    surface = ctx.surface
    seps = surface.separations()
    lines = _slice_header(ctx.run, "minimal separations (grid resolution)", surface)
    lines.append(f"records: {seps.shape[1]}")
    for pair in range(seps.shape[1]):
        at = int(np.argmin(seps[:, pair]))
        theta = float(surface.theta[at])
        f = structure_function(theta, -theta).real
        lines += _record_lines(pair + 1, {"band_pair": (pair, pair + 1),
                                          "min_separation": seps[at, pair],
                                          "theta1": theta, "f_value": f})
    return lines


def _emit_spectrum(ctx: _RunContext) -> list[str]:
    """spectrum.csv; its diagnostics go to stderr and, with how the Hill layer
    got there, to the manifest only, so that spectrum.csv stays deterministic."""
    run = ctx.run
    potential = run.potential if run.potential is not None else PotentialSpec.zero()
    values = ctx.surface.values
    eta_intervals = list(zip(values.min(axis=0).tolist(), values.max(axis=0).tolist()))
    result = bands_from_root_surface(potential, eta_intervals)
    # the run's potential is its own, so its state is what the spectrum cost
    state = potential.magnus
    hill = {"monodromy_evaluations": state.evaluations,
            "magnus_steps": state.steps or None,
            "magnus_halving_deviation": state.deviation if state.steps else None,
            "magnus_halving_gate": MAGNUS_TOL}
    for note in result.diagnostics:
        print(f"spectrum: {note}", file=sys.stderr)
    ctx.extra.update(notes=list(result.diagnostics), trace={"hill": hill})
    return [SPECTRUM_CSV_HEADER,
            *(f"band,{iv.eta_band},{iv.hill_band},{_g17(iv.lo)},{_g17(iv.hi)}"
              for iv in result.intervals),
            *(f"pp,,,{_g17(nu)},{_g17(nu)}" for nu in result.dirichlet)]


def _emit_plot(ctx: _RunContext) -> list[str]:
    surface = ctx.surface
    reports = ctx.touches if surface.n_samples >= MIN_CLASSIFY_SAMPLES else ()
    title = f"{ctx.run.stack.variant.value}: eta along the diagonal slice"
    return render_band_chart(surface, reports, title=title)


def _emit_magnetic(ctx: _RunContext) -> list[str]:
    run = ctx.run
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
        fields = vars(rep)
        if rep.theta1 is not None and q == 2:
            fields = {**fields, "g_value": g_function(rep.theta1, rep.theta2)}
        lines += _record_lines(idx, fields)
    return lines


def _emit_validate(ctx: _RunContext) -> list[str]:
    """validate.txt; its summary lines for stdout and its largest deviation
    go to the run context."""
    run, args = ctx.run, ctx.args
    samples, seed = args.samples, args.seed
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
    if args.corrupt_closed_form:
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
    # the max and (when any point was compared) the mean deviation lines
    ctx.console += [f"compared: {devs.size} of {samples}", *summary[3:5 if devs.size else 4]]
    ctx.max_dev = max_dev
    return header + [f"seed: {seed}"] + summary + [""] + rows


# ============================================================
#  Command driver
# ============================================================

# every artifact, in the order a run writes them; `outputs` may name the first four
_ARTIFACTS = {"bands": ("bands.csv", _emit_bands),
              "report": ("report.txt", _emit_report),
              "spectrum": ("spectrum.csv", _emit_spectrum),
              "plot": ("bands.svg", _emit_plot),
              "gaps": ("gaps.txt", _emit_gaps),
              "magnetic": ("magnetic.txt", _emit_magnetic),
              "validate": ("validate.txt", _emit_validate)}
_OUTPUT_NAMES = tuple(_ARTIFACTS)[:4]


def _run(command: str, run: RunConfig, args: argparse.Namespace) -> int:
    """Check, drop the earlier manifest and the artifacts about to be written
    (every rename then lands on a free name), write the subcommand's artifact
    and the ``outputs`` ones, the manifest and a ``wrote`` line each;
    validation fails last.  ``elapsed_seconds`` comes from a monotonic clock."""
    own = "report" if command == "classify" else command
    wanted = [name for name in _ARTIFACTS if name == own or name in run.outputs]
    files = [_ARTIFACTS[name][0] for name in wanted]
    for name, filename in zip(wanted, files):
        if name not in ("bands", "validate"):
            _require_diagonal_slice(run, filename)
    if run.potential is not None and "spectrum" not in wanted:
        raise ConfigError(
            f"config section 'potential' is read only for spectrum.csv, which "
            f"this {command!r} run does not write (add \"spectrum\" to 'outputs' "
            "or drop the potential)")
    if run.tolerances_from and not _reads_tolerances(run, files):
        raise ConfigError(
            f"{run.tolerances_from[0]} is read only for report.txt, magnetic.txt "
            f"and bands.svg from {MIN_CLASSIFY_SAMPLES} samples, none of which this "
            f"{command!r} run writes (add \"report\" to 'outputs' or drop the "
            "tolerances)")
    if "validate" in wanted:
        if args.samples < 1:
            raise ConfigError(f"--samples must be at least 1, got {args.samples}")
        # up to two theta draws a sample
        _require_array_size(2 * args.samples, f"--samples {args.samples}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    for filename in ("manifest.json", *files):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, filename))
    started = time.perf_counter()
    ctx = _RunContext(run, args)
    digests = {filename: _write_artifact(os.path.join(args.out, filename),
                                         _ARTIFACTS[name][1](ctx))
               for name, filename in zip(wanted, files)}
    _write_manifest(args.out, command, run, digests, time.perf_counter() - started,
                    ctx.extra)
    for filename in files:
        print(f"wrote {os.path.join(args.out, filename)}")
    for line in ctx.console:
        print(line)
    if not ctx.max_dev <= VALIDATE_GATE:
        raise ValidationError(f"closed-form vs eigensolver deviation {ctx.max_dev:g} "
                              f"exceeds the {VALIDATE_GATE:g} gate")
    return 0


# ============================================================
#  Argument parsing and entry point
# ============================================================

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
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
            p.add_argument("--seed", type=int, default=0,
                           help="RNG seed for the random quasimomenta")
            p.add_argument("--corrupt-closed-form", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = None
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
            return _run(args.command, run, args)
        except (ConfigError, ResolutionError) as exc:
            print(f"hexband: config error: {exc}", file=sys.stderr)
            return 1
        except ValidationError as exc:
            print(f"hexband: validation failure: {exc}", file=sys.stderr)
            return 2
        except (EngineError, OverflowError, FloatingPointError) as exc:
            alphas = "" if run is None else " (stack " + ", ".join(
                f"{k} = {_rr(v)}" for k, v in _stack_settings(run.stack).items()
                if k.startswith("alpha_")) + ")"
            print(f"hexband: numerical failure: {exc}{alphas}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"hexband: I/O error: {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:
            print(f"hexband: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
