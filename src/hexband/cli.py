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

Each section refuses, where it is parsed, any key that it does not read
(``_section``).  ``stack`` reads ``variant`` and the settings of its layout
(``lattice.LAYOUTS``): ``alpha_a``/``alpha_b``/``alpha_c`` (|alpha| <=
1e100), the couplings ``t0``/``t_a``/``t_b``, and ``flux_p``/``flux_q`` for
the magnetic variant.  ``tolerances`` (and ``--tol-touch``) must be
positive.  ``potential`` reads ``kind`` and the keys of that kind, each
required: ``{"kind": "zero"}``, ``{"kind": "file", "path": "..."}`` (a
two-column text file), or ``{"kind": "sampled", "x": [...], "values":
[...]}``, with finite numbers in both columns.  ``outputs`` lists extra
artifacts from {bands, report, spectrum, plot}, each at most once, that
every subcommand emits alongside its own.  ``_ARTIFACTS`` says what each
artifact reads besides the stack and which surface it samples: a run
refuses a section or flag that none of its artifacts reads, and its
manifest echoes the union of what they read.  The diagonal-slice artifacts
of a run share one sampled surface and one touch classification.  That
classification has one record per feature, refined on the half slice of the
even profiles (``bands.classify_touches``): ``report.txt`` keeps every
touch and the narrowest gap of each pair (of two exactly equal gaps, the
one at the larger |theta1|), and ``bands.svg`` draws each record at
+-theta1.  ``validate``'s ``--samples`` must be at least 1 and its
``--seed`` non-negative; a ``grid.n`` or ``--samples`` whose arrays numpy
cannot make exits 1 as a config error.

Subcommands: ``bands``, ``classify``, ``gaps``, ``spectrum``, ``magnetic``,
``validate``, ``plot``.  After its configuration checks a run removes the
``manifest.json`` and the artifacts that it is about to write from ``--out``
(so each rename lands on a free name: on ext4 a rename over an existing
file writes back the new file's dirty pages inside the rename).  It then
streams each artifact, a line or a chunk of lines at a time, into a temp
file renamed into ``--out``, hashing the bytes as they are written, and
last writes ``manifest.json`` echoing the resolved settings its artifacts
read and each artifact's sha256; a run that fails part-way leaves no
manifest.  Identical configurations reproduce byte-identical data files.
Stdout gets one ``wrote <path>`` line per artifact (then validate's summary
lines), stderr the diagnostics and errors.  A run that writes
``spectrum.csv`` also records in the manifest's ``trace.hill`` block, from
its potential's ``hill.MagnusState``, the Magnus step count, the worst
step-halving deviation against its gate and the number of monodromy
evaluations (null steps and deviation, and no evaluations, for the
closed-form zero potential); these never enter the data files.

Exit codes: 0 success; 1 configuration problems (including a sampling grid
too coarse to classify) and running out of memory; 2 numerical-validation
failures; 3 I/O errors while writing outputs.

Number formatting: CSV floats use fixed 17-significant-digit formatting
(``%.17g``, whose bytes ``_g17_bytes`` prints for a whole array at once);
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
from collections.abc import Callable, Iterable, Iterator
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

# the keys each config section reads: the stack's and the potential's by
# the variant or kind that selects them (see ``_section``)
_DOCUMENT_KEYS = ("schema_version", "stack", "grid", "tolerances", "potential",
                  "outputs")
_STACK_KEYS = {variant.value: LAYOUTS[variant].fields for variant in StackVariant}
_POTENTIAL_KEYS = {"zero": (), "file": ("path",), "sampled": ("x", "values")}


# _g17_bytes' tables: 10**k, which scales |x| with E = 16 - k to 17 integer
# digits, with Dekker's split of each into two 26-bit halves; and the ASCII
# digits of each 4-digit chunk 0000..9999 as one uint32, then again with
# its trailing zeros as NUL
_G17_WIDTH = 24             # "-" + 17 digits + "." + "e-308" is the longest
_G17_BLOCK = 4096           # values per pass, which bounds its temporaries
_G17_KERNEL_MIN = 128       # fewer values take "%.17g" each (see _g17_bytes)
_SPLITTER = 134217729.0     # 2**27 + 1
_POW10 = np.array([float(10 ** k) for k in range(23)])      # exact doubles
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGITS = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
_DIGITS[..., 0] = np.arange(48, 58)[:, None, None, None]
_DIGITS[..., 1] = np.arange(48, 58)[:, None, None]
_DIGITS[..., 2] = np.arange(48, 58)[:, None]
_DIGITS[..., 3] = np.arange(48, 58)
# chunk d1 d2 d3 d4 of the second copy: NUL from d4 when d4 = 0, from d3
# when d3 = d4 = 0, and so on
_DIGITS[1, ..., 0, 3:] = 0
_DIGITS[1, ..., 0, 0, 2:] = 0
_DIGITS[1, :, 0, 0, 0, 1:] = 0
_DIGITS[1, 0, 0, 0, 0] = 0
_DIGITS = _DIGITS.view(np.uint32).ravel()


def _exact_product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` as p + e exactly: p the rounded product, e its error
    (Dekker's TwoProduct, exact while nothing overflows or underflows)."""
    p = a * _POW10[k]
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _g17_bytes(values: np.ndarray) -> np.ndarray:
    """The ASCII bytes of ``"%.17g" % (x + 0.0)`` of every value x (-0.0 +
    0.0 is 0.0, so every zero reads "0"), as an ``S24`` array of the same
    shape, made by numpy in blocks of ``_G17_BLOCK`` values.

    ``%.17g`` writes 1e-4 <= |x| < 1e16 in fixed notation: the 17
    significant digits of x rounded half to even, the decimal point after
    digit E + 1 (E = floor(log10 |x|); "0." and -E - 1 zeros come first
    when E < 0), and no trailing zeros in the fraction, nor its point if
    none is left.  The kernel writes those digits itself for every such x
    that is not a whole number.  10**k for k = 16 - E is an exact double,
    and Dekker's product gives |x| * 10**k = p + e exactly.  The digits are
    N = round(p + e), half to even: p >= 2**53 is an even integer, so that
    is p + rint(e).  log10 can put E one off near a power of ten, so E moves
    until the exact p + e lies in [1e16, 1e17), compared as the pair (p, e),
    not p alone (0.09999999999999999 gives p = 1e16 and e < 0).  N never
    rounds up to 10**17: that would take a double within 5e-18 (relative)
    below a power of ten, and the doubles nearest to 1e-3, 1e-2 and 1e-1
    lie above them (the tests cover 3 ulp either side of each power of
    ten).  The lanes are then grouped by E and each group's text is laid
    out by slicing.  N's
    trailing zeros all lie in the fraction, since x is not whole, so they
    are written as NUL, which ends an ``S24`` value.

    Every other value takes ``"%.17g"`` itself: 0 and
    -0.0 (both written "0"), |x| < 1e-4, |x| >= 1e16, whole numbers, inf
    and nan.  No such lane reaches ``log10`` or the product, so the kernel
    raises nothing under ``np.errstate(all="raise")``.  ``tests/test_cli.py``
    holds it to ``"%.17g"`` on a million values.

    A block of fewer than ``_G17_KERNEL_MIN`` values takes ``"%.17g"`` for
    every value: below about 128 values that costs less than the kernel's
    fixed cost, about 70 us on a 2-core x86 VM, which on ``spectrum.csv``'s
    24-56 values added a tenth to a zero-potential ``spectrum`` job.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    text = np.empty(flat.size, dtype=f"S{_G17_WIDTH}")
    for start in range(0, flat.size, _G17_BLOCK):
        _g17_block(flat[start:start + _G17_BLOCK], text[start:start + _G17_BLOCK])
    return text.reshape(values.shape)


def _g17_block(x: np.ndarray, text: np.ndarray) -> None:
    """``_g17_bytes`` of one block of values, written into ``text``."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (len(x) >= _G17_KERNEL_MIN)
    # a whole number has no fraction to keep, nor its point
    fast &= np.floor(a, out=np.zeros_like(a), where=fast) != a
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = ["%.17g" % (value + 0.0) for value in x[slow].tolist()]
    lanes = np.flatnonzero(fast)
    if not lanes.size:
        return
    a = a[lanes]
    e10 = np.floor(np.log10(a)).astype(np.intp)
    p, e = _exact_product(a, 16 - e10)
    step = (((p > 1e17) | ((p == 1e17) & (e >= 0.0))).view(np.int8)
            - ((p < 1e16) | ((p == 1e16) & (e < 0.0))).view(np.int8))
    off = np.flatnonzero(step)
    if off.size:
        e10[off] += step[off]
        p[off], e[off] = _exact_product(a[off], 16 - e10[off])
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # group the lanes by E = -4..15; split N's 17 digits into a lead digit
    # and four 4-digit chunks, and write each chunk's ASCII with its trailing
    # zeros as NUL when the chunks after it are 0: N's trailing zeros, which
    # all lie in the fraction of a number that is not whole
    group = (e10 + 4).astype(np.uint8)
    order = np.argsort(group, kind="stable")
    digits = digits[order]
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    lead = high // 10 ** 8
    high -= lead * 10 ** 8
    c1, c3 = high // 10 ** 4, low // 10 ** 4
    c2, c4 = high - c1 * 10 ** 4, low - c3 * 10 ** 4
    n = len(digits)
    ascii4 = np.empty((n, 5), dtype=np.uint32)
    ascii4[:, 0] = _DIGITS[lead]
    ascii4[:, 1] = _DIGITS[c1 + 10 ** 4 * ((low == 0) & (c2 == 0))]
    ascii4[:, 2] = _DIGITS[c2 + 10 ** 4 * (low == 0)]
    ascii4[:, 3] = _DIGITS[c3 + 10 ** 4 * (c4 == 0)]
    ascii4[:, 4] = _DIGITS[c4 + 10 ** 4]
    ascii = ascii4.view(np.uint8)[:, 3:]            # the 17 digits
    # each lane's 32 bytes: "-", then the unsigned text, then NUL
    chars = np.zeros((n, 32), dtype=np.uint8)
    chars[:, 0] = ord("-")
    start = 0
    for exp, count in enumerate(np.bincount(group, minlength=20).tolist(), start=-4):
        if not count:
            continue
        row, digit = chars[start:start + count], ascii[start:start + count]
        if exp >= 0:        # E + 1 digits, ".", 16 - E digits
            row[:, 1:exp + 2] = digit[:, :exp + 1]
            row[:, exp + 2] = ord(".")
            row[:, exp + 3:19] = digit[:, exp + 1:]
        else:               # "0.", -E - 1 zeros, 17 digits
            row[:, 1:2 - exp] = np.frombuffer(b"0." + b"0" * (-exp - 1), dtype=np.uint8)
            row[:, 2 - exp:19 - exp] = digit
        start += count
    # a lane's text is the 24 bytes from its byte 0 when x < 0, else from
    # its byte 1
    offset = np.empty(n, dtype=np.intp)
    offset[order] = np.arange(0, 32 * n, 32)
    offset += x[lanes] >= 0.0
    windows = np.ndarray((32 * n - 23,), dtype=text.dtype, buffer=chars, strides=(1,))
    text[lanes] = windows[offset]


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
    # the config section or flag that set each checked setting (grid,
    # tolerances, potential), the first one given
    set_by: dict[str, str] = field(default_factory=dict)


def _section(value, name: str, reads, select: str | None = None) -> dict:
    """``value`` as the config section ``name`` ("" for the document): an
    object with no key that the section does not read.  ``reads`` holds its
    keys; for a section whose ``select`` key picks what it reads, it maps
    each choice to the keys that choice reads besides ``select``."""
    where = f"config section {name!r}" if name else "the config document"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    if select:
        choice = value.get(select)
        if not isinstance(choice, str) or choice not in reads:
            raise ConfigError(f"unknown {name}.{select} {choice!r} "
                              f"(one of: {', '.join(reads)})")
        where, reads = f"{name}.{select} {choice!r}", reads[choice]
    unread = sorted(value.keys() - {select, *reads})
    if unread:
        key = f"{name}.{unread[0]}" if name else unread[0]
        raise ConfigError(f"config field {key!r} is not read by {where} "
                          f"(its settings: {', '.join(sorted(reads)) or 'none'})")
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


def _parse_stack(raw) -> StackConfig:
    data = _section(raw, "stack", _STACK_KEYS, "variant")
    variant = StackVariant(data["variant"])
    values = {name: _as_float(data[name], f"stack.{name}")
              for name in sorted(data.keys() - {"variant", "flux_p", "flux_q"})}
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
    data = _section(raw, "potential", _POTENTIAL_KEYS, "kind")
    kind = data["kind"]
    missing = [f"potential.{key}" for key in _POTENTIAL_KEYS[kind] if key not in data]
    if missing:
        raise ConfigError(f"potential.kind {kind!r} requires {' and '.join(missing)}")
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "file":
        # np.loadtxt would read a list of strings as inline data rows
        if not isinstance(data["path"], str):
            raise ConfigError("config field 'potential.path' must be a string")
        return PotentialSpec.from_file(data["path"])
    columns = []
    for name in ("x", "values"):
        if not isinstance(data[name], list):
            raise ConfigError(f"config field 'potential.{name}' must be a list")
        columns.append([_as_float(v, f"potential.{name}[{i}]")
                        for i, v in enumerate(data[name])])
    return PotentialSpec.sampled(*columns)


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
    _section(raw, "", _DOCUMENT_KEYS)
    if _as_int(raw.get("schema_version", 0), "schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare schema_version = {SCHEMA_VERSION} "
            f"(got {raw.get('schema_version')!r})"
        )
    if "stack" not in raw:
        raise ConfigError("config section 'stack' is required")
    run = RunConfig(stack=_parse_stack(raw["stack"]))

    if "grid" in raw:
        grid = _section(raw["grid"], "grid", ("kind", "n"))
        grid_kind = grid.get("kind", run.grid_kind)
        if grid_kind not in ("diagonal", "full"):
            raise ConfigError(
                f"grid.kind must be 'diagonal' or 'full', got {grid_kind!r}"
            )
        run = replace(run, grid_kind=grid_kind,
                      grid_n=_as_int(grid.get("n", run.grid_n), "grid.n"))

    if "tolerances" in raw:
        tols = _section(raw["tolerances"], "tolerances", ("tol_touch", "tol_slope"))
        run = replace(run, tol_touch=_tolerance(tols.get("tol_touch", run.tol_touch),
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
    return replace(run, set_by={name: f"config section {name!r}" for name in
                                ("grid", "tolerances", "potential") if name in raw})


def _apply_overrides(run: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.grid is not None:
        run = replace(run, grid_n=args.grid, set_by={"grid": "--grid", **run.set_by})
    if args.grid_kind is not None:
        run = replace(run, grid_kind=args.grid_kind,
                      set_by={"grid": "--" + args.grid_kind, **run.set_by})
    if args.tol_touch is not None:
        run = replace(run, tol_touch=_tolerance(args.tol_touch, "--tol-touch"),
                      set_by={"tolerances": "--tol-touch", **run.set_by})
    return run


def _stack_numbers(stack: StackConfig) -> dict:
    """The alphas and the coupling strengths that are set, in config order."""
    numbers = vars(stack.vertex) | vars(stack.coupling or CouplingParams())
    return {name: value for name, value in numbers.items() if value is not None}


def _stack_settings(stack: StackConfig) -> dict:
    """The settings of the stack that its layout reads, in config order."""
    flux = {"flux_p": stack.flux.p, "flux_q": stack.flux.q} if stack.flux else {}
    return {k: v for k, v in (_stack_numbers(stack) | flux).items()
            if k in stack.layout.fields}


def _config_echo(run: RunConfig, reads: set[str]) -> dict:
    """The stack and the settings ``reads`` of a run (``_Artifact.reads``),
    as a config; a run given no potential reads the zero one, which its
    absence re-runs."""
    stack = {"variant": run.stack.variant.value, **_stack_settings(run.stack)}
    echo = {"schema_version": SCHEMA_VERSION, "stack": stack,
            "outputs": list(run.outputs)}
    if "grid" in reads:
        echo["grid"] = {key: getattr(run, "grid_" + key) for key in ("kind", "n")
                        if "grid." + key in reads}
    if "tolerances" in reads:
        echo["tolerances"] = {"tol_touch": run.tol_touch, "tol_slope": run.tol_slope}
    if "potential" in reads and run.potential is not None:
        pot: dict = {"kind": run.potential.kind}
        if run.potential.kind == "sampled":
            pot["x"] = list(map(float, run.potential.x))
            pot["values"] = list(map(float, run.potential.values))
        echo["potential"] = pot
    return echo


# ============================================================
#  Output plumbing
# ============================================================

def _write_artifact(path: str, chunks: Iterable[str | bytes]) -> str:
    """Write each of ``chunks``, as it comes, to a temp file renamed to
    ``path``: a str is one line, written as UTF-8 with its ``"\n"``; bytes
    are lines an emitter made whole, written as they are.  Return the
    ``sha256:`` digest of the bytes written."""
    digest = hashlib.sha256()
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.hexband.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                data = chunk if isinstance(chunk, bytes) else (chunk + "\n").encode("utf-8")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return "sha256:" + digest.hexdigest()


def _write_manifest(outdir: str, command: str, echo: dict,
                    digests: dict[str, str], elapsed: float, extra: dict) -> None:
    manifest = {
        "tool": "hexband",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "elapsed_seconds": elapsed,
        "config": echo,
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

def _emit_bands(ctx: _RunContext) -> Iterator[str | bytes]:
    """The header line, then one bytes chunk per grid row (``grid.n`` points:
    the slice, or one theta1 row of the full grid) with one CSV line per
    point and band, built column by column so that no Python frame runs per
    value.  Every number is ``_g17_bytes`` text, which goes to the file
    without a str round trip.

    Each engine row's ``band_index,eta,admissible,source`` tails and its
    ``F_real,F_imag`` text are built once (``engine_rows``: on a full grid,
    one row per F up to conjugation, whose F the engine pass computed), and
    each point gathers them through its row, with Im F negated where the
    point's F is the conjugate of its row's.  Each point repeats its
    ``theta1,theta2,F_real,F_imag`` head before its row's tails: joining
    ``"", tail 0, tail 1, ...`` with the head gives the point's lines.  The
    theta columns are formatted from the grid's n axis values."""
    n = ctx.run.grid_n
    theta1, theta2 = _grid_thetas(ctx.run)
    rows, inverse, f, folded = engine_rows(ctx.run.stack, theta1, theta2)
    if f is None:       # a flux cell's engine reads theta; its rows are the points
        f = structure_function(theta1, theta2)
    # each engine row's "band,eta,admissible,source\n" tails, with numpy's
    # byte-string concatenation
    suffix = np.array([[b",0,numeric\n", b",1,numeric\n"],
                       [b",0,closed_form\n", b",1,closed_form\n"]])[
        rows.closed.astype(np.intp)[:, None], rows.admissible.astype(np.intp)]
    prefix = np.array([b"%d," % band for band in range(rows.values.shape[1])])
    tails = np.char.add(np.char.add(prefix, _g17_bytes(rows.values)), suffix)
    lines = np.fromiter(zip(repeat(b""), *tails.T.tolist()), dtype=object,
                        count=len(tails))
    re, im = _g17_bytes(np.stack([f.real, f.imag]))
    heads = np.char.add(np.char.add(re, b","), np.char.add(im, b","))
    if inverse is not None:
        # a folded point's row holds Im F > 0, so its own Im F reads "-" + that
        negated = np.char.add(np.char.add(re, b",-"), np.char.add(im, b","))
        heads = np.concatenate([heads, negated]).astype(object)[inverse + len(re) * folded]
        lines = lines[inverse]
    heads, lines = heads.tolist(), lines.tolist()
    # theta2 of every chunk: the slice's -theta1, or the full grid's axis,
    # which also gives each chunk of the full grid its one theta1
    axis = _g17_bytes(theta2[:n]).tolist()
    if ctx.run.grid_kind == "diagonal":
        firsts = [_g17_bytes(theta1).tolist()]
    else:
        firsts = map(repeat, axis)
    yield BANDS_CSV_HEADER
    for first, lo in zip(firsts, range(0, len(theta1), n)):
        at = slice(lo, lo + n)
        yield b"".join(map(bytes.join, map(b",".join, zip(first, axis, heads[at])),
                           lines[at]))


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


def _emit_spectrum(ctx: _RunContext) -> list[str | bytes]:
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
    # the rows as one bytes chunk: each record's head, then its two ends
    rows = [(b"band,%d,%d" % (iv.eta_band, iv.hill_band), iv.lo, iv.hi)
            for iv in result.intervals] + [(b"pp,,", nu, nu) for nu in result.dirichlet]
    ends = _g17_bytes(np.array([row[1:] for row in rows]).reshape(-1, 2)).tolist()
    return [SPECTRUM_CSV_HEADER, b"".join(
        b"%s,%s,%s\n" % (row[0], lo, hi) for row, (lo, hi) in zip(rows, ends))]


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


def _emit_validate(ctx: _RunContext) -> list[str | bytes]:
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
    # one line per sample, as one bytes chunk built column by column; a
    # sample without a closed form has no deviation
    first, second, deviation = _g17_bytes(np.stack([theta1, theta2, devs]))
    status = np.where(compared, np.char.add(b"compared,", deviation), b"no_closed_form,")
    rows = b"".join(b"%d,%s,%s,%s\n" % row for row in zip(
        range(samples), first.tolist(), second.tolist(), status.tolist()))
    devs = devs[compared]
    max_dev = float(np.max(devs)) if devs.size else 0.0
    mean_dev = float(np.mean(devs)) if devs.size else 0.0
    texts = _g17_bytes(np.array([max_dev, mean_dev, VALIDATE_GATE])).astype(str).tolist()
    summary = [f"samples: {samples}",
               f"compared: {devs.size}",
               f"skipped_no_closed_form: {samples - devs.size}",
               *(f"{name}: {text}" for name, text in zip(
                   ("max_abs_deviation", "mean_abs_deviation", "gate"), texts)),
               f"verdict: {'FAIL' if not max_dev <= VALIDATE_GATE else 'PASS'}"]
    header = _report_header(run, "closed-form vs eigensolver validation")
    # the max and (when any point was compared) the mean deviation lines
    ctx.console += [f"compared: {devs.size} of {samples}", *summary[3:5 if devs.size else 4]]
    ctx.max_dev = max_dev
    return header + [f"seed: {seed}"] + summary + [
        "", "# index,theta1,theta2,status,max_abs_deviation", rows]


# ============================================================
#  Command driver
# ============================================================

@dataclass(frozen=True)
class _Artifact:
    """An artifact's file and emitter, and what it reads besides the stack:
    the fields of the grid (``grid``), the tolerances from grid.n =
    ``classifies_from`` on and the potential.  ``surface`` is what it
    samples: the "diagonal slice" of a non-magnetic stack, the "reduced
    zone" of a magnetic one, or "" for any stack and grid kind."""

    file: str
    emit: Callable[[_RunContext], Iterable[str | bytes]]
    grid: tuple[str, ...] = ("kind", "n")
    surface: str = "diagonal slice"
    classifies_from: float = float("inf")
    potential: bool = False
    ignores: tuple[str, ...] = ()   # the sections it accepts without reading

    def reads(self, run: RunConfig) -> set[str]:
        """The sections it reads on ``run``'s grid, and ``grid.<field>``
        for each field of the grid."""
        sections = {"grid": bool(self.grid), "potential": self.potential,
                    "tolerances": run.grid_n >= self.classifies_from}
        return {name for name, read in sections.items() if read} | {
            "grid." + key for key in self.grid}


# every artifact, in the order a run writes them; `outputs` may name the first
# four.  README's "What each artifact reads" table mirrors this one.
_ARTIFACTS = {
    "bands": _Artifact("bands.csv", _emit_bands, surface=""),
    "report": _Artifact("report.txt", _emit_report, classifies_from=0),
    "spectrum": _Artifact("spectrum.csv", _emit_spectrum, potential=True),
    "plot": _Artifact("bands.svg", _emit_plot, classifies_from=MIN_CLASSIFY_SAMPLES),
    "gaps": _Artifact("gaps.txt", _emit_gaps),
    "magnetic": _Artifact("magnetic.txt", _emit_magnetic, ("n",), "reduced zone",
                          classifies_from=0),
    # validate draws its own quasimomenta; it accepts a grid and ignores it
    # while the benchmark's validate jobs carry one
    "validate": _Artifact("validate.txt", _emit_validate, (), "", ignores=("grid",)),
}
_OUTPUT_NAMES = tuple(_ARTIFACTS)[:4]


def _check(command: str, run: RunConfig) -> tuple[list[_Artifact], set[str]]:
    """The artifacts that a run writes and the union of what they read, once
    each has the surface it samples and each setting the run was given is
    read or ignored by one of them."""
    own = "report" if command == "classify" else command
    artifacts = [a for name, a in _ARTIFACTS.items() if name == own or name in run.outputs]
    for a in artifacts:
        if a.surface and run.stack.layout.flux != (a.surface == "reduced zone"):
            raise ConfigError(
                f"{a.file} needs a {'non-' if run.stack.layout.flux else ''}magnetic "
                "stack; the 'magnetic' subcommand runs magnetic_monolayer stacks alone")
        if a.surface and run.grid_kind != "diagonal":
            raise ConfigError(f"{a.file} samples the {a.surface} only; grid.kind "
                              "'full' (--full) serves bands.csv alone")
    reads = set().union(*(a.reads(run) for a in artifacts))
    for setting, source in run.set_by.items():
        if setting not in reads.union(*(a.ignores for a in artifacts)):
            readers = [a.file for a in _ARTIFACTS.values() if setting in a.reads(run)]
            raise ConfigError(
                f"{source} is read only by {', '.join(readers)}; this {command!r} run "
                f"writes {', '.join(a.file for a in artifacts)}")
    return artifacts, reads


def _run(command: str, run: RunConfig, args: argparse.Namespace) -> int:
    """Check, drop the earlier manifest and the artifacts about to be written
    (every rename then lands on a free name), write the subcommand's artifact
    and the ``outputs`` ones, the manifest and a ``wrote`` line each;
    validation fails last.  ``elapsed_seconds`` comes from a monotonic clock."""
    artifacts, reads = _check(command, run)
    if command == "validate":
        if args.samples < 1:
            raise ConfigError(f"--samples must be at least 1, got {args.samples}")
        # up to two theta draws a sample
        _require_array_size(2 * args.samples, f"--samples {args.samples}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    for filename in ("manifest.json", *(a.file for a in artifacts)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, filename))
    started = time.perf_counter()
    ctx = _RunContext(run, args)
    digests = {a.file: _write_artifact(os.path.join(args.out, a.file), a.emit(ctx))
               for a in artifacts}
    _write_manifest(args.out, command, _config_echo(run, reads), digests,
                    time.perf_counter() - started, ctx.extra)
    for filename in digests:
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
