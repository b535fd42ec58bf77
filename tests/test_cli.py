"""Config ingestion, artifact serialization, exit codes, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import hexband
from hexband import cli, hill
from hexband.bands import roots_at, sample_diagonal
from hexband.cli import (
    BANDS_CSV_HEADER,
    RunConfig,
    SPECTRUM_CSV_HEADER,
    _g17,
    _g17_text,
    _write_artifact,
    load_run_config,
    main,
)
from hexband.errors import ConfigError
from hexband.floquet import assemble, char_poly
from hexband.hill import MAGNUS_TOL
from hexband.lattice import StackVariant, diagonal_slice, full_grid, structure_function

import frozen


def _write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "schema_version": 1,
        "stack": {"variant": "monolayer", "alpha_a": 1.0, "alpha_b": -1.0},
        "grid": {"kind": "diagonal", "n": 301},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, command, config, *extra):
    outdir = tmp_path / "out"
    code = main([command, "--config", config, "--out", str(outdir), *extra])
    return code, outdir


def _python(*args):
    # a child interpreter imports the hexband that these tests import,
    # installed or not
    src = os.path.dirname(os.path.dirname(hexband.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_importing_the_cli_loads_no_scipy():
    # the Hill layer integrates and finds roots without scipy, which only
    # the test suite needs
    proc = _python("-c", "import sys, hexband.cli; print(sorted(m for m in sys.modules "
                         "if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_network_stack():
    # the plot escapes its text with html.escape; xml.sax.saxutils would
    # bring in urllib.request and with it http, ssl and email
    code = ("import json, sys; before = set(sys.modules); import hexband.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "hexband.svgplot" in added
    assert not added & {"urllib.request", "http.client", "ssl", "email.parser"}


def _records(text):
    """Parse a key-value report into (header dict, list of record dicts)."""
    header: dict = {}
    records: list[dict] = []
    current = header
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "record":
            current = {}
            records.append(current)
        current[key] = value
    return header, records


# ------------------------------------------------------------
#  Configuration parsing
# ------------------------------------------------------------

class TestConfig:
    def test_happy_path(self, tmp_path):
        path = _write_config(tmp_path,
                             tolerances={"tol_touch": 1e-7},
                             outputs=["bands", "plot"])
        run = load_run_config(path)
        assert isinstance(run, RunConfig)
        assert run.stack.variant is StackVariant.MONOLAYER
        assert run.grid_n == 301
        assert run.tol_touch == 1e-7
        assert run.tol_slope == 1e-4
        assert run.outputs == ("bands", "plot")

    def test_unknown_top_level_key(self, tmp_path):
        path = _write_config(tmp_path, extra_section={})
        with pytest.raises(ConfigError, match="extra_section"):
            load_run_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = _write_config(
            tmp_path, stack={"variant": "monolayer", "alpha_x": 1.0})
        with pytest.raises(ConfigError, match="alpha_x"):
            load_run_config(path)

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stack": {"variant": "monolayer"}}))
        with pytest.raises(ConfigError, match="schema_version"):
            load_run_config(str(path))

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_schema_version_is_the_integer_one(self, tmp_path, version):
        path = _write_config(tmp_path, schema_version=version)
        with pytest.raises(ConfigError, match="'schema_version' must be an integer"):
            load_run_config(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_run_config(str(path))

    def test_unknown_variant_lists_choices(self, tmp_path):
        path = _write_config(tmp_path, stack={"variant": "pentalayer"})
        with pytest.raises(ConfigError, match="pentalayer"):
            load_run_config(str(path))

    def test_bad_grid_kind(self, tmp_path):
        path = _write_config(tmp_path, grid={"kind": "radial", "n": 100})
        with pytest.raises(ConfigError, match="radial"):
            load_run_config(path)

    def test_bad_output_name(self, tmp_path):
        path = _write_config(tmp_path, outputs=["bands", "hologram"])
        with pytest.raises(ConfigError, match="hologram"):
            load_run_config(path)

    def test_duplicate_output_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, outputs=["spectrum", "plot", "spectrum"])
        code, outdir = _run(tmp_path, "classify", cfg)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["hexband: config error: output 'spectrum' is listed twice "
                       "in 'outputs'"]
        assert not outdir.exists()

    def test_missing_file_is_config_error_exit(self, tmp_path):
        code, _ = _run(tmp_path, "bands", str(tmp_path / "absent.json"))
        assert code == 1

    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_nan_alpha_is_config_error(self, tmp_path, capsys, command):
        # json accepts NaN; without the check it sailed through every gate
        cfg = _write_config(tmp_path, stack={"variant": "monolayer",
                                             "alpha_a": float("nan"),
                                             "alpha_b": -1.0})
        code, _ = _run(tmp_path, command, cfg)
        assert code == 1
        assert "stack.alpha_a" in capsys.readouterr().err

    def test_infinite_coupling_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, stack={"variant": "bilayer_aa",
                                             "alpha_a": 0.1, "alpha_b": 0.2,
                                             "t0": float("inf")})
        code, _ = _run(tmp_path, "classify", cfg)
        assert code == 1
        assert "stack.t0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,stack", [
        # alpha inside the 1e100 bound still overflows: in Python in the q = 2
        # quartic's (alpha_N alpha_B - 3) ** 2, in numpy in the trilayer's roots
        ("magnetic", {"variant": "magnetic_monolayer", "alpha_a": 1e100,
                      "alpha_b": 1e100, "flux_p": 1, "flux_q": 2}),
        ("classify", {"variant": "trilayer_hbn_g_hbn", "alpha_a": 1e100,
                      "alpha_b": -1e100, "t0": 0.5}),
    ], ids=["python-overflow", "numpy-overflow"])
    def test_overflow_is_numerical_failure(self, tmp_path, capsys, command,
                                           stack):
        cfg = _write_config(tmp_path, stack=stack)
        code, _ = _run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("hexband: numerical failure:")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert f"alpha_a = {stack['alpha_a']!r}" in err

    @pytest.mark.parametrize("command", ["classify", "magnetic"])
    def test_alpha_beyond_the_bound_is_config_error(self, tmp_path, capsys,
                                                    command):
        # the closed forms square alpha; past 1e100 a float could overflow
        cfg = _write_config(tmp_path, stack={"variant": "monolayer",
                                             "alpha_a": 1e200, "alpha_b": -1.0})
        code, _ = _run(tmp_path, command, cfg)
        assert code == 1
        assert "stack.alpha_a" in capsys.readouterr().err
        load_run_config(_write_config(tmp_path, stack={
            "variant": "monolayer", "alpha_a": 1e100, "alpha_b": -1e100}))

    @pytest.mark.parametrize("field,value", [
        ("tol_touch", -1.0), ("tol_touch", 0.0), ("tol_slope", -5.0),
        ("tol_slope", 0.0)])
    def test_non_positive_tolerance_is_config_error(self, tmp_path, capsys,
                                                     field, value):
        # below zero no separation passes the gates, so every pair read as a gap
        cfg = _write_config(tmp_path, tolerances={field: value})
        code, outdir = _run(tmp_path, "classify", cfg)
        assert code == 1
        assert f"tolerances.{field}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("value", ["-1e-6", "0", "nan"])
    def test_non_positive_tol_touch_flag_is_config_error(self, tmp_path, capsys,
                                                         value):
        code, _ = _run(tmp_path, "classify", _write_config(tmp_path),
                       f"--tol-touch={value}")
        assert code == 1
        assert "--tol-touch" in capsys.readouterr().err

    @pytest.mark.parametrize("stack,field", [
        ({"variant": "monolayer", "alpha_c": 0.7}, "stack.alpha_c"),
        ({"variant": "bilayer_aa", "t0": 0.5, "t_a": 0.9}, "stack.t_a"),
        ({"variant": "bilayer_aa", "t0": 0.5, "alpha_c": 0.1}, "stack.alpha_c"),
        ({"variant": "bilayer_aa_two_param", "t_a": 0.5, "t_b": 0.4,
          "t0": 0.3}, "stack.t0"),
        ({"variant": "magnetic_monolayer", "flux_p": 1, "flux_q": 2,
          "t0": 0.3}, "stack.t0"),
    ], ids=["monolayer-alpha_c", "bilayer_aa-t_a", "bilayer_aa-alpha_c",
            "two_param-t0", "magnetic-t0"])
    def test_setting_the_variant_does_not_read_is_config_error(
            self, tmp_path, capsys, stack, field):
        cfg = _write_config(tmp_path, stack=stack)
        code, _ = _run(tmp_path, "classify", cfg)
        assert code == 1
        assert field in capsys.readouterr().err

    def test_sampled_potential_parses(self, tmp_path):
        x = list(np.linspace(0.0, 1.0, 21))
        v = list(np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 21)))
        path = _write_config(
            tmp_path, potential={"kind": "sampled", "x": x, "values": v})
        run = load_run_config(path)
        assert run.potential is not None and run.potential.kind == "sampled"

    @pytest.mark.parametrize("x,values,field", [
        # a string raised a bare ValueError traceback; booleans read as 0 and 1
        (["0", "1"], [0.0, 0.0], "potential.x[0]"),
        ([0.0, 0.5, 1.0], [True, False, True], "potential.values[0]"),
        (0.0, [0.0], "potential.x"),
    ], ids=["string", "boolean", "scalar"])
    def test_non_numeric_sampled_potential_is_config_error(
            self, tmp_path, capsys, x, values, field):
        cfg = _write_config(tmp_path, potential={"kind": "sampled", "x": x,
                                                 "values": values})
        code, _ = _run(tmp_path, "spectrum", cfg)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"'{field}'" in err[0]


# ------------------------------------------------------------
#  bands subcommand
# ------------------------------------------------------------

def _bands_csv_by_point(stack, theta1, theta2):
    # the point-by-point writer that the column-wise emitter replaced
    def g17(x):
        value = float(x)
        return f"{0.0 if value == 0.0 else value:.17g}"

    roots = roots_at(stack, theta1, theta2)
    f = structure_function(theta1, theta2)
    lines = [BANDS_CSV_HEADER]
    for a, b, fr, fi, row, flags, closed in zip(
            theta1, theta2, f.real, f.imag, roots.values, roots.admissible, roots.closed):
        source = "closed_form" if closed else "numeric"
        for band, (eta, ok) in enumerate(zip(row, flags)):
            lines.append(f"{g17(a)},{g17(b)},{g17(fr)},{g17(fi)},{band},{g17(eta)},"
                         f"{int(ok)},{source}")
    return "\n".join(lines) + "\n"


class TestBands:
    @pytest.mark.parametrize("stack,full", [
        ({"variant": "monolayer", "alpha_a": 0.0, "alpha_b": 0.0}, False),
        ({"variant": "hetero_bilayer", "alpha_a": -0.8, "alpha_b": 0.8, "t0": 0.4}, True),
        ({"variant": "trilayer_g_hbn_g", "alpha_a": -1.0, "alpha_b": 0.7, "t0": 0.3}, True),
    ], ids=["monolayer-diagonal", "hetero_bilayer-full", "trilayer_g_hbn_g-full"])
    def test_rows_equal_the_point_by_point_writer(self, tmp_path, stack, full):
        cfg = _write_config(tmp_path, stack=stack)
        n = 9 if full else 41
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", str(n),
                            *(["--full"] if full else []))
        assert code == 0
        if full:
            theta1, theta2 = (axis.ravel() for axis in full_grid(n))
        else:
            theta1 = diagonal_slice(n)
            theta2 = -theta1
        expected = _bands_csv_by_point(load_run_config(cfg).stack, theta1, theta2)
        assert (outdir / "bands.csv").read_text() == expected

    def test_row_count_and_header(self, tmp_path):
        cfg = _write_config(tmp_path, stack={"variant": "monolayer"})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "5")
        assert code == 0
        lines = (outdir / "bands.csv").read_text().splitlines()
        assert lines[0] == BANDS_CSV_HEADER
        assert len(lines) == 1 + 5 * 2

    def test_four_bands_per_point_for_bilayer(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "bilayer_aa", "alpha_a": -1.0, "alpha_b": -1.0,
                   "t0": 0.3})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "7")
        assert code == 0
        lines = (outdir / "bands.csv").read_text().splitlines()
        assert len(lines) == 1 + 7 * 4
        assert all(line.endswith(",closed_form") for line in lines[1:])

    def test_round_trip_reconstructs_surface(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "monolayer", "alpha_a": 0.3, "alpha_b": -0.4})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "101")
        assert code == 0
        lines = (outdir / "bands.csv").read_text().splitlines()[1:]
        parsed = np.array([[float(cell) for cell in line.split(",")[:6]]
                           for line in lines])
        surface = sample_diagonal(
            load_run_config(cfg).stack, n=101)
        rebuilt = parsed[:, 5].reshape(101, 2)
        assert np.array_equal(rebuilt, surface.values)
        assert np.array_equal(parsed[::2, 0], surface.theta)

    def test_rows_are_char_poly_roots(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "bilayer_aa_prime", "alpha_a": -1.0,
                   "alpha_b": 1.0, "t0": 0.3})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "31")
        assert code == 0
        stack = load_run_config(cfg).stack
        for line in (outdir / "bands.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            t1, t2, eta = float(cells[0]), float(cells[1]), float(cells[5])
            coeffs = char_poly(assemble(stack, t1, t2))
            residual = abs(npoly.polyval(eta, coeffs)) / abs(coeffs[-1])
            assert residual < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["bands", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["bands", "--config", cfg, "--out", str(out_b)]) == 0
        bytes_a = (out_a / "bands.csv").read_bytes()
        assert bytes_a == (out_b / "bands.csv").read_bytes()
        man_a = json.loads((out_a / "manifest.json").read_text())
        man_b = json.loads((out_b / "manifest.json").read_text())
        assert man_a["outputs"] == man_b["outputs"]

    def test_manifest_digest_matches_file(self, tmp_path):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "11")
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        expected = ("sha256:" + hashlib.sha256(
            (outdir / "bands.csv").read_bytes()).hexdigest())
        assert manifest["outputs"]["bands.csv"] == expected
        assert manifest["config"]["grid"] == {"kind": "diagonal", "n": 11}
        assert manifest["tool"] == "hexband"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=30))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308,
              float("inf"), float("-inf"), float("nan"), -float("nan")])
    def test_column_text_is_g17_with_unsigned_zero(self, values):
        expected = ["0" if x == 0.0 else f"{x:.17g}" for x in values]
        # each value twice, in a 2-D array: repeats share one formatting
        text = _g17_text(np.array(values + values[::-1]).reshape(2, -1))
        assert text.shape == (2, len(values))
        assert text.ravel().tolist() == expected + expected[::-1]
        assert [_g17(x) for x in values] == expected

    def test_write_returns_the_digest_of_the_bytes_on_disk(self, tmp_path):
        path = tmp_path / "notes.txt"
        digest = _write_artifact(str(path), iter(["eta \u03b7 = 0.5\r", "line two"]))
        assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_bytes() == "eta \u03b7 = 0.5\r\nline two\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_write_of_no_lines_is_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        assert _write_artifact(str(path), []) == "sha256:" + hashlib.sha256().hexdigest()
        assert path.read_bytes() == b""

    def test_lines_failing_part_way_keep_the_previous_file(self, tmp_path):
        path = tmp_path / "bands.csv"
        _write_artifact(str(path), ["old"])

        def lines():
            yield "new header"
            yield "x" * 100_000  # past the write buffer, so bytes reach the temp file
            raise MemoryError("out of rows")

        with pytest.raises(MemoryError, match="out of rows"):
            _write_artifact(str(path), lines())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bands.csv"]

    def test_full_grid_row_count(self, tmp_path):
        cfg = _write_config(tmp_path, stack={"variant": "monolayer"})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "6", "--full")
        assert code == 0
        lines = (outdir / "bands.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 6 * 2

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_full_grid_below_two_points_is_config_error(self, tmp_path, capsys, n):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", str(n), "--full")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config error: full grid needs" in err
        assert list(outdir.iterdir()) == []

    def test_trilayer_off_slice_rows_are_numeric(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "trilayer_g_hbn_g", "alpha_a": -1.0,
                   "alpha_b": 1.0, "t0": 0.3})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "4", "--full")
        assert code == 0
        sources = {line.rsplit(",", 1)[1]
                   for line in (outdir / "bands.csv").read_text().splitlines()[1:]}
        assert "numeric" in sources


# ------------------------------------------------------------
#  classify / gaps subcommands
# ------------------------------------------------------------

class TestClassify:
    def test_monolayer_single_gap_record(self, tmp_path):
        cfg = _write_config(tmp_path)  # alpha = (1, -1)
        code, outdir = _run(tmp_path, "classify", cfg, "--grid", "501")
        assert code == 0
        text = (outdir / "report.txt").read_text()
        header, records = _records(text)
        assert header["closed_form_gap"] == "0.6666666666666666"
        assert header["records"] == "1"
        assert len(records) == 1
        rec = records[0]
        assert rec["kind"] == "gap"
        assert rec["band_pair"] == "0,1"
        assert float(rec["gap_width"]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert float(rec["theta1"]) >= 0.0

    def test_aa_prime_two_cone_records(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "bilayer_aa_prime", "alpha_a": -1.0,
                   "alpha_b": -1.0, "t0": 0.3})
        code, outdir = _run(tmp_path, "classify", cfg, "--grid", "501")
        assert code == 0
        _, records = _records((outdir / "report.txt").read_text())
        cones = [r for r in records if r["kind"] == "cone"]
        assert len(cones) == 2
        f_values = sorted(float(r["f_value"]) for r in cones)
        assert f_values[0] == pytest.approx(-0.09, abs=1e-6)
        assert f_values[1] == pytest.approx(0.09, abs=1e-6)
        assert all(float(r["theta1"]) >= 0.0 for r in records
                   if "theta1" in r)

    def test_coarse_grid_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path)
        code, _ = _run(tmp_path, "classify", cfg, "--grid", "99")
        assert code == 1

    def test_magnetic_stack_is_rejected(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "magnetic_monolayer", "alpha_a": -1.0,
                   "alpha_b": -1.0, "flux_p": 1, "flux_q": 2})
        code, _ = _run(tmp_path, "classify", cfg)
        assert code == 1

    def test_gaps_summary(self, tmp_path):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "gaps", cfg, "--grid", "501")
        assert code == 0
        header, records = _records((outdir / "gaps.txt").read_text())
        assert header["closed_form_gap"] == "0.6666666666666666"
        assert len(records) == 1
        assert float(records[0]["min_separation"]) == pytest.approx(
            2.0 / 3.0, abs=1e-3)
        assert abs(float(records[0]["f_value"])) < 0.05


# ------------------------------------------------------------
#  spectrum subcommand
# ------------------------------------------------------------

class TestSpectrum:
    def test_zero_potential_monolayer_intervals(self, tmp_path):
        cfg = _write_config(tmp_path, stack={"variant": "monolayer"},
                            potential={"kind": "zero"})
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 0
        lines = (outdir / "spectrum.csv").read_text().splitlines()
        assert lines[0] == SPECTRUM_CSV_HEADER
        band_rows = [l.split(",") for l in lines[1:] if l.startswith("band")]
        pp_rows = [l.split(",") for l in lines[1:] if l.startswith("pp")]
        assert len(band_rows) == 8  # 2 eta bands x 4 Hill bands
        got = [(float(r[3]), float(r[4])) for r in band_rows[:4]]
        for (lo, hi), (exp_lo, exp_hi) in zip(got,
                                              frozen.HILL_LAMBDA_INTERVALS):
            assert lo == pytest.approx(exp_lo, abs=1e-8)
            assert hi == pytest.approx(exp_hi, abs=1e-8)
        nus = sorted(float(r[3]) for r in pp_rows)
        expected = [np.pi ** 2 * k ** 2 for k in (1, 2, 3, 4)]
        assert nus == pytest.approx(expected, abs=1e-6)
        for row in pp_rows:
            assert row[1] == "" and row[2] == "" and row[3] == row[4]

    def test_inadmissible_stack_gives_empty_file(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "monolayer", "alpha_a": -12.0,
                   "alpha_b": -12.0})
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 0
        lines = (outdir / "spectrum.csv").read_text().splitlines()
        assert lines == [SPECTRUM_CSV_HEADER]
        # each diagnostic reaches stderr once, as a "spectrum:" line, and the
        # manifest's notes; no warning carries it a second time
        err = capsys.readouterr().err.splitlines()
        manifest = json.loads((outdir / "manifest.json").read_text())
        notes = manifest["notes"]
        assert any("inadmissible" in note for note in notes)
        assert err == [f"spectrum: {note}" for note in notes]
        for note in notes:
            assert sum(note in line for line in err) == 1

    def _assert_ends_invert(self, cfg, outdir, knots, values, steps):
        """Every written lambda end has d/2 (by an independent RK4) at the
        end of its clipped eta interval."""
        run = load_run_config(cfg)
        surface = sample_diagonal(run.stack, n=run.grid_n)
        eta = [(max(-1.0, surface.values[:, b].min()), min(1.0, surface.values[:, b].max()))
               for b in range(surface.dim)]
        rows = [l.split(",") for l in (outdir / "spectrum.csv").read_text().splitlines()[1:]
                if l.startswith("band")]
        ends = np.array([[float(r[3]), float(r[4])] for r in rows])
        d, _ = frozen.ref_rk4_monodromy(lambda x: np.interp(x, knots, values),
                                         knots, ends.ravel(), steps)
        got = np.sort(0.5 * d.reshape(-1, 2), axis=1)
        want = np.array([eta[int(r[1])] for r in rows])
        assert np.max(np.abs(got - want)) < 1e-8

    def test_period_half_potential_inverts_through_closed_gaps(self, tmp_path):
        # every gap at d = -2 is closed, so d/2 + 1 vanishes up to rounding at
        # the Dirichlet points that end the brackets (this exited 2 with
        # "inversion bracket failed for eta=-1.0 in band 1")
        knots, values = [0.0, 0.25, 0.5, 0.75, 1.0], [1.3, -2.1, 1.3, -2.1, 1.3]
        cfg = _write_config(tmp_path,
                            stack={"variant": "monolayer", "alpha_a": 0.8,
                                   "alpha_b": 0.5},
                            grid={"kind": "diagonal", "n": 201},
                            potential={"kind": "sampled", "x": knots,
                                       "values": values})
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 0
        self._assert_ends_invert(cfg, outdir, knots, values, 1024)

    def test_bilayer_with_sampled_cosine_finishes_in_seconds(self, tmp_path):
        # this run took ~290 s and then exited 2 (inversion bracket failed)
        x = np.linspace(0.0, 1.0, 201)
        values = 5.0 * np.cos(2.0 * np.pi * x)
        cfg = _write_config(tmp_path,
                            stack={"variant": "bilayer_aa_prime", "alpha_a": -0.7,
                                   "alpha_b": 0.4, "t0": 0.3},
                            grid={"kind": "diagonal", "n": 201},
                            potential={"kind": "sampled", "x": x.tolist(),
                                       "values": values.tolist()})
        started = time.perf_counter()
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 0
        assert time.perf_counter() - started < 30.0
        self._assert_ends_invert(cfg, outdir, x, values, 32)

    def test_manifest_explains_the_hill_layer(self, tmp_path):
        knots, values = [0.0, 0.25, 0.5, 0.75, 1.0], [1.3, -2.1, 1.3, -2.1, 1.3]
        sampled = _write_config(tmp_path, name="sampled.json",
                                potential={"kind": "sampled", "x": knots,
                                           "values": values})
        zero = _write_config(tmp_path, name="zero.json")
        traces = []
        for name, cfg in (("sampled", sampled), ("zero", zero)):
            outdir = tmp_path / name
            assert main(["spectrum", "--config", cfg, "--out", str(outdir)]) == 0
            manifest = json.loads((outdir / "manifest.json").read_text())
            traces.append(manifest["trace"]["hill"])
            assert "magnus" not in (outdir / "spectrum.csv").read_text()
        sampled_trace, zero_trace = traces
        assert sampled_trace["magnus_steps"] >= 64
        assert 0.0 < sampled_trace["magnus_halving_deviation"] <= MAGNUS_TOL
        assert sampled_trace["magnus_halving_gate"] == MAGNUS_TOL
        assert sampled_trace["monodromy_evaluations"] > 0
        assert zero_trace["magnus_steps"] is None
        assert zero_trace["magnus_halving_deviation"] is None
        assert zero_trace["monodromy_evaluations"] > 0

    def test_a_sampled_spectrum_builds_each_magnus_grid_once(
            self, tmp_path, monkeypatch):
        built = []
        build = hill._magnus_grid

        def counted(pot, halvings):
            built.append((id(pot), halvings, build(pot, halvings)))
            return built[-1][2]

        monkeypatch.setattr(hill, "_magnus_grid", counted)
        cfg = _write_config(tmp_path,
                            potential={"kind": "sampled",
                                       "x": [0.0, 0.25, 0.5, 0.75, 1.0],
                                       "values": [1.3, -2.1, 1.3, -2.1, 1.3]})
        code, _ = _run(tmp_path, "spectrum", cfg)
        assert code == 0
        grids = [(pot, halvings) for pot, halvings, _ in built]
        # the step-halving gate compares a grid with its halving
        assert len(grids) >= 2 and len(set(grids)) == len(grids)
        for _, _, grid in built:
            for steps in grid:
                assert not steps.flags.writeable
                with pytest.raises(ValueError):
                    steps[0] = 0.0

    def test_unresolvable_potential_exits_2_at_the_step_halving_gate(
            self, tmp_path, capsys):
        # a bump of height 1e5 and width 0.02: the gate's finest grid
        # (32 times the base grid) still moves d by more than its tolerance
        cfg = _write_config(tmp_path,
                            potential={"kind": "sampled",
                                       "x": [0.0, 0.49, 0.5, 0.51, 1.0],
                                       "values": [-1e5, -1e5, 0.0, -1e5, -1e5]})
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "hexband: numerical failure: Magnus step-halving gate failed")
        assert not (outdir / "spectrum.csv").exists()

    @pytest.mark.parametrize("rows,column", [
        # a NaN abscissa passed every check and gave the zero potential's
        # spectrum; an infinite value exited 2 from the evenness check
        ("0 0\n0.5 0\nnan 0\n1 0\n", "abscissae (first column)"),
        ("0 inf\n0.5 0\n1 inf\n", "values (second column)"),
    ], ids=["nan-abscissa", "inf-value"])
    def test_non_finite_potential_file_exits_1(self, tmp_path, capsys, rows,
                                               column):
        path = tmp_path / "potential.txt"
        path.write_text(rows)
        cfg = _write_config(tmp_path,
                            potential={"kind": "file", "path": str(path)})
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"potential {column} must be finite" in err[0]
        assert not (outdir / "spectrum.csv").exists()

    @pytest.mark.parametrize("rows", ["", "0 1\n"], ids=["empty", "one-row"])
    def test_short_potential_file_exits_1(self, tmp_path, capsys, rows):
        # an empty file printed numpy's loadtxt warning before the config
        # error; one row was refused as "not two columns"
        path = tmp_path / "potential.txt"
        path.write_text(rows)
        cfg = _write_config(tmp_path,
                            potential={"kind": "file", "path": str(path)})
        code, outdir = _run(tmp_path, "spectrum", cfg)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "needs at least two rows" in err[0]
        assert not (outdir / "spectrum.csv").exists()


# ------------------------------------------------------------
#  magnetic subcommand
# ------------------------------------------------------------

class TestMagnetic:
    def test_cone_report(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "magnetic_monolayer", "alpha_a": -1.0,
                   "alpha_b": -1.0, "flux_p": 1, "flux_q": 2})
        code, outdir = _run(tmp_path, "magnetic", cfg, "--grid", "41")
        assert code == 0
        header, records = _records((outdir / "magnetic.txt").read_text())
        assert header["flux"] == "1/2"
        cones = [r for r in records if r["kind"] == "cone"]
        assert cones
        assert float(cones[0]["g_value"]) == pytest.approx(4.5, abs=1e-6)

    def test_non_magnetic_stack_is_rejected(self, tmp_path):
        cfg = _write_config(tmp_path)
        code, _ = _run(tmp_path, "magnetic", cfg)
        assert code == 1


# ------------------------------------------------------------
#  validate subcommand
# ------------------------------------------------------------

class TestValidate:
    def test_monolayer_sweep_passes(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "validate", cfg,
                            "--samples", "100", "--seed", "7")
        assert code == 0
        text = (outdir / "validate.txt").read_text()
        header, _ = _records(text)
        assert header["verdict"] == "PASS"
        assert float(header["max_abs_deviation"]) < 1e-9
        assert "max_abs_deviation" in capsys.readouterr().out

    def test_corrupted_closed_form_fails(self, tmp_path):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "validate", cfg,
                            "--samples", "20", "--corrupt-closed-form")
        assert code == 2
        header, _ = _records((outdir / "validate.txt").read_text())
        assert header["verdict"] == "FAIL"

    def test_general_trilayer_all_skipped(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "trilayer_hbn_g_hbn", "alpha_a": -1.0,
                   "alpha_b": 0.7, "t0": 0.3})
        code, outdir = _run(tmp_path, "validate", cfg, "--samples", "25")
        assert code == 0
        text = (outdir / "validate.txt").read_text()
        header, _ = _records(text)
        assert header["skipped_no_closed_form"] == "25"
        assert header["compared"] == "0"
        assert text.count("no_closed_form") >= 25

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_samples_below_one_is_config_error(self, tmp_path, capsys, samples):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "validate", cfg, "--samples", samples)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "config error: --samples" in captured.err
        assert list(outdir.iterdir()) == []

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        # numpy's generator refuses it with a bare ValueError traceback
        code, outdir = _run(tmp_path, "validate", _write_config(tmp_path),
                            "--seed", "-1")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "hexband: config error: --seed must be a non-negative integer, got -1"]
        assert list(outdir.iterdir()) == []

    def test_seed_changes_draws_not_verdict(self, tmp_path):
        cfg = _write_config(tmp_path)
        _, out_a = _run(tmp_path, "validate", cfg, "--samples", "10",
                        "--seed", "1")
        text_a = (out_a / "validate.txt").read_text()
        out_b = tmp_path / "out_b"
        main(["validate", "--config", cfg, "--out", str(out_b),
              "--samples", "10", "--seed", "2"])
        text_b = (out_b / "validate.txt").read_text()
        assert text_a != text_b
        assert "verdict: PASS" in text_a and "verdict: PASS" in text_b

    def test_seed_is_a_validate_option_only(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, "classify", cfg, "--seed", "3")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# ------------------------------------------------------------
#  plot subcommand
# ------------------------------------------------------------

class TestPlot:
    def test_byte_identical_and_well_formed(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "monolayer", "alpha_a": 0.2, "alpha_b": 0.2})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["plot", "--config", cfg, "--out", str(out_a),
                     "--grid", "301"]) == 0
        assert main(["plot", "--config", cfg, "--out", str(out_b),
                     "--grid", "301"]) == 0
        svg = (out_a / "bands.svg").read_bytes()
        assert svg == (out_b / "bands.svg").read_bytes()
        root = ElementTree.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 2
        circles = root.findall(f".//{ns}circle")
        assert circles, "expected cone markers"

    def test_hetero_gap_marker(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            stack={"variant": "hetero_bilayer", "alpha_a": -1.0,
                   "alpha_b": 1.0, "t0": 0.3})
        code, outdir = _run(tmp_path, "plot", cfg, "--grid", "301")
        assert code == 0
        text = (outdir / "bands.svg").read_text()
        assert "gap pair=(1, 2)" in text

    def test_coarse_grid_plots_without_markers(self, tmp_path):
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "plot", cfg, "--grid", "51")
        assert code == 0
        text = (outdir / "bands.svg").read_text()
        assert "<polyline" in text and "<circle" not in text


# ------------------------------------------------------------
#  outputs union and process-level checks
# ------------------------------------------------------------

class TestOrchestration:
    @pytest.mark.parametrize("command,outputs", [
        ("classify", []), ("gaps", []), ("plot", []), ("spectrum", []),
        ("bands", ["report"]), ("bands", ["plot"]), ("bands", ["spectrum"]),
        ("magnetic", []),
    ])
    def test_diagonal_artifacts_reject_the_full_grid(self, tmp_path, capsys,
                                                     command, outputs):
        # these artifacts sample the diagonal slice only (magnetic.txt the
        # reduced zone); a full grid asked for in the config or by --full
        # must not be run as the diagonal
        stack = {}
        if command == "magnetic":
            stack = {"stack": {"variant": "magnetic_monolayer", "alpha_a": 1.0,
                               "alpha_b": -1.0, "flux_p": 1, "flux_q": 2}}
        full = _write_config(tmp_path, grid={"kind": "full", "n": 301},
                             outputs=outputs, **stack)
        diagonal = _write_config(tmp_path, name="diagonal.json",
                                 outputs=outputs, **stack)
        where = "reduced zone" if command == "magnetic" else "diagonal slice"
        for config, extra in ((full, ()), (diagonal, ("--full",))):
            code, outdir = _run(tmp_path, command, config, *extra)
            assert code == 1
            assert f"{where} only" in capsys.readouterr().err
            assert list(outdir.iterdir()) == []
        code, outdir = _run(tmp_path, command, diagonal)
        assert code == 0

    @pytest.mark.parametrize("command,args,outputs", [
        ("classify", (), []), ("classify", (), ["plot", "bands"]),
        ("bands", ("--full",), []), ("gaps", (), []), ("plot", (), []),
        ("validate", ("--samples", "5"), ["report"]), ("magnetic", (), []),
    ])
    def test_potential_without_spectrum_is_config_error(self, tmp_path, capsys,
                                                       command, args, outputs):
        # only spectrum.csv reads the potential; the other runs ignored it and
        # echoed it in their manifests
        stack = {"stack": {"variant": "magnetic_monolayer", "alpha_a": 1.0,
                           "alpha_b": -1.0, "flux_p": 1, "flux_q": 2}
                 } if command == "magnetic" else {}
        sampled = {"kind": "sampled", "x": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]}
        for potential in ({"kind": "zero"}, sampled):
            cfg = _write_config(tmp_path, potential=potential, outputs=outputs,
                                grid={"kind": "diagonal", "n": 31}, **stack)
            code, outdir = _run(tmp_path, command, cfg, *args)
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "config section 'potential'" in err[0]
            assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("stack", [
        {"variant": "monolayer", "alpha_a": 0.4, "alpha_b": -0.3},
        {"variant": "bilayer_aa", "alpha_a": 0.4, "alpha_b": -0.3, "t0": 0.5},
        {"variant": "bilayer_aa_two_param", "alpha_a": 0.4, "alpha_b": -0.3,
         "t_a": 0.6, "t_b": 0.4},
        {"variant": "bilayer_aa_prime", "alpha_a": 0.4, "alpha_b": -0.3,
         "t0": 0.5},
        {"variant": "hetero_bilayer", "alpha_a": 0.4, "alpha_b": -0.4,
         "t0": 0.5},
        {"variant": "trilayer_hbn_g_hbn", "alpha_a": 0.4, "alpha_b": -0.3,
         "alpha_c": 0.2, "t0": 0.5},
        {"variant": "trilayer_g_hbn_g", "alpha_a": 0.4, "alpha_b": -0.4,
         "t0": 0.5},
        {"variant": "magnetic_monolayer", "alpha_a": 0.4, "alpha_b": -0.3,
         "flux_p": 1, "flux_q": 1},
        {"variant": "magnetic_monolayer", "alpha_a": 0.4, "alpha_b": -0.3,
         "flux_p": 1, "flux_q": 2},
    ], ids=lambda stack: stack["variant"] + (
        f"_q{stack['flux_q']}" if "flux_q" in stack else ""))
    def test_manifest_echo_reruns_to_the_same_artifacts(self, tmp_path, stack):
        # the manifest echoes the run that happened: fed back as the config,
        # it is accepted and writes the same bytes
        command = "magnetic" if "flux_q" in stack else "classify"
        n = 31 if command == "magnetic" else 201
        cfg = _write_config(tmp_path, stack=stack, grid={"kind": "diagonal", "n": n})
        code, first = _run(tmp_path, command, cfg)
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(manifest["config"]))
        again = tmp_path / "again"
        assert main([command, "--config", str(echo), "--out", str(again)]) == 0
        rerun = json.loads((again / "manifest.json").read_text())
        assert rerun["outputs"] == manifest["outputs"]
        assert rerun["config"] == manifest["config"]
        # the reduced zone is the one grid of magnetic.txt
        assert ("kind" not in manifest["config"]["grid"]) == (command == "magnetic")

    def test_outputs_union(self, tmp_path):
        cfg = _write_config(tmp_path, outputs=["bands", "plot"])
        code, outdir = _run(tmp_path, "classify", cfg, "--grid", "301")
        assert code == 0
        for name in ("bands.csv", "report.txt", "bands.svg", "manifest.json"):
            assert (outdir / name).exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["bands.csv", "bands.svg",
                                               "report.txt"]

    @pytest.mark.parametrize("command", ["gaps", "validate"])
    def test_every_subcommand_writes_its_outputs(self, tmp_path, capsys, command):
        # the outputs are the bytes their own subcommands write
        cfg = _write_config(tmp_path, outputs=["report", "plot"])
        code, outdir = _run(tmp_path, command, cfg)
        assert code == 0
        own = f"{command}.txt"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(["report.txt", "bands.svg", own])
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [f"wrote {outdir / name}"
                             for name in ("report.txt", "bands.svg", own)]
        assert len(lines) == (6 if command == "validate" else 3)
        alone = _write_config(tmp_path, name="alone.json")
        for subcommand, name in (("classify", "report.txt"), ("plot", "bands.svg")):
            single = tmp_path / subcommand
            assert main([subcommand, "--config", alone, "--out", str(single)]) == 0
            assert (outdir / name).read_bytes() == (single / name).read_bytes()

    def test_one_run_samples_and_classifies_once(self, tmp_path, monkeypatch):
        # report, spectrum and plot share the run's surface and classification
        calls = {"sample_diagonal": 0, "classify_touches": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        cfg = _write_config(tmp_path, outputs=["report", "spectrum", "plot"],
                            grid={"kind": "diagonal", "n": 501})
        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        code, outdir = _run(tmp_path, "classify", cfg)
        assert code == 0
        assert calls == {"sample_diagonal": 1, "classify_touches": 1}
        monkeypatch.undo()
        alone = _write_config(tmp_path, name="alone.json",
                              grid={"kind": "diagonal", "n": 501})
        for subcommand, name in (("classify", "report.txt"),
                                 ("spectrum", "spectrum.csv"), ("plot", "bands.svg")):
            single = tmp_path / subcommand
            assert main([subcommand, "--config", alone, "--out", str(single)]) == 0
            assert (outdir / name).read_bytes() == (single / name).read_bytes()

    def test_magnetic_with_slice_outputs_writes_nothing(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, outputs=["report"],
            stack={"variant": "magnetic_monolayer", "alpha_a": -1.0,
                   "alpha_b": -1.0, "flux_p": 1, "flux_q": 2})
        code, outdir = _run(tmp_path, "magnetic", cfg, "--grid", "31")
        assert code == 1
        assert "report.txt needs a non-magnetic stack" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_failed_run_leaves_no_manifest(self, tmp_path, capsys):
        good = _write_config(tmp_path, "good.json", outputs=["spectrum"],
                             stack={"variant": "monolayer", "alpha_a": 0.5, "alpha_b": -0.5})
        code, outdir = _run(tmp_path, "classify", good)
        assert code == 0 and (outdir / "manifest.json").exists()
        # report.txt is rewritten, then the spectrum stage fails on the bump
        bad = _write_config(tmp_path, "bad.json", outputs=["spectrum"],
                            stack={"variant": "monolayer", "alpha_a": 0.4, "alpha_b": -0.4},
                            potential={"kind": "sampled", "x": [0.0, 0.5, 1.0],
                                       "values": [0.0, 1e7, 0.0]})
        capsys.readouterr()
        code, outdir = _run(tmp_path, "classify", bad)
        assert code == 2
        assert capsys.readouterr().err.startswith("hexband: numerical failure:")
        assert "alpha_a: 0.4" in (outdir / "report.txt").read_text()
        assert sorted(p.name for p in outdir.iterdir()) == ["report.txt", "spectrum.csv"]

    def test_config_error_before_writing_keeps_the_previous_run(self, tmp_path):
        cfg = _write_config(tmp_path, outputs=["report"])
        code, outdir = _run(tmp_path, "bands", cfg)
        assert code == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert "manifest.json" in before
        # report.txt samples the diagonal slice only: refused before writing
        assert _run(tmp_path, "bands", cfg, "--full")[0] == 1
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_out_of_memory_is_one_line_exit_1(self, tmp_path, capsys, monkeypatch):
        def too_large(n):
            raise MemoryError(f"Unable to allocate 72.8 TiB for an array with shape ({n},)")

        monkeypatch.setattr(cli, "diagonal_slice", too_large)
        cfg = _write_config(tmp_path)
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "10000000000000")
        assert code == 1
        assert capsys.readouterr().err == ("hexband: out of memory: Unable to allocate "
                                           "72.8 TiB for an array with shape "
                                           "(10000000000000,)\n")
        assert list(outdir.iterdir()) == []

    def test_out_path_collision_is_io_error(self, tmp_path):
        cfg = _write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["bands", "--config", cfg, "--out", str(blocker)])
        assert code == 3

    def test_console_entry_point(self, tmp_path):
        cfg = _write_config(tmp_path)
        outdir = tmp_path / "proc"
        proc = _python("-m", "hexband.cli", "bands", "--config", cfg,
                       "--out", str(outdir), "--grid", "5")
        assert proc.returncode == 0, proc.stderr
        assert (outdir / "bands.csv").exists()
