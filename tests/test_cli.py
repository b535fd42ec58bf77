"""Config ingestion, artifact serialization, exit codes, and determinism."""

import hashlib
import json
import subprocess
import sys
import time
from xml.etree import ElementTree

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from hexband.bands import sample_diagonal
from hexband.cli import (
    BANDS_CSV_HEADER,
    RunConfig,
    SPECTRUM_CSV_HEADER,
    load_run_config,
    main,
)
from hexband.errors import ConfigError
from hexband.floquet import assemble, char_poly
from hexband.hill import MAGNUS_TOL
from hexband.lattice import StackVariant

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


def test_importing_the_cli_loads_no_scipy():
    # the Hill layer integrates and finds roots without scipy, which only
    # the test suite needs
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hexband.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


# ------------------------------------------------------------
#  bands subcommand
# ------------------------------------------------------------

class TestBands:
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

    def test_full_grid_row_count(self, tmp_path):
        cfg = _write_config(tmp_path, stack={"variant": "monolayer"})
        code, outdir = _run(tmp_path, "bands", cfg, "--grid", "6", "--full")
        assert code == 0
        lines = (outdir / "bands.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 6 * 2

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
    ])
    def test_diagonal_artifacts_reject_the_full_grid(self, tmp_path, capsys,
                                                     command, outputs):
        # these artifacts sample the diagonal slice only; a full grid asked
        # for in the config or by --full must not be run as the diagonal
        full = _write_config(tmp_path, grid={"kind": "full", "n": 301},
                             outputs=outputs)
        diagonal = _write_config(tmp_path, name="diagonal.json",
                                 outputs=outputs)
        for config, extra in ((full, ()), (diagonal, ("--full",))):
            code, outdir = _run(tmp_path, command, config, *extra)
            assert code == 1
            assert "diagonal slice only" in capsys.readouterr().err
            assert list(outdir.iterdir()) == []
        code, outdir = _run(tmp_path, command, diagonal)
        assert code == 0

    def test_outputs_union(self, tmp_path):
        cfg = _write_config(tmp_path, outputs=["bands", "plot"])
        code, outdir = _run(tmp_path, "classify", cfg, "--grid", "301")
        assert code == 0
        for name in ("bands.csv", "report.txt", "bands.svg", "manifest.json"):
            assert (outdir / name).exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["bands.csv", "bands.svg",
                                               "report.txt"]

    def test_out_path_collision_is_io_error(self, tmp_path):
        cfg = _write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["bands", "--config", cfg, "--out", str(blocker)])
        assert code == 3

    def test_console_entry_point(self, tmp_path):
        cfg = _write_config(tmp_path)
        outdir = tmp_path / "proc"
        proc = subprocess.run(
            [sys.executable, "-m", "hexband.cli", "bands", "--config", cfg,
             "--out", str(outdir), "--grid", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (outdir / "bands.csv").exists()
