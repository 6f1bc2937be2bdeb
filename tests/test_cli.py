import itertools
import json
import math
import subprocess
import sys
import threading

import numpy as np
import pytest

from wavebell import bell, cli
from wavebell.bell import SHIPPED_LHV_MODELS, AngleSettings, lhv_chsh
from wavebell.ensemble import kappa_from_dop, schmidt
from wavebell.cli import main, parse_angle


def run_cli(args):
    return main(list(args))


class TestParseAngle:
    def test_radians(self):
        assert parse_angle("0.5") == 0.5

    def test_degrees_suffix(self):
        assert parse_angle("45deg") == pytest.approx(math.pi / 4)
        assert parse_angle("22.5deg") == pytest.approx(math.pi / 8)

    def test_rad_suffix(self):
        assert parse_angle("1.25rad") == 1.25

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("fast")


class TestSource:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "source.json"
        code = run_cli(
            ["source", "--dop", "0.125", "--n", "50000", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("s0", "s1", "s2", "s3", "dop", "kappa1", "kappa2", "u1", "u2"):
            assert key in report
        assert abs(report["dop"] - 0.125) < 0.02
        assert abs(report["kappa1"] - 0.750) < 0.01
        assert abs(report["kappa2"] - 0.661) < 0.01
        assert report["config"]["seed"] == 7

    def test_unpolarized(self, tmp_path):
        out = tmp_path / "source.json"
        assert run_cli(["source", "--dop", "0", "--n", "40000", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["kappa1"] - 2**-0.5) < 0.02
        assert abs(report["kappa2"] - 2**-0.5) < 0.02

    def test_domain_error_exit_code(self, capsys):
        assert run_cli(["source", "--dop", "2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_csv_format(self, tmp_path):
        out = tmp_path / "source.csv"
        code = run_cli(
            ["source", "--dop", "0.3", "--n", "5000", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("s0,s1,s2,s3,dop,kappa1,kappa2")
        assert len(lines) == 2


class TestScan:
    def test_single_point_grid(self, tmp_path):
        outdir = tmp_path / "scan"
        code = run_cli(
            [
                "scan",
                "--dop", "0",
                "--n", "2000",
                "--b-list", "0.3",
                "--a-start", "0",
                "--a-stop", "0.01",
                "--a-step", "0.1",
                "--resamples", "0",
                "--out", str(outdir),
            ]
        )
        assert code == 0
        files = sorted(outdir.glob("curve_*.csv"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        assert lines[0] == "a_rad,b_rad,p11,p12,p21,p22,c,c_err"
        assert len(lines) == 2
        assert (outdir / "scan_config.json").exists()

    def test_default_b_list_produces_twelve_files(self, tmp_path):
        outdir = tmp_path / "scan12"
        code = run_cli(
            [
                "scan",
                "--dop", "0",
                "--n", "500",
                "--a-start", "0",
                "--a-stop", "0.2",
                "--a-step", "0.1",
                "--resamples", "0",
                "--out", str(outdir),
            ]
        )
        assert code == 0
        assert len(sorted(outdir.glob("curve_*.csv"))) == 12

    def test_c_bounded_by_error_bars(self, tmp_path):
        outdir = tmp_path / "scanerr"
        code = run_cli(
            [
                "scan",
                "--dop", "0.125",
                "--n", "2000",
                "--b-list", "0.5",
                "--a-start", "0",
                "--a-stop", "1.5",
                "--a-step", "0.5",
                "--resamples", "12",
                "--out", str(outdir),
            ]
        )
        assert code == 0
        rows = (outdir / "curve_00.csv").read_text().splitlines()[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            c, c_err = vals[6], vals[7]
            assert abs(c) <= 1.0 + 3.0 * c_err + 1e-9

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli(
            [
                "scan",
                "--dop", "0",
                "--n", "500",
                "--b-list", "15deg",
                "--a-start", "0",
                "--a-stop", "0.2",
                "--a-step", "0.1",
                "--resamples", "0",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["curves"][0]["b_rad"] == pytest.approx(math.pi / 12)


class TestChsh:
    def test_equal_settings_give_two(self, tmp_path):
        out = tmp_path / "chsh.json"
        code = run_cli(
            [
                "chsh",
                "--dop", "0.125",
                "--n", "20000",
                "--seed", "3",
                "--settings", "0", "0", "0", "0",
                "--resamples", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chsh"] == pytest.approx(2.0, abs=0.05)

    def test_optimized_run(self, tmp_path):
        out = tmp_path / "chsh.json"
        code = run_cli(
            [
                "chsh",
                "--dop", "0.125",
                "--n", "50000",
                "--seed", "4",
                "--optimize",
                "--resamples", "10",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chsh"] == pytest.approx(2.817, abs=0.02)
        assert len(payload["probabilities"]) == 4

    def test_optimized_unpolarized(self, tmp_path):
        out = tmp_path / "chsh0.json"
        code = run_cli(
            [
                "chsh",
                "--dop", "0",
                "--n", "50000",
                "--seed", "6",
                "--optimize",
                "--resamples", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chsh"] == pytest.approx(2 * math.sqrt(2), abs=0.01)

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "chsh",
            "--dop", "0.2",
            "--n", "5000",
            "--seed", "5",
            "--resamples", "10",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "chsh.csv"
        code = run_cli(
            [
                "chsh",
                "--dop", "0.125",
                "--n", "2000",
                "--settings", "0", "45deg", "22.5deg", "67.5deg",
                "--resamples", "0",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a_rad,b_rad,p11,p12,p21,p22,c,c_err,chsh,chsh_err"
        assert len(lines) == 5


class TestValidate:
    def test_ideal_passes(self, capsys, tmp_path):
        out = tmp_path / "validate.json"
        code = run_cli(
            ["validate", "--n", "20000", "--tuples", "6", "--lhv-samples", "20000",
             "--out", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured and "FAIL" not in captured
        payload = json.loads(out.read_text())
        assert payload["failed"] == []

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        # a reading 1e-9 off the oracle breaches the 1e-12 analytic tolerance
        measure = cli.measure_joint_probability
        monkeypatch.setattr(cli, "measure_joint_probability", lambda *a: measure(*a) + 1e-9)
        code = run_cli(["validate", "--n", "20000", "--tuples", "4", "--lhv-samples", "5000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "FAIL triple-path-analytic-interferometric" in captured.out
        assert "validation failed" in captured.err

    @pytest.mark.parametrize("module, name, reading, check", [
        (cli, "measure_joint_probability", math.nan, "triple-path-analytic-interferometric"),
        (bell, "joint_probability_projected", math.nan, "triple-path-analytic-projected"),
        (cli, "joint_probability_kappa", math.nan, "triple-path-sampled"),
        (cli, "measure_correlation", (math.nan, [math.nan] * 4),
         "probability-completeness-measured"),
        (cli, "joint_probability_kappa", math.nan, "no-signaling-oracle"),
        (cli, "lhv_chsh", math.nan, "lhv-bound"),
    ])
    def test_nan_reading_fails_its_check(self, capsys, monkeypatch, module, name, reading, check):
        # max(worst, nan) keeps worst, so a NaN once passed every check but completeness
        monkeypatch.setattr(module, name, lambda *a: reading)
        code = run_cli(["validate", "--n", "4000", "--tuples", "2", "--lhv-samples", "2000"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"FAIL {check}: " in captured.out
        assert "validation failed" in captured.err


def sequential_validate(cfg):
    """The validate checks as one loop on one thread, each check drawing its
    random parameters as it runs: the reference for the worker path."""
    rng = np.random.default_rng((cfg["seed"], 29))
    tuples, n = int(cfg["tuples"]), int(cfg["n"])
    worst_measured = worst_projected = 0.0
    for t in range(tuples):
        d = rng.uniform(0.02, 0.95)
        k1, k2 = kappa_from_dop(d)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        field = cli.synthesize_schmidt_form(k1, k2, n=512, seed=1000 + t)
        sd = schmidt(field)
        oracle = cli.joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
        measured = cli.measure_joint_probability(field, sd, a, b, k, l)
        projected = bell.joint_probability_projected(field, sd, a, b, k, l)
        worst_measured = max(worst_measured, abs(measured - oracle))
        worst_projected = max(worst_projected, abs(projected - oracle))
    yield ("triple-path-analytic-interferometric", worst_measured <= 1e-12,
           f"max |measured - oracle| = {worst_measured:.3e} (tol 1e-12)")
    yield ("triple-path-analytic-projected", worst_projected <= 1e-12,
           f"max |projected - oracle| = {worst_projected:.3e} (tol 1e-12)")
    tol = 5.0 / math.sqrt(n)
    worst_sampled = 0.0
    for t in range(tuples):
        d = rng.uniform(0.02, 0.95)
        k1, k2 = kappa_from_dop(d)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        field = cli.synthesize_partially_polarized(d, 1.0, n, 2000 + t)
        sd = schmidt(field)
        oracle = cli.joint_probability_kappa(k1, k2, a, b, k, l)
        measured = cli.measure_joint_probability(field, sd, a, b, k, l)
        worst_sampled = max(worst_sampled, abs(measured - oracle))
    yield ("triple-path-sampled", worst_sampled <= tol,
           f"max |measured - oracle| = {worst_sampled:.3e} (tol {tol:.3e})")
    field = cli.synthesize_partially_polarized(0.125, 1.0, n, cfg["seed"] + 17)
    sd = schmidt(field)
    total = sum(cli.measure_correlation(field, sd, 0.37, 0.81)[1])
    yield ("probability-completeness-measured", abs(total - 1.0) <= tol,
           f"|sum - 1| = {abs(total - 1.0):.3e} (tol {tol:.3e})")
    grid = np.linspace(0.0, math.pi, 20, endpoint=False)
    k1, k2 = kappa_from_dop(0.125)
    worst_ns = 0.0
    for a in grid:
        m = [cli.joint_probability_kappa(k1, k2, a, b, 1, 1)
             + cli.joint_probability_kappa(k1, k2, a, b, 1, 2) for b in grid]
        worst_ns = max(worst_ns, max(m) - min(m))
    yield ("no-signaling-oracle", worst_ns <= 1e-12,
           f"max marginal variation = {worst_ns:.3e} (tol 1e-12)")
    samples = int(cfg["lhv_samples"])
    lhv_tol = 2.0 + 5.0 / math.sqrt(samples)
    worst_lhv = 0.0
    for factory in SHIPPED_LHV_MODELS.values():
        model = factory()
        for t in range(8):
            angles = rng.uniform(0.0, math.pi, 4)
            value = abs(lhv_chsh(model, AngleSettings(*angles), samples, (cfg["seed"], 5, t)))
            worst_lhv = max(worst_lhv, value)
    yield ("lhv-bound", worst_lhv <= lhv_tol,
           f"max |B| = {worst_lhv:.6f} (bound {lhv_tol:.6f})")


class TestValidateWorker:
    """The hidden-variable check runs on one worker beside the field checks."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_sequential_reference(self, capsys, tmp_path, seed):
        argv = ["validate", "--seed", str(seed), "--n", "20000", "--tuples", "6",
                "--lhv-samples", "20000"]
        cfg = {**cli._DEFAULTS["validate"], "seed": seed, "n": 20000, "tuples": 6,
               "lhv_samples": 20000}
        expected = [(name, bool(ok), detail) for name, ok, detail in sequential_validate(cfg)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads as finely as possible
        try:
            code = run_cli([*argv, "--out", str(tmp_path / "validate.json")])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        checks = json.loads((tmp_path / "validate.json").read_text())["checks"]
        assert [(c["check"], c["pass"], c["detail"]) for c in checks] == expected
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                           for name, ok, detail in expected]

    def test_worker_error_reaches_caller(self, capsys, monkeypatch):
        class LhvFailed(Exception):
            pass

        ticket, chsh = itertools.count(), cli.lhv_chsh

        def fail_fifth_run(*args):
            if next(ticket) == 4:
                raise LhvFailed
            return chsh(*args)

        monkeypatch.setattr(cli, "lhv_chsh", fail_fifth_run)
        before, raised = threading.active_count(), []

        def run():
            try:
                run_cli(["validate", "--n", "4000", "--tuples", "2", "--lhv-samples", "2000"])
            except LhvFailed as exc:
                raised.append(exc)

        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(raised) == 1
        assert threading.active_count() == before
        assert "lhv-bound" not in capsys.readouterr().out


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dop": 0.3, "n": 4000, "seed": 1}))
        out = tmp_path / ". out.json"
        code = run_cli(
            ["source", "--config", str(cfg), "--dop", "0.6", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["dop"] == 0.6
        assert report["config"]["n"] == 4000
        assert abs(report["dop"] - 0.6) < 0.05

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dop": 0.3, "wavelength": 780}))
        assert run_cli(["source", "--config", str(cfg)]) == 1
        assert "wavelength" in capsys.readouterr().err

    def test_config_reproducibility(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dop": 0.125, "n": 3000, "seed": 9}))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(["source", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["source", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_optimize_flag_overrides_config_settings(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"dop": 0.125, "n": 20000, "seed": 2, "settings": [0, 0, 0, 0],
                 "resamples": 0}
            )
        )
        out = tmp_path / "chsh.json"
        code = run_cli(["chsh", "--config", str(cfg), "--optimize", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["chsh"] > 2.5  # optimized, not the all-zero settings


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


BAD_INPUTS = {
    "negative-seed": lambda tmp: ["chsh", "--seed", "-1"],
    "zero-a-step": lambda tmp: ["scan", "--a-step", "0"],
    "zero-lhv-samples": lambda tmp: ["validate", "--lhv-samples", "0"],
    "out-in-missing-dir": lambda tmp: ["chsh", "--n", "2000", "--resamples", "0",
                                       "--out", str(tmp / "missing" / "dir" / "x.json")],
    "bad-b-list-token": lambda tmp: ["scan", "--b-list", "0,foo"],
    "bad-settings-token": lambda tmp: ["chsh", "--settings", "0", "0", "0", "foo"],
    "leak-above-one": lambda tmp: ["chsh", "--n", "2000", "--noise-extinction", "2"],
    "config-non-integer-n": lambda tmp: ["source", "--config", _write_config(tmp, {"n": "lots"})],
    "config-float-n": lambda tmp: ["source", "--config", _write_config(tmp, {"n": 1.5})],
    "config-bad-b-list": lambda tmp: ["scan", "--config", _write_config(tmp, {"b_list": "0,foo"})],
    "config-three-settings": lambda tmp: ["chsh", "--config",
                                          _write_config(tmp, {"settings": [0, 0, 0]})],
    # --optimize and --settings exclude each other wherever each is given
    "config-optimize-and-settings": lambda tmp: ["chsh", "--n", "2000", "--config", _write_config(
        tmp, {"optimize": True, "settings": [0, "45deg", "22.5deg", "67.5deg"]})],
    "settings-flag-and-config-optimize": lambda tmp: [
        "chsh", "--n", "2000", "--settings", "0", "45deg", "22.5deg", "67.5deg",
        "--config", _write_config(tmp, {"optimize": True})],
    "config-bad-format": lambda tmp: ["chsh", "--config", _write_config(tmp, {"fmt": "xml"})],
    "empty-b-list": lambda tmp: ["scan", "--b-list", ",", "--out", str(tmp / "scan")],
    "config-empty-b-list": lambda tmp: ["scan", "--out", str(tmp / "scan"), "--config",
                                        _write_config(tmp, {"b_list": ","})],
    # grids above the point cap: 1e18 points (unallocatable) and 3.1e6 points
    # (allocatable, but about 12.6M scalar measurements)
    "unallocatable-a-grid": lambda tmp: ["scan", "--n", "2000", "--format", "json",
                                         "--a-stop", "1e9", "--a-step", "1e-9"],
    "huge-a-grid": lambda tmp: ["scan", "--n", "2000", "--resamples", "0", "--format", "json",
                                "--b-list", "0", "--a-step", "1e-6"],
    "empty-a-grid": lambda tmp: ["scan", "--a-start=-30deg", "--a-stop", "-1",
                                 "--out", str(tmp / "scan")],
    # with no tuples the agreement checks would pass having compared nothing
    "zero-tuples": lambda tmp: ["validate", "--tuples", "0"],
    "config-negative-tuples": lambda tmp: ["validate", "--config",
                                           _write_config(tmp, {"tuples": -3})],
    # the analytic checks hold 1e-12, so validate takes no noise model
    "config-validate-noise": lambda tmp: ["validate", "--config",
                                          _write_config(tmp, {"noise_detector": 1e-3})],
    # 10**15 realizations or samples lie beyond the 128 TB address space, so
    # the allocation fails at once under any overcommit setting
    "unallocatable-source-n": lambda tmp: ["source", "--n", str(10**15)],
    "unallocatable-chsh-n": lambda tmp: ["chsh", "--n", str(10**15)],
    # raised on the hidden-variable worker thread
    "unallocatable-lhv-samples": lambda tmp: ["validate", "--n", "2000", "--tuples", "1",
                                              "--lhv-samples", str(10**15)],
    # outside [1e-100, 1e100] a squared Stokes parameter overflows or goes subnormal
    "source-intensity-inf": lambda tmp: ["source", "--n", "2000", "--intensity", "inf"],
    "source-intensity-nan": lambda tmp: ["source", "--n", "2000", "--intensity", "nan"],
    "source-intensity-1e160": lambda tmp: ["source", "--n", "2000", "--intensity", "1e160"],
    "source-intensity-1e-200": lambda tmp: ["source", "--n", "2000", "--intensity", "1e-200"],
    # a reading overflows under noise this large
    "huge-noise-phase": lambda tmp: ["chsh", "--n", "2000", "--resamples", "0",
                                     "--noise-phase", "1e308"],
    "huge-noise-detector": lambda tmp: ["chsh", "--n", "2000", "--resamples", "0",
                                        "--noise-detector", "1e308"],
    # chsh and scan draw at unit intensity: their outputs are intensity ratios
    "config-chsh-intensity": lambda tmp: ["chsh", "--config", _write_config(tmp, {"intensity": 2})],
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_1_with_one_line(tmp_path, case):
    proc = subprocess.run(
        [sys.executable, "-m", "wavebell.cli", *BAD_INPUTS[case](tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wavebell: error:"), proc.stderr


@pytest.mark.parametrize("a_start, a_stop", [("1", "1"), ("-30deg", "-1")])
def test_empty_a_grid_names_the_flags(capsys, a_start, a_stop):
    # rejected before the source is synthesized, naming the flags to change
    assert main(["scan", f"--a-start={a_start}", "--a-stop", a_stop, "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err == "wavebell: error: the a grid from --a-start to --a-stop (exclusive) has no points\n"


def _json_output(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("flag, value", [
    *(pytest.param("--a-start", value, id=value) for value in ("-30deg", "-1e-1", "-.5RAD")),
    ("--b-list", "-0.5,0.3"),
])
def test_negative_angle_token_reads_like_equals_form(tmp_path, flag, value):
    # the flag under test overrides the --a-start or --b-list given here
    scan = ["scan", "--n", "2000", "--resamples", "0", "--b-list", "0", "--a-start=-0.2",
            "--a-stop", "0", "--format", "json"]
    separate = _json_output(tmp_path, [*scan, flag, value])
    assert separate == _json_output(tmp_path, [*scan, f"{flag}={value}"])


def test_bad_token_after_negative_angle_is_named(capsys):
    # a list starting with a negative angle reaches the angle converter
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--b-list", "-0.5,foo"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "wavebell: error: argument --b-list: invalid angle: 'foo'\n"


def test_negative_settings_token_reads_like_config_value(tmp_path):
    # --settings takes four tokens, so its --flag=value form is the config key
    settings = ["0", "-45deg", "22.5deg", "67.5deg"]
    chsh = ["chsh", "--n", "2000", "--resamples", "0"]
    separate = _json_output(tmp_path, [*chsh, "--settings", *settings])
    cfg = _write_config(tmp_path, {"settings": settings})
    assert separate == _json_output(tmp_path, [*chsh, "--config", cfg])


def test_config_values_use_flag_converters(tmp_path):
    # a config string converts exactly as the same text given as a flag
    out_cfg, out_flags = tmp_path / "cfg.json", tmp_path / "flags.json"
    cfg = _write_config(tmp_path, {"n": "3000", "dop": "0.2", "seed": 4})
    assert run_cli(["source", "--config", cfg, "--out", str(out_cfg)]) == 0
    assert run_cli(["source", "--n", "3000", "--dop", "0.2", "--seed", "4",
                    "--out", str(out_flags)]) == 0
    assert out_cfg.read_bytes() == out_flags.read_bytes()
    assert json.loads(out_cfg.read_text())["config"]["n"] == 3000


def test_removed_options_are_rejected(capsys):
    for argv in (["source", "--noise-phase", "0.1"], ["validate", "--dop", "0.5"],
                 ["validate", "--format", "csv"], ["validate", "--intensity", "2"],
                 ["validate", "--noise-phase", "0.05"], ["chsh", "--intensity", "2"],
                 ["scan", "--intensity", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_import_loads_no_thread_pool():
    # the thread pools are imported where they run, so a CLI start does not pay for them
    code = "import sys, wavebell.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", list(cli._DEFAULTS))
def test_help_prints_usage(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith(f"usage: wavebell {command} ")
    assert captured.err == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["chsh", "--settings", "1", "2"])
    assert exc.value.code == 1


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "wavebell.cli", "source", "--dop", "0.1",
         "--n", "1000", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["config"]["dop"] == 0.1
