import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis import settings as hypothesis_settings

import wavebell
from wavebell import CorrelationCurve, FieldEnsemble, bell, cli, interferometer
from wavebell.bell import SHIPPED_LHV_MODELS, AngleSettings, lhv_chsh
from wavebell.ensemble import _draw_partially_polarized, kappa_from_dop, schmidt
from wavebell.cli import main, parse_angle
from wavebell.interferometer import _MAX_RESAMPLES


def run_cli(args):
    return main(list(args))


# a child process imports the wavebell under test, whatever PYTHONPATH says
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(wavebell.__file__).parents[1])}


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

    def test_memory_does_not_grow_with_n(self, capsys):
        # the source is drawn as moments: 10**7 realizations once held about 343 MB
        assert run_cli(["source", "--n", "10"]) == 0
        tracemalloc.start()
        try:
            assert run_cli(["source", "--n", "10000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        capsys.readouterr()
        # 10**15 realizations, once refused as unallocatable, cost what 10 do
        assert run_cli(["source", "--n", str(10**15)]) == 0
        assert json.loads(capsys.readouterr().out)["dop"] == pytest.approx(0.125, abs=1e-6)

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_the_measured_source(self, tmp_path, fmt):
        # the scan names the source it measured: tomography's DOP and schmidt's weights,
        # which meet the weights of that DOP to rounding
        out = tmp_path / "scan"
        assert run_cli(["scan", "--dop", "0.3", "--n", "500", "--seed", "4", "--b-list", "0.2",
                        "--a-stop", "0.2", "--resamples", "0", "--format", fmt,
                        "--out", str(out)]) == 0
        payload = json.loads((out / "scan_config.json" if fmt == "csv" else out).read_text())
        source = payload["source"]
        assert list(source) == ["dop", "kappa1", "kappa2", "method"]
        assert source["method"] == "interferometer"
        assert np.allclose([source["kappa1"], source["kappa2"]], kappa_from_dop(source["dop"]),
                           rtol=1e-14, atol=0.0)
        sd = schmidt(_draw_partially_polarized(0.3, 500, 4))
        assert (source["kappa1"], source["kappa2"]) == (sd.kappa1, sd.kappa2)
        assert source["dop"] == pytest.approx(0.3, abs=0.1)

    def test_reads_the_closed_form_below_the_floor(self, capsys):
        # kappa2 ~ 2.2e-7, below the floor of 1e-3: as chsh does, the scan reads the closed
        # form at the reported weights, and the resamples give zero bars
        assert run_cli(["scan", "--n", "3000", "--seed", "0", "--dop", "0.9999999999999",
                        "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        source = payload["source"]
        assert source["method"] == "closed-form"
        assert len(payload["curves"]) == 12
        for curve in payload["curves"]:
            assert curve["c_err"] == [0.0] * 90
            closed = bell.joint_probability_kappa(
                source["kappa1"], source["kappa2"], np.array(curve["a_rad"])[:, None],
                curve["b_rad"], [1, 1, 2, 2], [1, 2, 1, 2])
            assert np.array_equal(np.array([curve[k] for k in ("p11", "p12", "p21", "p22")]).T,
                                  closed)

    def test_cost_does_not_grow_with_n(self, capsys):
        # 2**53 realizations, the largest n, cost what 2 do; one past it is refused
        assert run_cli(["scan", "--n", str(2**53), "--format", "json", "--b-list", "0.3",
                        "--a-stop", "0.1", "--resamples", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["source"]["dop"] < 1e-6
        assert run_cli(["scan", "--n", str(10**18), "--format", "json"]) == 1
        assert capsys.readouterr().err == \
            "wavebell: error: n must be at most 2**53, got 1000000000000000000\n"

    # 5000 points read in 100001 runs: refused by the pair-runs bound before anything is drawn
    REFUSED = ["scan", "--n", "100", "--a-stop", "0.5", "--a-step", "1e-4",
               "--resamples", "100000", "--b-list", "0"]

    def test_refused_scan_creates_no_out_directory(self, tmp_path, capsys):
        for out in (tmp_path / "d", tmp_path / "new" / "nested"):
            assert run_cli(self.REFUSED + ["--out", str(out)]) == 1
            assert "pair-runs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_later_refused_curve_leaves_no_out_directory(self, tmp_path, capsys, monkeypatch):
        # the first curve is measured and the second refused; no curve file may be written
        measure = cli.scan_correlation
        calls = []

        def refuse_the_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise wavebell.DomainError("second curve refused")
            return measure(*args, **kwargs)

        monkeypatch.setattr(cli, "scan_correlation", refuse_the_second)
        argv = ["scan", "--n", "100", "--a-stop", "0.2", "--b-list", "0,0.3", "--resamples", "0"]
        assert run_cli(argv + ["--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err == "wavebell: error: second curve refused\n"
        assert list(tmp_path.iterdir()) == []
        # a directory that existed before the call stays, with its files and no new ones
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "notes.txt").write_text("kept")
        calls.clear()
        assert run_cli(argv + ["--out", str(tmp_path / "d")]) == 1
        assert run_cli(self.REFUSED + ["--out", str(tmp_path / "d")]) == 1
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["notes.txt"]
        assert (tmp_path / "d" / "notes.txt").read_text() == "kept"


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


# a one-point scan that read NaN
NAN_CURVE = CorrelationCurve(np.zeros(1), 0.0, *[np.full(1, math.nan)] * 6)
# the scan_correlation calls of each validate check that reads a one-point scan, by arguments:
# check 1 measures analytic fields, check 3 its one source at b = 0.81
SCANS_OF = {
    "triple-path-analytic-interferometric": lambda source, *_: isinstance(source, FieldEnsemble),
    "probability-completeness-measured": lambda source, sd, b, grid: b == 0.81,
}


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
        scan = cli.scan_correlation

        def shifted(*args):
            curve = scan(*args)
            return replace(curve, **{p: getattr(curve, p) + 1e-9 for p in ("p11", "p12", "p21", "p22")})

        monkeypatch.setattr(cli, "scan_correlation", shifted)
        code = run_cli(["validate", "--n", "20000", "--tuples", "4", "--lhv-samples", "5000"])
        captured = capsys.readouterr()
        assert code == 2
        assert "FAIL triple-path-analytic-interferometric" in captured.out
        assert captured.out.count("FAIL ") == 1, captured.out
        assert "validation failed" in captured.err

    ANALYTIC = ("triple-path-analytic-interferometric", "triple-path-analytic-projected",
                "no-signaling-oracle")

    @pytest.mark.parametrize("check", ANALYTIC)
    @pytest.mark.parametrize("gap, ok", [(1e-12, True), (1e-11, False)])
    def test_analytic_tolerance_has_both_sides(self, capsys, monkeypatch, check, gap, ok):
        # each analytic check holds 1e-12, inclusive: the oracle reads 0 everywhere, and the
        # one path under test reads exactly ``gap`` off it
        def oracle(k1, k2, a, b, k, l):
            p = np.zeros(np.broadcast(a, b, k, l).shape)
            if check == "no-signaling-oracle" and p.ndim:
                p[0, 0, 0] = gap
            return p[()]

        scan = cli.scan_correlation

        def measured(*args):
            value = gap if check == "triple-path-analytic-interferometric" else 0.0
            return replace(scan(*args), **{p: np.full(1, value)
                                           for p in ("p11", "p12", "p21", "p22")})

        monkeypatch.setattr(cli, "joint_probability_kappa", oracle)
        monkeypatch.setattr(cli, "scan_correlation", measured)
        monkeypatch.setattr(bell, "joint_probability_projected",
                            lambda *args: gap if check == "triple-path-analytic-projected" else 0.0)
        assert run_cli(["validate", "--n", "2000", "--tuples", "2", "--lhv-samples", "1000"]) == 2
        lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
        assert lines[f"{'PASS' if ok else 'FAIL'} {check}"]
        others = set(self.ANALYTIC) - {check}
        assert all(f"PASS {name}" in lines for name in others), lines

    @pytest.mark.parametrize("check", ["triple-path-sampled", "probability-completeness-measured",
                                       "lhv-bound"])
    def test_statistical_bounds_are_inclusive(self, capsys, monkeypatch, check):
        # at n = 1600 and 1600 hidden-variable samples the tolerance 5 / sqrt(n) is 0.125 and
        # the bound 2 + 5 / sqrt(samples) is 2.125, both exact: a reading at its bound passes
        scan = cli.scan_correlation
        if check == "triple-path-sampled":
            values = [0.375] * 4
            monkeypatch.setattr(cli, "joint_probability_kappa",
                                lambda k1, k2, a, b, k, l: np.full(np.broadcast(a, b, k, l).shape,
                                                                   0.25)[()])
        else:
            values = [1.125, 0.0, 0.0, 0.0]
        monkeypatch.setattr(cli, "scan_correlation", lambda *args: replace(
            scan(*args), **{p: np.full(1, v) for p, v in zip(("p11", "p12", "p21", "p22"), values)}))
        monkeypatch.setattr(cli, "lhv_chsh", lambda *args: 2.125)
        run_cli(["validate", "--n", "1600", "--tuples", "2", "--lhv-samples", "1600"])
        assert f"PASS {check}: " in capsys.readouterr().out

    def test_sampled_sources_follow_the_seed(self, monkeypatch):
        # checks 2 and 3 draw their sources from streams of --seed: no two seeds share one,
        # and check 3's never repeats one of check 2's (the last draw is check 3's)
        seeds, draw = [], cli._draw_partially_polarized
        monkeypatch.setattr(cli, "_draw_partially_polarized",
                            lambda d, n, seed: (seeds.append(seed), draw(d, n, seed))[1])

        def source_seeds(seed):
            seeds.clear()
            assert run_cli(["validate", "--seed", str(seed), "--n", "2000", "--tuples", "3",
                            "--lhv-samples", "1000"]) == 0
            return list(seeds)

        assert not set(source_seeds(0)) & set(source_seeds(1))
        *check2, check3 = source_seeds(1983)
        assert len(check2) == 3 and check3 not in check2

    @pytest.mark.parametrize("module, name, reading, check", [
        (cli, "scan_correlation", NAN_CURVE, "triple-path-analytic-interferometric"),
        (bell, "joint_probability_projected", math.nan, "triple-path-analytic-projected"),
        (cli, "joint_probability_kappa", math.nan, "triple-path-sampled"),
        (cli, "scan_correlation", NAN_CURVE, "probability-completeness-measured"),
        (cli, "joint_probability_kappa", math.nan, "no-signaling-oracle"),
        (cli, "lhv_chsh", math.nan, "lhv-bound"),
    ])
    def test_nan_reading_fails_its_check(self, capsys, monkeypatch, module, name, reading, check):
        # max(worst, nan) keeps worst, so a NaN once passed every check but completeness
        real = getattr(module, name)

        def stub(*args):
            if name == "joint_probability_kappa":  # it broadcasts: a NaN of the call's shape
                return np.full(np.broadcast_shapes(*map(np.shape, args[2:])), reading)
            if name == "scan_correlation" and not SCANS_OF[check](*args):
                return real(*args)
            return reading

        monkeypatch.setattr(module, name, stub)
        code = run_cli(["validate", "--n", "4000", "--tuples", "2", "--lhv-samples", "2000"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"FAIL {check}: " in captured.out
        if name == "scan_correlation":  # the NaN enters the named check's scans only
            assert captured.out.count("FAIL ") == 1, captured.out
        assert "validation failed" in captured.err


def sequential_validate(cfg):
    """The validate checks written out one after another, each drawing its
    random parameters as it runs: the reference for validate's output."""
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
        measured = getattr(cli.scan_correlation(field, sd, b, [a]), f"p{k}{l}")[0]
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
        field = _draw_partially_polarized(d, n, (cfg["seed"], 2000 + t))
        sd = schmidt(field)
        oracle = cli.joint_probability_kappa(k1, k2, a, b, k, l)
        measured = getattr(cli.scan_correlation(field, sd, b, [a]), f"p{k}{l}")[0]
        worst_sampled = max(worst_sampled, abs(measured - oracle))
    yield ("triple-path-sampled", worst_sampled <= tol,
           f"max |measured - oracle| = {worst_sampled:.3e} (tol {tol:.3e})")
    field = _draw_partially_polarized(0.125, n, (cfg["seed"], 17))
    sd = schmidt(field)
    curve = cli.scan_correlation(field, sd, 0.81, [0.37])
    total = sum(float(p[0]) for p in (curve.p11, curve.p12, curve.p21, curve.p22))
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
    """validate runs its checks in order on the calling thread and starts none."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_sequential_reference(self, capsys, tmp_path, seed):
        argv = ["validate", "--seed", str(seed), "--n", "20000", "--tuples", "6",
                "--lhv-samples", "20000"]
        cfg = {**cli._DEFAULTS["validate"], "seed": seed, "n": 20000, "tuples": 6,
               "lhv_samples": 20000}
        expected = [(name, bool(ok), detail) for name, ok, detail in sequential_validate(cfg)]
        before = threading.active_count()
        code = run_cli([*argv, "--out", str(tmp_path / "validate.json")])
        assert code == 0
        assert threading.active_count() == before
        checks = json.loads((tmp_path / "validate.json").read_text())["checks"]
        assert [(c["check"], c["pass"], c["detail"]) for c in checks] == expected
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
                           for name, ok, detail in expected]

    def test_starts_no_thread(self, capsys, monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: (started.append(self), start(self))[1])
        assert run_cli(["validate", "--n", "4000", "--tuples", "2", "--lhv-samples", "2000"]) == 0
        assert started == []

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

    def test_config_that_is_not_utf8_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe")
        assert run_cli(["chsh", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("wavebell: error:"), err
        assert str(cfg) in lines[0]

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
    # a key's line break once split the error over two lines
    "config-key-with-line-break": lambda tmp: ["source", "--config",
                                               _write_config(tmp, {"a\nb": 1, "\x85": 2})],
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
    # (stop - start) / step rounds to -inf: np.arange once raised "Maximum allowed size exceeded"
    "inverted-a-grid-of-inf-points": lambda tmp: ["scan", "--n", "100", "--format", "json",
                                                  "--a-start", "1e308", "--a-step", "1e-300"],
    # with no tuples the agreement checks would pass having compared nothing
    "zero-tuples": lambda tmp: ["validate", "--tuples", "0"],
    "config-negative-tuples": lambda tmp: ["validate", "--config",
                                           _write_config(tmp, {"tuples": -3})],
    # the analytic checks hold 1e-12, so validate takes no noise model
    "config-validate-noise": lambda tmp: ["validate", "--config",
                                          _write_config(tmp, {"noise_detector": 1e-3})],
    # above 2**53 a count and its predecessor are no longer exact floats
    "huge-source-n": lambda tmp: ["source", "--n", str(10**18)],
    "huge-scan-n": lambda tmp: ["scan", "--n", str(10**18), "--format", "json"],
    "huge-chsh-n": lambda tmp: ["chsh", "--n", str(10**18)],
    # rejected before any check runs, so no PASS line comes first
    "huge-validate-n": lambda tmp: ["validate", "--n", str(10**18)],
    "chsh-n-above-2**53": lambda tmp: ["chsh", "--n", str(2**53 + 1)],
    "chsh-dop-above-one": lambda tmp: ["chsh", "--dop", "2"],
    # --lhv-samples is at most 10**9, checked when the arguments are read, so
    # 10**15 (days of work, though the blocked sum would not run out of memory)
    # exits before any check runs
    "unallocatable-lhv-samples": lambda tmp: ["validate", "--n", "2000", "--tuples", "1",
                                              "--lhv-samples", str(10**15)],
    "lhv-samples-above-bound": lambda tmp: ["validate", "--lhv-samples", str(10**9 + 1)],
    "config-lhv-samples-above-bound": lambda tmp: ["validate", "--config",
                                                   _write_config(tmp, {"lhv_samples": 10**9 + 1})],
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
    # at most 10**5 resamples; 2**64 once ended in numpy's "Maximum allowed dimension exceeded"
    "chsh-resamples-2**64": lambda tmp: ["chsh", "--n", "100", "--resamples", str(2**64)],
    "chsh-resamples-above-bound": lambda tmp: ["chsh", "--n", "100",
                                               "--resamples", str(_MAX_RESAMPLES + 1)],
    "scan-resamples-2**64": lambda tmp: ["scan", "--n", "100", "--format", "json",
                                         "--resamples", str(2**64)],
    "config-scan-resamples-above-bound": lambda tmp: [
        "scan", "--n", "100", "--format", "json",
        "--config", _write_config(tmp, {"resamples": _MAX_RESAMPLES + 1})],
    # 5000 grid points at 10**5 resamples, each bound kept, would ask for about 215 GB
    "scan-points-times-runs": lambda tmp: [
        "scan", "--n", "100", "--format", "json", "--b-list", "0", "--a-stop", "0.5",
        "--a-step", "1e-4", "--resamples", str(_MAX_RESAMPLES)],
    "config-scan-points-times-runs": lambda tmp: [
        "scan", "--n", "100", "--format", "json", "--b-list", "0", "--config",
        _write_config(tmp, {"a_stop": 0.5, "a_step": 1e-4, "resamples": _MAX_RESAMPLES})],
    # a fully polarized source reads the closed form, which applies no noise model
    "chsh-fully-polarized-noise": lambda tmp: ["chsh", "--dop", "1", "--noise-phase", "0.3"],
    "config-chsh-fully-polarized-noise": lambda tmp: [
        "chsh", "--config", _write_config(tmp, {"dop": 1, "noise_phase": 0.3})],
    "scan-fully-polarized-noise": lambda tmp: ["scan", "--dop", "1", "--noise-detector", "1e-4",
                                               "--format", "json"],
    "config-scan-fully-polarized-noise": lambda tmp: [
        "scan", "--format", "json", "--config",
        _write_config(tmp, {"dop": 1, "noise_detector": 1e-4})],
}
_FLOOR = "kappa2 = 0 is below the floor 0.001: the closed form read there applies no noise model"
# Rows whose one line must also name the limit they cross.
BAD_INPUT_MESSAGES = {
    "scan-points-times-runs": "make 500005000 pair-runs, more than the limit of 10000000",
    "config-scan-points-times-runs": "make 500005000 pair-runs, more than the limit of 10000000",
    **{f"{where}{command}-fully-polarized-noise": _FLOOR
       for where in ("", "config-") for command in ("chsh", "scan")},
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_1_with_one_line(tmp_path, case):
    proc = subprocess.run(
        [sys.executable, "-m", "wavebell.cli", *BAD_INPUTS[case](tmp_path)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wavebell: error:"), proc.stderr
    assert BAD_INPUT_MESSAGES.get(case, "") in lines[0]
    if case in ("huge-validate-n", "unallocatable-lhv-samples", "lhv-samples-above-bound",
                "config-lhv-samples-above-bound") or case.endswith("fully-polarized-noise"):
        assert proc.stdout == ""


def test_points_times_runs_bound(capsys, monkeypatch):
    # the default 90-point curve at 10**5 resamples (9,000,090 pair-runs) is within the
    # limit; 100 points at 10**5 resamples (10,000,100) are refused before anything is drawn
    assert 90 * (1 + _MAX_RESAMPLES) <= interferometer._MAX_PAIR_RUNS == 10**7
    assert run_cli(["scan", "--n", "100", "--format", "json", "--b-list", "0", "--a-stop", "1",
                    "--a-step", "0.01", "--resamples", str(_MAX_RESAMPLES)]) == 1
    assert "100 (a, b) pairs read in 100001 runs" in capsys.readouterr().err
    # the bound is inclusive, shown at a limit small enough to run
    monkeypatch.setattr(interferometer, "_MAX_PAIR_RUNS", 90 * 11)
    source = _draw_partially_polarized(0.0, 100, 0)
    sd = schmidt(source)
    grid = np.arange(91) * math.pi / 91.0
    assert wavebell.scan_correlation(source, sd, 0.3, grid[:90], resamples=10).c.size == 90
    with pytest.raises(wavebell.DomainError, match="991 pair-runs, more than the limit of 990"):
        wavebell.scan_correlation(source, sd, 0.3, grid[:1], resamples=990)
    with pytest.raises(wavebell.DomainError, match="1001 pair-runs"):
        wavebell.scan_correlation(source, sd, 0.3, grid, resamples=10)


@pytest.mark.parametrize("seed", ["0", "9"])
def test_source_scan_and_chsh_measure_one_source(capsys, seed):
    # one (dop, n, seed) names one source: the three commands report its DOP alike
    beam = ["--dop", "0.3", "--n", "5000", "--seed", seed, "--format", "json"]
    dops = []
    for argv, read in ((["source"], lambda r: r["dop"]),
                       (["scan", "--b-list", "0", "--a-stop", "0.1", "--resamples", "0"],
                        lambda r: r["source"]["dop"]),
                       (["chsh", "--resamples", "0"], lambda r: r["dop"])):
        assert run_cli(argv + beam) == 0
        dops.append(read(json.loads(capsys.readouterr().out)))
    assert max(dops) - min(dops) <= 1e-12, dops


def test_small_n_jitter_names_the_gaussian_law(capsys):
    # at n = 10 a Gaussian K under jitter sigma = 3 makes a both-arms reading negative: the
    # error names the jitter's law, not the readings or intensity the user never gave
    assert run_cli(["chsh", "--n", "10", "--noise-phase", "3", "--resamples", "16",
                    "--seed", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["wavebell: error: phase jitter made a both-arms reading negative: the "
                     "Gaussian law of the jittered moments K does not hold at this realization "
                     "count"]


def test_lhv_samples_bound_is_inclusive():
    convert = cli._OPTIONS["lhv_samples"][1]["type"]
    assert convert(str(10**9)) == 10**9 == cli._MAX_LHV_SAMPLES


@pytest.mark.parametrize("source", ["flag", "config"])
def test_tuples_above_bound_exit_1_before_any_check(tmp_path, capsys, monkeypatch, source):
    # --tuples is at most 10**4, checked when the arguments are read: no check runs
    monkeypatch.setattr(cli, "_validate_checks", lambda cfg: pytest.fail("a check ran"))
    above = cli._MAX_TUPLES + 1
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--tuples", str(above)])
        assert exc.value.code == 1
    else:
        assert run_cli(["validate", "--config", _write_config(tmp_path, {"tuples": above})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wavebell: error:"), captured.err
    assert f"must be <= {cli._MAX_TUPLES}, got {above}" in lines[0]
    convert = cli._OPTIONS["tuples"][1]["type"]
    assert convert(str(10**4)) == 10**4 == cli._MAX_TUPLES


def test_chsh_at_1e15_realizations_meets_its_bound():
    # chsh draws its source as moments, so 10**15 realizations cost what 10**3 do
    proc = subprocess.run(
        [sys.executable, "-m", "wavebell.cli", "chsh", "--n", str(10**15)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["n"] == 10**15
    assert abs(report["chsh"] - 2.0 * math.sqrt(2.0 - report["dop"] ** 2)) <= 1e-12


def test_validate_at_1e15_realizations_passes():
    # the sampled checks draw their sources as moments, so 10**15 realizations
    # cost what 10**3 do
    proc = subprocess.run(
        [sys.executable, "-m", "wavebell.cli", "validate", "--n", str(10**15)],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines), proc.stdout


@pytest.mark.parametrize("a_start, a_stop", [("1", "1"), ("-30deg", "-1")])
def test_empty_a_grid_names_the_flags(capsys, a_start, a_stop):
    # rejected before the source is synthesized, naming the flags to change
    assert main(["scan", f"--a-start={a_start}", "--a-stop", a_stop, "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err == "wavebell: error: the a grid from --a-start to --a-stop (exclusive) has no points\n"


def test_a_grid_point_bound_is_inclusive(capsys):
    # 10**4 points, the limit, are read; 10001 are refused before anything is drawn
    scan = ["scan", "--n", "100", "--resamples", "0", "--b-list", "0.3", "--a-step", "1e-4",
            "--format", "json"]
    assert main([*scan, "--a-stop", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["curves"][0]["a_rad"]) == 10_000
    assert main([*scan, "--a-stop", "1.0001"]) == 1
    assert "more than the limit of 10000" in capsys.readouterr().err


# --a-stop is exclusive to 1e-12: a point 1e-13 below it is the end, and one 1e-10 below it
# is read
@pytest.mark.parametrize("a_stop, points", [("0.5000000000001", 1), ("0.5000000001", 2)])
def test_a_stop_is_exclusive_to_1e_12(capsys, a_stop, points):
    assert main(["scan", "--n", "100", "--resamples", "0", "--b-list", "0.3", "--a-stop", a_stop,
                 "--a-step", "0.5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["curves"][0]["a_rad"] == [0.0, 0.5][:points]


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


def _fresh_stdout(argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "wavebell.cli", *argv], capture_output=True,
                          timeout=120, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode()


def test_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    # every in-process call parses with one parser; each good call must print what the
    # same argv prints in a fresh interpreter, whatever the calls before it were
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dop": 0.4, "seed": 3, "settings": [0.1, 0.2, 0.3, 0.4]}))
    small = ["--n", "1000", "--resamples", "0"]
    sequence = [  # (argv, the exit code of a call that ends in SystemExit)
        (["chsh", "--settings", "0", "0.3", "0.1", "0.2"] + small, None),
        (["chsh"], None),
        (["chsh", "--config", str(config)] + small, None),
        (["chsh"] + small, None),
        (["chsh", "--settings", "1", "2"], 1),  # a usage error
        (["source", "--n", "1000"], None),
        (["scan", "--help"], 0),
        (["scan", "--n", "1000", "--a-stop", "0.2", "--b-list", "0.3", "--format", "json"], None),
    ]
    for argv, exit_code in sequence:
        if exit_code is None:
            assert main(argv) == 0
            assert capsys.readouterr().out == _fresh_stdout(argv), argv
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == exit_code
            capsys.readouterr()


def test_parser_is_built_once_per_process_and_not_at_import():
    code = """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        from wavebell import cli
        print(len(built))
        for _ in range(3):
            cli.main(["source", "--n", "100"])
        print(len(built))
        """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # nothing at import; then the root parser and one subparser per command, once
    assert (lines[0], lines[-1]) == ("0", str(1 + len(cli._DEFAULTS)))


def test_cli_import_loads_no_thread_pool():
    # the program runs no thread pool, so a CLI start does not pay for importing one
    code = "import sys, wavebell.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=CHILD_ENV)
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
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["config"]["dop"] == 0.1


# The fuzz property's alphabet.  Size options draw only small in-range values, or
# values refused before anything is allocated, so no example runs long or large.
_VALUES = ["0", "1", "-1", "0.3", "2.5", "1e308", "-1e308", "nan", "inf", "-inf", "22.5deg",
           "-45deg", "1rad", "0,0.3", "0deg,1rad,2", ",", "", "foo", "true", "csv", "json",
           str(2**64), str(_MAX_RESAMPLES + 1)]
_GOOD_VALUES = ["0", "0.3", "1", "csv", "json"]  # in range for most options, so runs go deep
_SIZE_VALUES = {  # (in range, refused before any allocation)
    "n": (["2", "50"], ["0", "1", "-3", "2.5", "nan", "", str(2**53 + 1), str(2**64)]),
    "resamples": (["0", "10"], ["5", "-1", "1.5", "", str(2**64), str(_MAX_RESAMPLES + 1)]),
    "tuples": (["1", "2"], ["0", "-1", "", str(2**64), str(cli._MAX_TUPLES + 1)]),
    "lhv_samples": (["1", "64"], ["0", "", str(2**64), str(cli._MAX_LHV_SAMPLES + 1)]),
    "a_step": (["0.5", "30deg", "1rad"], ["0", "-1", "nan", "inf", "1e-300", ""]),
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(_VALUES),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def _invocations(draw):
    """argv of one command, and the bytes of its config file or None."""
    command = draw(st.sampled_from(list(cli._DEFAULTS)))
    keys = list(cli._DEFAULTS[command])
    argv = [command]
    for key in keys:  # every size option, so a default never sets a size
        if key in _SIZE_VALUES:
            good, bad = _SIZE_VALUES[key]
            argv += [cli._OPTIONS[key][0],
                     draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad))]
    free = [k for k in keys if k not in _SIZE_VALUES and k != "out"]
    for key in draw(st.lists(st.sampled_from(free), max_size=4)):
        flag, spec = cli._OPTIONS[key]
        count = 0 if spec.get("action") == "store_true" else \
            draw(st.sampled_from([spec.get("nargs", 1)] * 3 + [0, 2]))
        values = [_GOOD_VALUES if draw(st.integers(0, 2)) else _VALUES for _ in range(count)]
        argv += [flag] + [draw(st.sampled_from(v)) for v in values]
    objects = st.dictionaries(st.sampled_from(keys + ["bogus"]), _JSON, max_size=4)
    config = draw(st.none() | st.binary(max_size=16)
                  | (_JSON | objects).map(lambda v: json.dumps(v).encode()))
    return argv, config


# derandomized, so tier-1 reads the same 120 examples every run; the inputs it and longer
# random runs found are pinned in BAD_INPUTS
@hypothesis_settings(max_examples=120, deadline=None, derandomize=True)
@given(_invocations(), st.sampled_from(["out", "missing/x", "."]))
def test_every_input_exits_0_1_or_2_with_one_error_line(invocation, out):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        # --out always points inside the directory, overriding any config value
        argv = argv + ["--out", str(Path(tmp) / out)]
        if config is not None:
            (Path(tmp) / "cfg.json").write_bytes(config)
            argv += ["--config", str(Path(tmp) / "cfg.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, config, code)
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("wavebell: error:"), (argv, config, err)
