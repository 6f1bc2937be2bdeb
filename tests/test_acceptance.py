"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity and its tolerance."""

import math

import numpy as np
import pytest

from wavebell import (
    AngleSettings,
    NoiseModel,
    ProtocolConfig,
    SHIPPED_LHV_MODELS,
    StokesVector,
    dop,
    joint_probability_kappa,
    joint_probability_projected,
    kappa_from_dop,
    lhv_chsh,
    max_chsh,
    run_bell_protocol,
    scan_correlation,
    schmidt,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
)
from wavebell.cli import main as cli_main


def _criterion(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_dop_reproduction():
    s = StokesVector(1.0, -0.0827, -0.0920, -0.0158)
    value = dop(s)
    _criterion(
        1,
        "DOP from measured Stokes values",
        abs(value - 0.125) <= 0.0005,
        f"dop = {value:.6f}, target 0.125 +- 0.0005",
    )


def test_criterion_2_schmidt_coefficients():
    k1, k2 = kappa_from_dop(0.125)
    ok = abs(k1 - 0.750) <= 0.001 and abs(k2 - 0.661) <= 0.001
    _criterion(
        2,
        "Schmidt weights at DOP 0.125",
        ok,
        f"kappa = ({k1:.4f}, {k2:.4f}), target (0.750, 0.661) +- 0.001",
    )


def test_criterion_3_ideal_chsh_maximum():
    report = run_bell_protocol(
        ProtocolConfig(dop=0.125, n=1_000_000, seed=2026, resamples=16)
    )
    ok = abs(report.chsh - 2.817) <= 0.01 and report.chsh_err < 0.01
    _criterion(
        3,
        "ideal protocol maximum at DOP 0.125, n = 1e6",
        ok,
        f"chsh = {report.chsh:.4f} +- {report.chsh_err:.4f}, target 2.817 +- 0.01",
    )


def test_criterion_4_unpolarized_limit():
    report = run_bell_protocol(
        ProtocolConfig(dop=0.0, n=1_000_000, seed=2027, resamples=16)
    )
    target = 2.0 * math.sqrt(2.0)
    ok = abs(report.chsh - target) <= 0.01
    _criterion(
        4,
        "unpolarized source reaches 2*sqrt(2)",
        ok,
        f"chsh = {report.chsh:.4f}, target {target:.4f} +- 0.01",
    )


def test_criterion_5_correlation_curve_family(tmp_path):
    n = 10_000
    a_step = math.pi / 60.0
    outdir = tmp_path / "scan"
    code = cli_main(
        [
            "scan",
            "--dop", "0",
            "--n", str(n),
            "--seed", "2028",
            "--a-start", "0",
            "--a-stop", str(math.pi),
            "--a-step", str(a_step),
            "--resamples", "0",
            "--out", str(outdir),
        ]
    )
    assert code == 0
    files = sorted(outdir.glob("curve_*.csv"))
    assert len(files) == 12

    tol = 5.0 / math.sqrt(n)
    curves = []
    worst_fit = 0.0
    for i, path in enumerate(files):
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        a, b, c = rows[:, 0], rows[0, 1], rows[:, 6]
        assert b == pytest.approx(i * math.pi / 12.0)
        residual = c - np.cos(2.0 * (a - b))
        worst_fit = max(worst_fit, math.sqrt(float(np.mean(residual**2))))
        curves.append(c)
    _criterion(
        5,
        "twelve curves fit cos 2(a-b)",
        worst_fit < tol,
        f"worst RMS residual = {worst_fit:.3e} (tol {tol:.3e})",
    )

    worst_collapse = 0.0
    reference = curves[0]
    for i, c in enumerate(curves):
        shift = round((i * math.pi / 12.0) / a_step)
        aligned = np.roll(reference, shift)  # C(a, b) = C(a - b, 0)
        worst_collapse = max(
            worst_collapse, math.sqrt(float(np.mean((c - aligned) ** 2)))
        )
    _criterion(
        5,
        "curves collapse under a -> a - b",
        worst_collapse < tol,
        f"worst RMS shift mismatch = {worst_collapse:.3e} (tol {tol:.3e})",
    )


def test_criterion_6_triple_path_agreement():
    rng = np.random.default_rng(2029)
    tuples = 20

    worst_analytic = 0.0
    for t in range(tuples):
        d = float(rng.uniform(0.02, 0.95))
        k1, k2 = kappa_from_dop(d)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        field = synthesize_schmidt_form(k1, k2, n=512, seed=3000 + t)
        sd = schmidt(field)
        oracle = joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
        measured = getattr(scan_correlation(field, sd, b, [a]), f"p{k}{l}")[0]
        projected = joint_probability_projected(field, sd, a, b, k, l)
        worst_analytic = max(
            worst_analytic, abs(measured - oracle), abs(projected - oracle)
        )
    _criterion(
        6,
        "triple-path agreement on analytic amplitudes",
        worst_analytic <= 1e-12,
        f"worst deviation = {worst_analytic:.3e} (tol 1e-12)",
    )

    n = 100_000
    tol = 5.0 / math.sqrt(n)
    worst_sampled = 0.0
    for t in range(tuples):
        d = float(rng.uniform(0.02, 0.95))
        k1, k2 = kappa_from_dop(d)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        e = synthesize_partially_polarized(d, 1.0, n, 4000 + t)
        sd = schmidt(e)
        oracle = joint_probability_kappa(k1, k2, a, b, k, l)
        measured = getattr(scan_correlation(e, sd, b, [a]), f"p{k}{l}")[0]
        projected = joint_probability_projected(e, sd, a, b, k, l)
        worst_sampled = max(
            worst_sampled, abs(measured - oracle), abs(projected - oracle)
        )
        assert abs(measured - projected) <= 1e-10
    _criterion(
        6,
        "triple-path agreement on sampled ensembles (n = 1e5)",
        worst_sampled <= tol,
        f"worst deviation = {worst_sampled:.4f} (tol {tol:.4f})",
    )


def test_criterion_7_bound_suite():
    rng = np.random.default_rng(2030)
    tsirelson = 2.0 * math.sqrt(2.0) + 1e-9
    worst = 0.0
    for _ in range(50):
        k1, k2 = kappa_from_dop(float(rng.uniform(0.0, 1.0)))
        value, _ = max_chsh(k1, k2)
        worst = max(worst, value)
    _criterion(
        7,
        "closed-form maximum respects 2*sqrt(2)",
        worst <= tsirelson,
        f"max over 50 weight pairs = {worst:.10f} (bound {tsirelson:.10f})",
    )

    value, _ = max_chsh(1.0, 0.0)
    _criterion(
        7,
        "separable field caps at 2",
        abs(value - 2.0) <= 1e-6,
        f"max = {value:.8f} (target 2 +- 1e-6)",
    )

    n_samples = 100_000
    bound = 2.0 + 5.0 / math.sqrt(n_samples)
    worst_lhv = 0.0
    for name, factory in sorted(SHIPPED_LHV_MODELS.items()):
        model = factory()
        for t in range(10):
            settings = AngleSettings(*rng.uniform(0.0, math.pi, 4))
            worst_lhv = max(
                worst_lhv, abs(lhv_chsh(model, settings, n_samples, (2031, t)))
            )
    _criterion(
        7,
        "hidden-variable demos obey |B| <= 2",
        worst_lhv <= bound,
        f"max |B| = {worst_lhv:.4f} (bound {bound:.4f})",
    )


def test_criterion_8_no_signaling_marginals():
    k1, k2 = kappa_from_dop(0.125)
    grid = np.linspace(0.0, math.pi, 20, endpoint=False)

    worst_oracle = 0.0
    for a in grid:
        for k in (1, 2):
            values = [
                joint_probability_kappa(k1, k2, a, b, k, 1)
                + joint_probability_kappa(k1, k2, a, b, k, 2)
                for b in grid
            ]
            worst_oracle = max(worst_oracle, max(values) - min(values))
    _criterion(
        8,
        "oracle lab marginal independent of b",
        worst_oracle <= 1e-12,
        f"max variation = {worst_oracle:.3e} (tol 1e-12)",
    )

    n = 10_000
    tol = 5.0 / math.sqrt(n)
    e = synthesize_partially_polarized(0.125, 1.0, n, 2032)
    sd = schmidt(e)
    # marginals[b, k - 1, a] = p_k1 + p_k2, read from one scan per b
    curves = [scan_correlation(e, sd, float(b), grid) for b in grid]
    marginals = [[c.p11 + c.p12, c.p21 + c.p22] for c in curves]
    worst_measured = float(np.max(np.ptp(marginals, axis=0)))
    _criterion(
        8,
        "measured lab marginal independent of b",
        worst_measured <= tol,
        f"max variation = {worst_measured:.3e} (tol {tol:.3e})",
    )


# Documented imperfection grids for the qualitative reproduction of the
# below-ideal experimental range: the simulated value must fall
# monotonically from the ideal 2.817 and pass through [2.5, 2.7].
EXTINCTION_GRID = (0.0, 1e-4, 2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3)
PHASE_JITTER_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _sweep(noise_of, grid):
    values = []
    for x in grid:
        report = run_bell_protocol(
            ProtocolConfig(dop=0.125, n=100_000, seed=2033, resamples=0, noise=noise_of(x))
        )
        values.append(report.chsh)
    return values


def _band_crossing_ok(values):
    decreasing = all(x > y for x, y in zip(values, values[1:]))
    return (
        decreasing
        and values[0] > 2.7
        and any(2.5 <= v <= 2.7 for v in values)
        and values[-1] < 2.5
    )


def test_criterion_9_imperfection_pathway():
    ext_values = _sweep(lambda x: NoiseModel(extinction_ratio=x), EXTINCTION_GRID)
    _criterion(
        9,
        "extinction sweep decreases through [2.5, 2.7]",
        _band_crossing_ok(ext_values),
        "chsh = " + ", ".join(f"{v:.3f}" for v in ext_values),
    )

    jitter_values = _sweep(lambda x: NoiseModel(phase_jitter=x), PHASE_JITTER_GRID)
    _criterion(
        9,
        "phase-jitter sweep decreases through [2.5, 2.7]",
        _band_crossing_ok(jitter_values),
        "chsh = " + ", ".join(f"{v:.3f}" for v in jitter_values),
    )
