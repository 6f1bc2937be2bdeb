import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest

from wavebell import (
    AngleSettings,
    DomainError,
    ExtractionError,
    FieldEnsemble,
    IntensityTriple,
    NoiseModel,
    ProtocolConfig,
    StrippedBeamError,
    apply,
    beamsplitter_combine,
    beamsplitter_split,
    bootstrap_error,
    extract_probability,
    intensity,
    joint_probability_direct,
    joint_probability_kappa,
    joint_probability_projected,
    kappa_from_dop,
    measure_correlation,
    measure_intensities,
    measure_joint_probability,
    measured_schmidt,
    run_bell_protocol,
    scan_correlation,
    schmidt,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
)
from wavebell import ensemble as ensemble_module, interferometer
from wavebell.interferometer import CURVE_CSV_HEADER
from wavebell.optics import LabBasis, polarizer_axis, polarizer_matrix

XY = LabBasis(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def basis_of(sd):
    return LabBasis(sd.u1, sd.u2)


class TestMeasureIntensities:
    def test_test_arm_semantics(self):
        e = synthesize_partially_polarized(0.3, 1.4, 2000, 1)
        sd = schmidt(e)
        t = measure_intensities(e, 0.5, 0.9, basis=basis_of(sd))
        half, _ = beamsplitter_split(e.realizations)
        pol = polarizer_matrix(polarizer_axis(basis_of(sd), 0.5))
        expected = intensity(apply(pol, FieldEnsemble(half)))
        assert t.i_test == pytest.approx(expected, abs=1e-12)

    def test_dark_input(self):
        e = FieldEnsemble(np.zeros((8, 2), dtype=complex))
        t = measure_intensities(e, 0.3, 0.7, basis=XY)
        assert (t.i_total, t.i_test, t.i_aux) == (0.0, 0.0, 0.0)

    def test_interference_bound(self):
        for seed in range(4):
            e = synthesize_partially_polarized(0.4, 1.0, 1000, seed)
            sd = schmidt(e)
            t = measure_intensities(e, 0.2 * seed, 0.9, basis=basis_of(sd))
            bound = t.i_test + t.i_aux + 2 * math.sqrt(t.i_test * t.i_aux)
            assert t.i_total <= bound + 1e-12

    def test_matches_element_by_element_reference(self):
        e = synthesize_partially_polarized(0.5, 2.0, 1500, 3)
        sd = schmidt(e)
        basis = basis_of(sd)
        a, s, eps = 0.4, 1.1, 0.03
        noise = NoiseModel(extinction_ratio=eps)
        t = measure_intensities(e, a, s, noise=noise, basis=basis)
        pol_a, pol_s = (polarizer_matrix(polarizer_axis(basis, x), eps) for x in (a, s))
        test, aux = (FieldEnsemble(x) for x in beamsplitter_split(e.realizations))
        test_a = apply(pol_a, test)
        aux_sa = apply(pol_a, apply(pol_s, aux))
        out = FieldEnsemble(beamsplitter_combine(aux_sa.realizations, test_a.realizations))
        assert t.i_total == pytest.approx(intensity(out), abs=1e-12)
        assert t.i_test == pytest.approx(intensity(test_a), abs=1e-12)
        assert t.i_aux == pytest.approx(intensity(aux_sa), abs=1e-12)

    def test_jitter_path_matches_reference(self):
        e = synthesize_partially_polarized(0.2, 1.0, 800, 4)
        sd = schmidt(e)
        basis = basis_of(sd)
        sigma, seed = 0.4, 17
        t = measure_intensities(e, 0.3, 0.8, NoiseModel(phase_jitter=sigma), seed, basis=basis)
        pol_a, pol_s = (polarizer_matrix(polarizer_axis(basis, x)) for x in (0.3, 0.8))
        test, aux = (FieldEnsemble(x) for x in beamsplitter_split(e.realizations))
        test_a = apply(pol_a, test)
        aux_sa = apply(pol_a, apply(pol_s, aux))
        phases = np.random.default_rng(seed).normal(0.0, sigma, e.n)
        jittered = aux_sa.realizations * np.exp(1j * phases)[:, None]
        out = FieldEnsemble(beamsplitter_combine(jittered, test_a.realizations))
        assert t.i_total == pytest.approx(intensity(out), abs=1e-12)

    def test_jitter_washout(self):
        n = 30_000
        e = synthesize_partially_polarized(0.125, 1.0, n, 5)
        sd = schmidt(e)
        t = measure_intensities(
            e, 0.2, 0.2, NoiseModel(phase_jitter=40.0), seed=6, basis=basis_of(sd)
        )
        incoherent = (t.i_test + t.i_aux) / 2.0
        assert abs(t.i_total - incoherent) < 5.0 / math.sqrt(n) * (t.i_test + t.i_aux)

    def test_detector_noise_deterministic(self):
        e = synthesize_partially_polarized(0.125, 1.0, 500, 7)
        sd = schmidt(e)
        noise = NoiseModel(detector_noise=0.01)
        t1 = measure_intensities(e, 0.1, 0.5, noise, seed=9, basis=basis_of(sd))
        t2 = measure_intensities(e, 0.1, 0.5, noise, seed=9, basis=basis_of(sd))
        t3 = measure_intensities(e, 0.1, 0.5, noise, seed=10, basis=basis_of(sd))
        assert t1 == t2
        assert t1 != t3


class TestExtractProbability:
    def test_zero_when_test_arm_dark(self):
        t = IntensityTriple(i_total=0.4, i_test=0.0, i_aux=0.8)
        assert extract_probability(t, 1.0) == 0.0

    def test_extinguished_aux(self):
        with pytest.raises(StrippedBeamError):
            extract_probability(IntensityTriple(1.0, 1.0, 0.0), 1.0)

    def test_inconsistent_triple(self):
        with pytest.raises(ExtractionError):
            extract_probability(IntensityTriple(2.0, 0.5, 0.5), 0.5)

    def test_clamps_float_noise(self):
        cross = 2.0 * math.sqrt(1.0 + 2e-7)
        t = IntensityTriple(i_total=(cross + 1.0) / 2.0, i_test=0.0, i_aux=1.0)
        assert extract_probability(t, 1.0) == 1.0

    def test_source_intensity_domain(self):
        with pytest.raises(DomainError):
            extract_probability(IntensityTriple(1.0, 1.0, 1.0), 0.0)

    def test_negative_intensities_rejected(self):
        with pytest.raises(DomainError):
            IntensityTriple(1.0, -0.1, 1.0)


class TestCrossTermIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_extraction_identity(self, seed):
        # 2 I_total - I_aux - I_test equals twice the geometric-mean cross
        # amplitude, with the closed-form amplitude ratio as coefficient
        rng = np.random.default_rng(seed)
        d = float(rng.uniform(0.05, 0.9))
        k1, k2 = kappa_from_dop(d)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=seed)
        sd = schmidt(field)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        from wavebell.optics import stripping_angle

        s = stripping_angle(sd.kappa1, sd.kappa2, b)
        t = measure_intensities(field, a, s, basis=basis_of(sd))
        cross = 2.0 * t.i_total - t.i_aux - t.i_test
        amp11 = k1 * math.cos(a) * math.cos(b) + k2 * math.sin(a) * math.sin(b)
        lab = math.sqrt(k1**2 * math.cos(a) ** 2 + k2**2 * math.sin(a) ** 2)
        c11 = amp11 / lab if lab > 0 else 0.0
        assert abs(cross) == pytest.approx(
            2.0 * math.sqrt(t.i_aux * t.i_test) * abs(c11), abs=1e-12
        )


class TestTriplePathAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_analytic_amplitudes(self, seed):
        rng = np.random.default_rng(1000 + seed)
        d = float(rng.uniform(0.02, 0.95))
        k1, k2 = kappa_from_dop(d)
        field = synthesize_schmidt_form(k1, k2, n=256, seed=seed)
        sd = schmidt(field)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        oracle = joint_probability_direct(sd, a, b, k, l)
        measured = measure_joint_probability(field, sd, a, b, k, l)
        projected = joint_probability_projected(field, sd, a, b, k, l)
        assert abs(measured - oracle) < 1e-12
        assert abs(projected - oracle) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_ensembles(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = 20_000
        d = float(rng.uniform(0.05, 0.9))
        e = synthesize_partially_polarized(d, 1.0, n, seed)
        sd = schmidt(e)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        k, l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        measured = measure_joint_probability(e, sd, a, b, k, l)
        projected = joint_probability_projected(e, sd, a, b, k, l)
        empirical_oracle = joint_probability_direct(sd, a, b, k, l)
        k1, k2 = kappa_from_dop(d)
        requested_oracle = joint_probability_kappa(k1, k2, a, b, k, l)
        assert abs(measured - empirical_oracle) < 1e-10
        assert abs(projected - empirical_oracle) < 1e-10
        assert abs(measured - requested_oracle) < 5.0 / math.sqrt(n)

    def test_measured_completeness(self):
        e = synthesize_partially_polarized(0.125, 1.0, 10_000, 5)
        sd = schmidt(e)
        total = sum(
            measure_joint_probability(e, sd, 0.37, 0.81, k, l)
            for k in (1, 2)
            for l in (1, 2)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_bad_indices(self):
        e = synthesize_partially_polarized(0.125, 1.0, 100, 6)
        sd = schmidt(e)
        with pytest.raises(DomainError):
            measure_joint_probability(e, sd, 0.0, 0.0, 3, 1)

    def test_crossed_polarizer_recovery(self):
        # polarizer a exactly crossed with the stripping polarizer: the aux
        # beam dies, and the value must come back via the complementary
        # channel; pick a case where the recovered probability is nonzero
        from wavebell.optics import stripping_angle

        k1, k2 = kappa_from_dop(0.62)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=77)
        sd = schmidt(field)
        b = 0.6
        a = stripping_angle(sd.kappa1, sd.kappa2, b) - math.pi / 2.0
        oracle = joint_probability_direct(sd, a, b, 1, 1)
        assert oracle > 0.05
        measured = measure_joint_probability(field, sd, a, b, 1, 1)
        assert measured == pytest.approx(oracle, abs=1e-12)

    def test_crossed_polarizer_recovery_under_detector_noise(self):
        # the recovery reads the other stripping angle under the same draws:
        # P_kl = i_test / I - P_kl' from two shutter sequences with one seed
        from wavebell.optics import stripping_angle, stripping_angle_orthogonal

        k1, k2 = kappa_from_dop(0.62)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=77)
        sd = schmidt(field)
        b, noise, seed = 0.6, NoiseModel(detector_noise=1e-3), (5, 1)
        a = stripping_angle(sd.kappa1, sd.kappa2, b) - math.pi / 2.0
        crossed = measure_intensities(field, a, stripping_angle(sd.kappa1, sd.kappa2, b),
                                      noise, seed, basis=basis_of(sd))
        assert crossed.i_aux == 0.0  # the aux reading's draw is negative and clamps
        s_other = stripping_angle_orthogonal(sd.kappa1, sd.kappa2, b)
        t = measure_intensities(field, a, s_other, noise, seed, basis=basis_of(sd))
        beam = intensity(field) / 2.0
        expected = t.i_test / beam - extract_probability(t, beam)
        assert 0.0 < expected < 1.0
        assert measure_joint_probability(field, sd, a, b, 1, 1, noise, seed) == expected

    def test_crossed_polarizer_recovery_at_quarter_turn(self):
        # b = pi/2 puts the stripping polarizer at pi/2, crossed with a = 0
        e = synthesize_partially_polarized(0.125, 1.0, 5000, 78)
        sd = schmidt(e)
        measured = measure_joint_probability(e, sd, 0.0, math.pi / 2.0, 1, 1)
        assert measured == pytest.approx(
            joint_probability_direct(sd, 0.0, math.pi / 2.0, 1, 1), abs=1e-10
        )

    def test_aligned_angles_give_kappa1_squared(self):
        # at a = b = 0 (s = 0) the joint probability is kappa1^2 = 0.5625
        k1, k2 = kappa_from_dop(0.125)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=79)
        sd = schmidt(field)
        measured = measure_joint_probability(field, sd, 0.0, 0.0, 1, 1)
        assert measured == pytest.approx(0.5625, abs=1e-12)


class TestNoiseDegradation:
    def test_extinction_monotone(self):
        values = []
        for eps in (0.0, 1e-4, 5e-4, 2e-3, 8e-3):
            rep = run_bell_protocol(
                ProtocolConfig(
                    dop=0.125,
                    n=20_000,
                    seed=21,
                    resamples=0,
                    noise=NoiseModel(extinction_ratio=eps),
                )
            )
            values.append(rep.chsh)
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_jitter_contrast_law(self):
        # per-realization phase jitter suppresses every P by ~exp(-sigma^2)
        base = run_bell_protocol(
            ProtocolConfig(dop=0.125, n=50_000, seed=22, resamples=0)
        )
        sigma = 0.3
        noisy = run_bell_protocol(
            ProtocolConfig(
                dop=0.125,
                n=50_000,
                seed=22,
                resamples=0,
                noise=NoiseModel(phase_jitter=sigma),
            )
        )
        assert noisy.chsh == pytest.approx(base.chsh * math.exp(-sigma**2), rel=0.01)


class TestBootstrap:
    def test_constant_pipeline(self):
        e = synthesize_partially_polarized(0.2, 1.0, 500, 8)
        err = bootstrap_error(e, lambda _: 1.0, resamples=20, seed=0)
        assert err == 0.0

    def test_constant_ensemble_mean(self):
        e = FieldEnsemble(np.full((64, 2), 1.0 + 0.0j))
        err = bootstrap_error(e, intensity, resamples=25, seed=1)
        assert err == pytest.approx(0.0, abs=1e-14)

    def test_inverse_sqrt_scaling(self):
        sizes = [1000, 10_000, 100_000]
        errs = []
        for n in sizes:
            e = synthesize_partially_polarized(0.125, 1.0, n, 9)
            errs.append(bootstrap_error(e, intensity, resamples=300, seed=2))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.1

    def test_resample_floor(self):
        e = synthesize_partially_polarized(0.2, 1.0, 100, 10)
        with pytest.raises(DomainError):
            bootstrap_error(e, intensity, resamples=5, seed=0)

    def test_deterministic(self):
        e = synthesize_partially_polarized(0.2, 1.0, 2000, 11)
        a = bootstrap_error(e, intensity, resamples=50, seed=3)
        b = bootstrap_error(e, intensity, resamples=50, seed=3)
        assert a == b


class TestScanCorrelation:
    def test_unpolarized_cosine_curve(self):
        n = 10_000
        e = synthesize_partially_polarized(0.0, 1.0, n, 12)
        sd = schmidt(e)
        b = 0.3
        grid = np.linspace(0.0, math.pi, 24, endpoint=False)
        curve = scan_correlation(e, sd, b, grid)
        residual = curve.c - np.cos(2 * (grid - b))
        rms = math.sqrt(float(np.mean(residual**2)))
        assert rms < 5.0 / math.sqrt(n)

    def test_bootstrap_errors_attached(self):
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 13)
        sd = schmidt(e)
        grid = np.array([0.0, 0.5, 1.0])
        curve = scan_correlation(e, sd, 0.2, grid, resamples=12)
        assert curve.c_err.shape == grid.shape
        assert np.all(curve.c_err >= 0.0)
        assert np.all(np.abs(curve.c) <= 1.0 + 3.0 * curve.c_err + 1e-9)

    def test_csv_output(self, tmp_path):
        e = synthesize_partially_polarized(0.125, 1.0, 1000, 14)
        sd = schmidt(e)
        curve = scan_correlation(e, sd, 0.4, np.array([0.1]))
        out = tmp_path / "curve.csv"
        curve.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == CURVE_CSV_HEADER
        assert len(lines) == 2
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == pytest.approx(0.1)
        assert row[1] == pytest.approx(0.4)

    @pytest.mark.parametrize("resamples", [5, -1])
    def test_resample_floor(self, resamples):
        e = synthesize_partially_polarized(0.125, 1.0, 100, 15)
        with pytest.raises(DomainError):
            scan_correlation(e, schmidt(e), 0.0, np.array([0.1]), resamples=resamples)

    def test_empty_grid_rejected(self):
        e = synthesize_partially_polarized(0.125, 1.0, 100, 15)
        sd = schmidt(e)
        with pytest.raises(DomainError):
            scan_correlation(e, sd, 0.0, np.array([]))

    def test_peak_to_peak_amplitude(self):
        # curve at b = pi/8: C = (cos 2a + 2 k1 k2 sin 2a)/sqrt(2), so the
        # peak-to-peak span is sqrt(2) * sqrt(1 + 4 k1^2 k2^2)
        n = 10_000
        e = synthesize_partially_polarized(0.125, 1.0, n, 16)
        sd = schmidt(e)
        grid = np.linspace(0.0, math.pi, 60, endpoint=False)
        curve = scan_correlation(e, sd, math.pi / 8.0, grid)
        k1, k2 = kappa_from_dop(0.125)
        expected = math.sqrt(2.0) * math.sqrt(1.0 + 4.0 * k1**2 * k2**2)
        span = float(curve.c.max() - curve.c.min())
        assert abs(span - expected) < 5.0 / math.sqrt(n)


class TestRunBellProtocol:
    def test_report_determinism(self):
        cfg = ProtocolConfig(dop=0.125, n=2000, seed=31, resamples=10)
        r1 = run_bell_protocol(cfg)
        r2 = run_bell_protocol(cfg)
        assert r1.to_json() == r2.to_json()

    def test_explicit_settings(self):
        settings = AngleSettings(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
        rep = run_bell_protocol(
            ProtocolConfig(dop=0.0, n=20_000, seed=32, settings=settings, resamples=0)
        )
        assert rep.settings == settings
        assert rep.chsh == pytest.approx(2 * math.sqrt(2), abs=0.05)

    def test_optimized_run_beats_two(self):
        rep = run_bell_protocol(
            ProtocolConfig(dop=0.125, n=50_000, seed=33, resamples=10)
        )
        assert rep.chsh > 2.0
        assert rep.chsh == pytest.approx(2.817356917396161, abs=0.02)
        assert rep.chsh_err >= 0.0
        assert rep.method == "interferometer"

    @pytest.mark.parametrize("dop", [0.125, 1.0])
    def test_kappa_is_the_measured_calibration(self, dop):
        cfg = ProtocolConfig(dop=dop, n=3000, seed=37, resamples=0)
        rep = run_bell_protocol(cfg)
        source = synthesize_partially_polarized(cfg.dop, cfg.intensity, cfg.n, cfg.seed)
        _, sd = measured_schmidt(source)
        assert (rep.kappa1, rep.kappa2) == (sd.kappa1, sd.kappa2)

    def test_fully_polarized_fallback(self):
        rep = run_bell_protocol(ProtocolConfig(dop=1.0, n=1000, seed=34, resamples=0))
        assert rep.method == "closed-form"
        assert rep.chsh == pytest.approx(2.0, abs=1e-6)
        assert rep.chsh_err == 0.0

    def test_probabilities_in_range(self):
        rep = run_bell_protocol(ProtocolConfig(dop=0.3, n=5000, seed=35, resamples=0))
        for entry in rep.probabilities:
            for name in ("p11", "p12", "p21", "p22"):
                assert 0.0 <= getattr(entry, name) <= 1.0

    def test_report_json_fields(self):
        rep = run_bell_protocol(ProtocolConfig(dop=0.2, n=1000, seed=36, resamples=0))
        payload = json.loads(rep.to_json())
        for key in (
            "dop",
            "kappa1",
            "kappa2",
            "n",
            "seed",
            "noise",
            "settings",
            "chsh",
            "chsh_err",
            "probabilities",
        ):
            assert key in payload
        assert set(payload["settings"]) == {"a", "a_prime", "b", "b_prime"}
        assert len(payload["probabilities"]) == 4
        assert set(payload["noise"]) == {
            "extinction_ratio",
            "detector_noise",
            "phase_jitter",
        }

    def test_resample_floor(self):
        with pytest.raises(DomainError):
            ProtocolConfig(dop=0.1, n=100, seed=0, resamples=5)


def gathered_bootstrap_std(source, correlations, resamples, base):
    """Reference bootstrap: resample r gathers FieldEnsemble(realizations[idx])
    with idx drawn from the index stream base + (715,), and its measurement
    noise streams are keyed by run r + 1."""
    rng = np.random.default_rng(base + (715,))
    values = []
    for r in range(resamples):
        idx = rng.integers(0, source.n, source.n)
        values.append(correlations(FieldEnsemble(source.realizations[idx]), r + 1))
    return np.std(np.asarray(values), axis=0, ddof=1)


def protocol_reference(cfg, rep):
    """Gathered-copy bootstrap errors of a run_bell_protocol report:
    (chsh_err, [c_err per setting])."""
    source = synthesize_partially_polarized(cfg.dop, cfg.intensity, cfg.n, cfg.seed)
    _, sd = measured_schmidt(source)
    pairs = rep.settings.pairs()

    def chsh_and_correlations(e, run):
        c = [measure_correlation(e, sd, a, b, cfg.noise, (cfg.seed, run, i))[0]
             for i, (a, b) in enumerate(pairs)]
        return [c[0] - c[1] + c[2] + c[3], *c]

    errs = gathered_bootstrap_std(source, chsh_and_correlations, cfg.resamples, (cfg.seed,))
    return errs[0], errs[1:]


IDEAL_AND_MOMENT_NOISE = [
    NoiseModel(),
    NoiseModel(extinction_ratio=1e-3),
    NoiseModel(detector_noise=1e-3),
]


class TestResampleCounts:
    """Statistics that read only the second moments are bootstrapped from
    resample counts; they must agree with gathering each resample's fields."""

    @pytest.mark.parametrize("noise", IDEAL_AND_MOMENT_NOISE)
    def test_protocol_errors_match_gathered_copies(self, noise):
        cfg = ProtocolConfig(dop=0.125, n=2000, seed=38, noise=noise, resamples=12)
        rep = run_bell_protocol(cfg)
        chsh_err, c_err = protocol_reference(cfg, rep)
        assert rep.chsh_err == pytest.approx(chsh_err, rel=1e-10, abs=0.0)
        assert [p.c_err for p in rep.probabilities] == pytest.approx(c_err, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "noise", [*IDEAL_AND_MOMENT_NOISE, NoiseModel(phase_jitter=0.1, detector_noise=1e-3)]
    )
    def test_scan_errors_match_gathered_copies(self, noise):
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 39)
        _, sd = measured_schmidt(e)
        # b = 0 crosses polarizer and stripping axes, so the fallback runs too
        b, grid, base = 0.0, np.linspace(0.0, math.pi, 7, endpoint=False), (39, 2)
        curve = scan_correlation(e, sd, b, grid, noise=noise, seed=base, resamples=11)

        def correlations(resampled, run):
            return [measure_correlation(resampled, sd, a, b, noise, base + (run, i))[0]
                    for i, a in enumerate(grid)]

        expected = gathered_bootstrap_std(e, correlations, 11, base)
        # at a = 0, C = 1 in every resample: c_err there is rounding noise
        assert curve.c_err[1:] == pytest.approx(expected[1:], rel=1e-10, abs=0.0)
        assert curve.c_err[0] == pytest.approx(expected[0], abs=1e-14)

    def test_jitter_resamples_gather_fields(self):
        cfg = ProtocolConfig(dop=0.125, n=2000, seed=40,
                             noise=NoiseModel(phase_jitter=0.1), resamples=10)
        rep = run_bell_protocol(cfg)
        chsh_err, c_err = protocol_reference(cfg, rep)
        assert rep.chsh_err == pytest.approx(chsh_err, rel=1e-12, abs=0.0)
        assert [p.c_err for p in rep.probabilities] == pytest.approx(c_err, rel=1e-12, abs=0.0)
        assert run_bell_protocol(cfg) == rep

    def test_jitter_protocol_gathers_no_copy(self, monkeypatch):
        # every resample is read as weights over the source's realizations,
        # so the source is the only ensemble built
        built = []
        post_init = FieldEnsemble.__post_init__
        monkeypatch.setattr(FieldEnsemble, "__post_init__",
                            lambda self: (built.append(self), post_init(self)))
        run_bell_protocol(ProtocolConfig(dop=0.125, n=2000, seed=40,
                                         noise=NoiseModel(phase_jitter=0.1), resamples=10))
        assert len(built) == 1


JITTER_AND_DETECTOR = NoiseModel(phase_jitter=0.1, detector_noise=1e-3)
JITTER_CONFIG = ProtocolConfig(dop=0.125, n=2000, seed=40, noise=JITTER_AND_DETECTOR, resamples=10)


class TestJitterWorkers:
    """One run's jitter readings are split across threads and read in blocks
    of realizations; neither the thread count nor the block width may move a
    result."""

    @staticmethod
    def protocol_and_scan():
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 39)
        _, sd = measured_schmidt(e)
        grid = np.linspace(0.0, math.pi, 7, endpoint=False)
        curve = scan_correlation(e, sd, 0.0, grid, JITTER_AND_DETECTOR, (39, 2), resamples=11)
        columns = (curve.p11, curve.p12, curve.p21, curve.p22, curve.c, curve.c_err)
        return run_bell_protocol(JITTER_CONFIG), np.vstack(columns)

    @pytest.mark.parametrize("block", [ensemble_module._BLOCK, 64])
    def test_reports_equal_for_any_worker_count(self, monkeypatch, block):
        # at width 64, n = 2000 spans 31 full blocks and a 16-row tail
        monkeypatch.setattr(ensemble_module, "_BLOCK", block)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often
        try:
            runs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(interferometer, "_WORKERS", workers)
                runs.append(self.protocol_and_scan())
        finally:
            sys.setswitchinterval(interval)
        (rep, curve), *others = runs
        for other_rep, other_curve in others:
            assert other_rep == rep
            assert np.array_equal(other_curve, curve)
        chsh_err, c_err = protocol_reference(JITTER_CONFIG, rep)
        assert rep.chsh_err == pytest.approx(chsh_err, rel=1e-12, abs=0.0)
        assert [p.c_err for p in rep.probabilities] == pytest.approx(c_err, rel=1e-12, abs=0.0)

    def test_blocked_phase_stream_is_pinned(self):
        n, sigma, seed = 2 * ensemble_module._BLOCK + 17, 0.3, 11
        e = synthesize_partially_polarized(0.4, 1.0, n, 12)
        k = e._phase_moments(np.random.default_rng(seed), sigma, None)
        phi = np.random.default_rng(seed).normal(0.0, sigma, n)
        r = e.realizations
        expected = np.mean(np.exp(-1j * phi)[:, None, None] * r.conj()[:, :, None] * r[:, None, :],
                           axis=0)
        assert np.abs(k - expected).max() <= 1e-13

    def test_worker_error_reaches_caller(self, monkeypatch):
        class ReadingFailed(Exception):
            pass

        ticket, phase_moments = itertools.count(), FieldEnsemble._phase_moments

        def fail_fifth_reading(self, *args):
            if next(ticket) == 4:
                raise ReadingFailed
            return phase_moments(self, *args)

        monkeypatch.setattr(FieldEnsemble, "_phase_moments", fail_fifth_reading)
        monkeypatch.setattr(interferometer, "_WORKERS", 3)
        before, raised = threading.active_count(), []

        def run():
            try:
                run_bell_protocol(JITTER_CONFIG)
            except ReadingFailed as exc:
                raised.append(exc)

        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(raised) == 1
        assert threading.active_count() == before


def test_measure_correlation_consistency():
    e = synthesize_partially_polarized(0.125, 1.0, 5000, 41)
    sd = schmidt(e)
    c, p = measure_correlation(e, sd, 0.3, 0.7)
    assert c == pytest.approx(p[0] - p[1] - p[2] + p[3], abs=1e-15)
    oracle = joint_probability_direct(sd, 0.3, 0.7, 1, 1)
    assert p[0] == pytest.approx(oracle, abs=1e-10)


def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel(extinction_ratio=-0.1)
    with pytest.raises(DomainError):
        NoiseModel(detector_noise=float("nan"))
    assert NoiseModel().is_ideal
    assert not NoiseModel(phase_jitter=0.1).is_ideal


def test_noise_model_rejects_leak_above_one():
    # extinction_ratio is a leaked power fraction
    assert NoiseModel(extinction_ratio=1.0).extinction_ratio == 1.0
    with pytest.raises(DomainError):
        NoiseModel(extinction_ratio=2.0)
