import math

import numpy as np
import pytest

from wavebell import (
    CoherenceMatrix,
    DegenerateFieldError,
    DomainError,
    FieldEnsemble,
    StokesVector,
    coherence_matrix,
    dop,
    intensity,
    kappa_from_dop,
    load_ensemble_csv,
    measured_schmidt,
    polarization_report,
    save_ensemble_csv,
    schmidt,
    schmidt_functions,
    stokes,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
    tomography,
)
from wavebell.ensemble import inner


def constant_ensemble(ex, ey, n=8):
    e = np.empty((n, 2), dtype=complex)
    e[:, 0] = ex
    e[:, 1] = ey
    return FieldEnsemble(e)


class TestFieldEnsemble:
    def test_shape_validation(self):
        with pytest.raises(DomainError):
            FieldEnsemble(np.zeros((5, 3), dtype=complex))
        with pytest.raises(DomainError):
            FieldEnsemble(np.zeros(5, dtype=complex))

    def test_min_realizations(self):
        with pytest.raises(DomainError):
            FieldEnsemble(np.zeros((1, 2), dtype=complex))

    def test_intensity_nonnegative(self):
        e = constant_ensemble(0.0, 0.0)
        assert intensity(e) == 0.0
        assert intensity(constant_ensemble(1.0, 1.0)) > 0.0


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_partially_polarized(0.3, 2.0, 500, 99)
        b = synthesize_partially_polarized(0.3, 2.0, 500, 99)
        assert np.array_equal(a.realizations, b.realizations)

    @pytest.mark.parametrize("d", [0.0, 0.125, 0.5])
    def test_draw_stream_is_pinned(self, d):
        # Ex, Ey are scaled (z0 + i z1), (z2 + i z3) of one Philox normal draw per realization
        n, intensity, seed = 1001, 1.7, 12
        z = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 4))
        sx, sy = math.sqrt(intensity * (1 + d) / 4.0), math.sqrt(intensity * (1 - d) / 4.0)
        expected = np.column_stack([sx * (z[:, 0] + 1j * z[:, 1]), sy * (z[:, 2] + 1j * z[:, 3])])
        e = synthesize_partially_polarized(d, intensity, n, seed)
        assert e.realizations.tobytes() == expected.tobytes()

    def test_seed_changes_draw(self):
        a = synthesize_partially_polarized(0.3, 2.0, 500, 99)
        b = synthesize_partially_polarized(0.3, 2.0, 500, 100)
        assert not np.array_equal(a.realizations, b.realizations)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_dop_domain(self, bad):
        with pytest.raises(DomainError):
            synthesize_partially_polarized(bad, 1.0, 10, 0)

    def test_intensity_and_n_domain(self):
        with pytest.raises(DomainError):
            synthesize_partially_polarized(0.5, 0.0, 10, 0)
        with pytest.raises(DomainError):
            synthesize_partially_polarized(0.5, 1.0, 1, 0)

    def test_unpolarized_is_isotropic(self):
        n = 40_000
        e = synthesize_partially_polarized(0.0, 1.0, n, 1)
        j = coherence_matrix(e).j
        s0 = j[0, 0].real + j[1, 1].real
        assert abs(j[0, 1]) / s0 < 3.0 / math.sqrt(n)
        assert abs(j[0, 0].real - j[1, 1].real) / s0 < 3.0 / math.sqrt(n)

    def test_fully_polarized_limit(self):
        e = synthesize_partially_polarized(1.0, 1.0, 1000, 2)
        assert np.all(e.realizations[:, 1] == 0.0)
        sd = schmidt(e)
        assert sd.kappa2 == 0.0

    def test_mean_intensity(self):
        e = synthesize_partially_polarized(0.5, 3.0, 50_000, 3)
        assert intensity(e) == pytest.approx(3.0, rel=0.02)

    def test_schmidt_weights_track_requested_dop(self):
        n = 200_000
        e = synthesize_partially_polarized(0.125, 1.0, n, 4)
        sd = schmidt(e)
        tol = 3.0 / math.sqrt(n)
        assert abs(sd.kappa1 - 0.75) < tol
        assert abs(sd.kappa2 - 0.6614378277661477) < tol


class TestCoherenceStokes:
    def test_constant_x_field(self):
        j = coherence_matrix(constant_ensemble(1.0, 0.0)).j
        assert np.allclose(j, [[1.0, 0.0], [0.0, 0.0]])

    def test_quadratic_scaling(self):
        e = synthesize_partially_polarized(0.4, 1.0, 300, 5)
        j1 = coherence_matrix(e).j
        j3 = coherence_matrix(FieldEnsemble(3.0 * e.realizations)).j
        assert np.allclose(j3, 9.0 * j1, atol=1e-12)

    def test_hermitian_psd_on_random_ensembles(self):
        for seed in range(5):
            e = synthesize_partially_polarized(0.2 * seed, 1.0, 200, seed)
            j = coherence_matrix(e).j
            assert np.allclose(j, j.conj().T)
            assert np.linalg.eigvalsh(j).min() >= -1e-12

    def test_coherence_validation(self):
        with pytest.raises(DomainError):
            CoherenceMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            CoherenceMatrix(np.array([[-1.0, 0.0], [0.0, 0.0]]))

    def test_stokes_examples(self):
        s = stokes(CoherenceMatrix(np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 1.0, 0.0, 0.0)
        s = stokes(CoherenceMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])))
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 0.0, 1.0, 0.0)
        s = stokes(CoherenceMatrix(0.5 * np.eye(2)))
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 0.0, 0.0, 0.0)

    def test_stokes_vector_validation(self):
        with pytest.raises(DomainError):
            StokesVector(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            StokesVector(-1.0, 0.0, 0.0, 0.0)


class TestDop:
    def test_measured_source_values(self):
        # frozen: sqrt(0.0827^2 + 0.0920^2 + 0.0158^2) = 0.12471138680970555
        s = StokesVector(1.0, -0.0827, -0.0920, -0.0158)
        assert dop(s) == pytest.approx(0.12471138680970555, abs=1e-15)
        assert abs(dop(s) - 0.125) < 0.0005

    def test_limits(self):
        assert dop(StokesVector(1.0, 1.0, 0.0, 0.0)) == 1.0
        assert dop(StokesVector(1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_zero_intensity_rejected(self):
        with pytest.raises(DomainError):
            dop(StokesVector(0.0, 0.0, 0.0, 0.0))


class TestKappaFromDop:
    def test_weights_at_dop_oneeighth(self):
        k1, k2 = kappa_from_dop(0.125)
        assert k1 == pytest.approx(0.75, abs=1e-15)
        assert k2 == pytest.approx(0.6614378277661477, abs=1e-15)
        assert abs(k1 - 0.750) < 0.001 and abs(k2 - 0.661) < 0.001

    def test_limits(self):
        assert kappa_from_dop(0.0) == pytest.approx((2**-0.5, 2**-0.5))
        assert kappa_from_dop(1.0) == (1.0, 0.0)

    def test_normalization(self):
        for d in np.linspace(0.0, 1.0, 11):
            k1, k2 = kappa_from_dop(float(d))
            assert k1**2 + k2**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            kappa_from_dop(bad)


class TestSchmidt:
    def test_fully_x_polarized(self):
        e = constant_ensemble(1.0, 0.0, n=16)
        sd = schmidt(e)
        assert sd.kappa1 == pytest.approx(1.0)
        assert sd.kappa2 == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sd.u1, [1.0, 0.0])

    def test_unpolarized_weights(self):
        n = 20_000
        sd = schmidt(synthesize_partially_polarized(0.0, 1.0, n, 6))
        tol = 3.0 / math.sqrt(n)
        assert abs(sd.kappa1 - 2**-0.5) < tol
        assert abs(sd.kappa2 - 2**-0.5) < tol

    def test_zero_field_degenerate(self):
        with pytest.raises(DegenerateFieldError):
            schmidt(constant_ensemble(0.0, 0.0))

    def test_degenerate_dop_tiebreak(self):
        f = synthesize_schmidt_form(2**-0.5, 2**-0.5, n=256, seed=8)
        sd = schmidt(f)
        assert np.allclose(sd.u1, [1.0, 0.0])
        assert np.allclose(sd.u2, [0.0, 1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_on_random_ensembles(self, seed):
        rng = np.random.default_rng(seed)
        d = float(rng.uniform(0.0, 0.98))
        e = synthesize_partially_polarized(d, float(rng.uniform(0.5, 3.0)), 3000, seed)
        # give some ensembles circular/diagonal content
        if seed % 2:
            from wavebell import apply, waveplate_matrix

            e = apply(waveplate_matrix("quarter", float(rng.uniform(0, math.pi))), e)
        sd = schmidt(e)
        assert sd.kappa1**2 + sd.kappa2**2 == pytest.approx(1.0, abs=1e-12)
        measured_dop = dop(stokes(coherence_matrix(e)))
        assert sd.kappa1**2 - sd.kappa2**2 == pytest.approx(measured_dop, abs=1e-10)
        assert abs(np.vdot(sd.u1, sd.u2)) < 1e-12
        f1, f2 = schmidt_functions(e, sd)
        assert abs(inner(f1, f2)) < 1e-10
        recon = math.sqrt(sd.intensity) * (
            sd.kappa1 * np.outer(f1, sd.u1) + sd.kappa2 * np.outer(f2, sd.u2)
        )
        assert np.abs(recon - e.realizations).max() < 1e-10

    def test_record_does_not_grow_with_n(self):
        e = synthesize_partially_polarized(0.3, 1.0, 4000, 2)
        sd = schmidt(e)
        arrays = [v for v in vars(sd).values() if isinstance(v, np.ndarray)]
        assert arrays and all(e.n not in v.shape for v in arrays)

    def test_fully_polarized_functions_complete_the_basis(self):
        from wavebell import joint_probability_direct, joint_probability_projected
        from wavebell.optics import FunctionBasis

        e = synthesize_partially_polarized(1.0, 1.0, 500, 3)
        sd = schmidt(e)
        assert sd.kappa2 == 0.0
        FunctionBasis(*schmidt_functions(e, sd))
        for a, b in [(0.0, 0.0), (0.4, -1.2), (2.1, 0.7)]:
            for k in (1, 2):
                for l in (1, 2):
                    assert joint_probability_projected(e, sd, a, b, k, l) == pytest.approx(
                        joint_probability_direct(sd, a, b, k, l), abs=1e-12
                    )

    def test_schmidt_form_synthesis_exact(self):
        k1, k2 = kappa_from_dop(0.37)
        f = synthesize_schmidt_form(k1, k2, intensity=2.5, n=512, seed=11)
        sd = schmidt(f)
        assert sd.kappa1 == pytest.approx(k1, abs=1e-12)
        assert sd.kappa2 == pytest.approx(k2, abs=1e-12)
        assert sd.intensity == pytest.approx(2.5, abs=1e-12)


class TestTomography:
    def test_x_polarized(self):
        s = tomography(constant_ensemble(2.0, 0.0))
        assert s.s0 == pytest.approx(4.0, abs=1e-12)
        assert s.s1 == pytest.approx(4.0, abs=1e-12)
        assert s.s2 == pytest.approx(0.0, abs=1e-12)
        assert s.s3 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_moment_computation(self, seed):
        from wavebell import apply, waveplate_matrix

        e = synthesize_partially_polarized(0.6, 1.3, 2000, seed)
        e = apply(waveplate_matrix("quarter", 0.3 + 0.2 * seed), e)  # inject S3 content
        direct = stokes(coherence_matrix(e))
        operational = tomography(e)
        for name in ("s0", "s1", "s2", "s3"):
            assert getattr(operational, name) == pytest.approx(
                getattr(direct, name), abs=1e-12
            )

    def test_dop_estimate_at_oneeighth(self):
        n = 100_000
        e = synthesize_partially_polarized(0.125, 1.0, n, 12)
        assert abs(dop(tomography(e)) - 0.125) < 3.0 / math.sqrt(n)


def test_statistical_convergence_over_seeds():
    # sampled DOP within 5/sqrt(n) of the request for >= 99% of seeds
    n = 10_000
    failures = 0
    for seed in range(100):
        e = synthesize_partially_polarized(0.125, 1.0, n, seed)
        if abs(dop(stokes(coherence_matrix(e))) - 0.125) >= 5.0 / math.sqrt(n):
            failures += 1
    assert failures <= 1


def test_csv_round_trip(tmp_path):
    e = synthesize_partially_polarized(0.3, 1.0, 64, 21)
    path = tmp_path / "ensemble.csv"
    save_ensemble_csv(e, path)
    header = path.read_text().splitlines()[0]
    assert header == "index,re_Ex,im_Ex,re_Ey,im_Ey"
    back = load_ensemble_csv(path)
    assert np.array_equal(back.realizations, e.realizations)


def test_polarization_report_fields():
    e = synthesize_partially_polarized(0.125, 1.0, 5000, 13)
    report = polarization_report(e)
    assert list(report) == ["s0", "s1", "s2", "s3", "dop", "kappa1", "kappa2", "u1", "u2"]
    assert report["kappa1"] == pytest.approx(0.75, abs=0.05)
    assert np.asarray(report["u1"]).shape == (2, 2)


def test_measured_schmidt_is_the_calibration_rule():
    # weights from the tomography DOP, basis from the sample eigenvectors
    e = synthesize_partially_polarized(0.2, 1.5, 5000, 14)
    s, sd = measured_schmidt(e)
    assert s == tomography(e)
    assert (sd.kappa1, sd.kappa2) == kappa_from_dop(dop(tomography(e)))
    eig = schmidt(e)
    assert np.array_equal(sd.u1, eig.u1) and np.array_equal(sd.u2, eig.u2)
    assert sd.intensity == eig.intensity
    report = polarization_report(e)
    assert (report["kappa1"], report["kappa2"]) == (sd.kappa1, sd.kappa2)
    assert report["dop"] == dop(s)
