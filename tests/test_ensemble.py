import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wavebell
from wavebell import (
    DegenerateFieldError,
    DomainError,
    FieldEnsemble,
    StokesVector,
    chain_power,
    dop,
    kappa_from_dop,
    polarization_report,
    polarizer_matrix,
    schmidt,
    schmidt_functions,
    stokes,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
    tomography,
    waveplate_matrix,
)
from wavebell.ensemble import _Moments, _draw_partially_polarized, inner


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
        assert np.trace(e.second_moments).real == 0.0
        assert np.trace(constant_ensemble(1.0, 1.0).second_moments).real > 0.0


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_partially_polarized(0.3, 2.0, 500, 99)
        b = synthesize_partially_polarized(0.3, 2.0, 500, 99)
        assert np.array_equal(a.realizations, b.realizations)

    @pytest.mark.parametrize("d", [0.0, 0.125, 0.5])
    def test_draw_stream_is_pinned(self, d):
        # X = (z0 + i z1, z2 + i z3) of one Philox normal draw per realization, whitened by
        # the Cholesky factor R of X+ X / n and coloured by L T, T the Bartlett factor of
        # default_rng(seed): E = X R^-1 (L T)+ sqrt(intensity / n), column by column
        n, intensity, seed = 1001, 1.7, 12
        z = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 4))
        x = np.column_stack([z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]])
        r = np.linalg.cholesky(FieldEnsemble(x).second_moments).conj().T
        rng = np.random.default_rng(seed)
        t11, t22 = math.sqrt(rng.standard_gamma(n)), math.sqrt(rng.standard_gamma(n - 1))
        re, im = rng.standard_normal(2) / math.sqrt(2.0)
        t = np.array([[t11, 0.0], [complex(re, im), t22]])
        lt = np.sqrt([[(1 + d) / 2.0], [(1 - d) / 2.0]]) * t
        m = np.linalg.solve(r, lt.conj().T) * math.sqrt(intensity / n)
        expected = np.column_stack([x[:, 0] * m[0, 0], x[:, 1] * m[1, 1] + x[:, 0] * m[0, 1]])
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

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1e160, 1e-200, 2e100, -1.0, 9e-101,
                                     1.1e100])
    def test_intensity_outside_normal_range(self, bad):
        # outside [1e-100, 1e100] a squared Stokes parameter can leave the normal floats
        for synthesize in (lambda: synthesize_partially_polarized(0.5, bad, 10, 0),
                           lambda: synthesize_schmidt_form(0.8, 0.6, intensity=bad, n=10)):
            with pytest.raises(DomainError, match=r"\[1e-100, 1e100\]"):
                synthesize()

    @pytest.mark.parametrize("edge", [1e-100, 1e100])
    def test_intensity_range_edges_keep_the_dop(self, edge):
        ref = dop(tomography(synthesize_partially_polarized(0.5, 1.0, 4000, 7)))
        at_edge = dop(tomography(synthesize_partially_polarized(0.5, edge, 4000, 7)))
        assert at_edge == pytest.approx(ref, rel=1e-12)

    def test_unpolarized_is_isotropic(self):
        n = 40_000
        e = synthesize_partially_polarized(0.0, 1.0, n, 1)
        j = e.second_moments
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
        assert np.trace(e.second_moments).real == pytest.approx(3.0, rel=0.02)

    def test_schmidt_weights_track_requested_dop(self):
        n = 200_000
        e = synthesize_partially_polarized(0.125, 1.0, n, 4)
        sd = schmidt(e)
        tol = 3.0 / math.sqrt(n)
        assert abs(sd.kappa1 - 0.75) < tol
        assert abs(sd.kappa2 - 0.6614378277661477) < tol

    @pytest.mark.parametrize("intensity", [1e-100, 1.7, 1e100])
    @pytest.mark.parametrize("n", [2, 10, 10**5])
    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0])
    def test_one_seed_one_source(self, d, n, intensity):
        # the realizations carry the J that the moment draw gives at the same (dop, n, seed)
        for seed in (0, 2024):
            j = synthesize_partially_polarized(d, intensity, n, seed).second_moments
            drawn = _draw_partially_polarized(d, n, seed).second_moments * intensity
            assert np.abs(j - drawn).max() <= 1e-14 * np.trace(drawn).real
            assert np.array_equal(_draw_partially_polarized(d, n, seed, intensity).second_moments,
                                  drawn)

    def test_colouring_makes_no_second_n_row_array(self):
        # the 1e5 realizations take 3.2 MB; the colouring adds one 64 KiB column at a time
        synthesize_partially_polarized(0.3, 1.0, 10, 4)
        tracemalloc.start()
        try:
            synthesize_partially_polarized(0.3, 1.0, 10**5, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 10**5 + 256 * 1024, peak


class TestCoherenceStokes:
    def test_constant_x_field(self):
        j = constant_ensemble(1.0, 0.0).second_moments
        assert np.allclose(j, [[1.0, 0.0], [0.0, 0.0]])

    def test_quadratic_scaling(self):
        e = synthesize_partially_polarized(0.4, 1.0, 300, 5)
        j1 = e.second_moments
        j3 = FieldEnsemble(3.0 * e.realizations).second_moments
        assert np.allclose(j3, 9.0 * j1, atol=1e-12)

    def test_hermitian_psd_on_random_ensembles(self):
        for seed in range(5):
            e = synthesize_partially_polarized(0.2 * seed, 1.0, 200, seed)
            j = e.second_moments
            assert np.allclose(j, j.conj().T)
            assert np.linalg.eigvalsh(j).min() >= -1e-12

    @pytest.mark.parametrize("make", [
        lambda: synthesize_partially_polarized(0.3, 1.0, 4096, 5).realizations,
        lambda: synthesize_partially_polarized(0.3, 1e-100, 4096, 6).realizations,
        lambda: synthesize_partially_polarized(0.3, 1e100, 4096, 7).realizations,
        lambda: synthesize_schmidt_form(0.9, math.sqrt(0.19), 2.5, 4096, 8).realizations,
        # constant amplitudes at DOP 0.5 with uniform phases, which are not Gaussian
        lambda: np.sqrt([0.75, 0.25]) * np.exp(2j * np.pi * np.random.default_rng(9).random((4096, 2))),
    ], ids=["gaussian", "intensity-1e-100", "intensity-1e100", "schmidt-form", "constant-amplitude"])
    def test_real_gram_matches_the_conjugate_product(self, make):
        r = make()
        j = FieldEnsemble(r).second_moments
        reference = r.conj().T @ r / r.shape[0]
        # rounding scales with the size of J, so the bound is relative to its largest entry
        assert np.abs(j - reference).max() <= 1e-13 * np.abs(reference).max()
        assert np.array_equal(j, j.conj().T)
        assert np.all(j.diagonal().imag == 0.0)

    @pytest.mark.parametrize("view", [np.asfortranarray, lambda r: r[:, ::-1], lambda r: r[::2]],
                             ids=["fortran", "reversed-columns", "every-other-row"])
    def test_non_contiguous_input_reads_as_its_copy(self, view):
        r = view(synthesize_partially_polarized(0.3, 1.0, 1000, 4).realizations)
        assert not r.flags.c_contiguous
        assert np.array_equal(FieldEnsemble(r).second_moments,
                              FieldEnsemble(r.copy(order="C")).second_moments)

    def test_contiguous_input_is_stored_without_a_copy(self):
        r = synthesize_partially_polarized(0.3, 1.0, 1000, 4).realizations
        assert np.shares_memory(FieldEnsemble(r).realizations, r)

    def test_moment_pass_makes_no_n_row_copy(self):
        # a conjugated copy of 1e5 realizations would be 3.2 MB
        r = synthesize_partially_polarized(0.3, 1.0, 10**5, 4).realizations
        tracemalloc.start()
        try:
            FieldEnsemble(r).second_moments
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_same_bytes_at_one_and_two_blas_threads(self):
        code = ("from wavebell import synthesize_partially_polarized as s; "
                "print(s(0.3, 1.0, 10**6, 4).second_moments.tobytes().hex())")
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(wavebell.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_coherence_validation(self):
        # stokes checks its matrix: 2x2, Hermitian, positive semidefinite
        with pytest.raises(DomainError):
            stokes(np.eye(3))
        with pytest.raises(DomainError):
            stokes(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            stokes(np.array([[-1.0, 0.0], [0.0, 0.0]]))

    def test_stokes_examples(self):
        s = stokes(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 1.0, 0.0, 0.0)
        s = stokes(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 0.0, 1.0, 0.0)
        s = stokes(0.5 * np.eye(2))
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

    def test_at_most_one_inside_the_cone(self):
        # a vector inside the cone's 1e-10 tolerance reads 1, so kappa_from_dop takes it
        for excess in (2.2e-16, 1e-13, 1e-10):
            s = StokesVector(1.0, 0.6 * (1.0 + excess), 0.8 * (1.0 + excess), 0.0)
            assert dop(s) == 1.0
            assert kappa_from_dop(dop(s)) == (1.0, 0.0)
        assert dop(StokesVector(1.0, 0.6, 0.8 * (1.0 - 1e-12), 0.0)) < 1.0

    # the ends of ensemble._TRACE_RANGE: sqrt of the smallest normal float, and half the
    # square root of the largest
    LO, HI = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max) / 2.0

    @pytest.mark.parametrize("s0", [LO, 1e-150, 1.0, 1e150, HI])
    def test_exact_across_the_trace_range(self, s0):
        s = StokesVector(s0, 0.3 * s0, 0.0, 0.0)
        assert dop(s) == pytest.approx(0.3, rel=1e-15)
        assert dop(StokesVector(s0, 0.6 * s0, 0.8 * s0, 0.0)) <= 1.0

    @pytest.mark.parametrize("s0, side", [(LO * (1 - 1e-15), "underflow"), (1e-160, "underflow"),
                                          (HI * (1 + 1e-15), "overflow"), (1e156, "overflow")])
    def test_refused_outside_the_trace_range(self, s0, side):
        # outside the range the squares are subnormal (dop read 0.29987 for 0.3 at 1e-160)
        # or overflow (a bare OverflowError at 1e156)
        with pytest.raises(DomainError, match=f"^second moments {side}: tr J = "):
            dop(StokesVector(s0, 0.3 * s0, 0.0, 0.0))


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

    @pytest.mark.parametrize("d", [1e-10, 1e-13])
    def test_tiebreak_threshold_has_both_sides(self, d):
        # a field in a rotated frame keeps its own basis at DOP 1e-10; below the tie-break's
        # 1e-12 (at DOP 1e-13) its eigenbasis is rounding, and the lab frame is taken
        c, s = math.cos(0.7), math.sin(0.7) * np.exp(0.4j)
        u1, u2 = np.array([c, s]), np.array([-s.conjugate(), c])
        sd = schmidt(synthesize_schmidt_form(*kappa_from_dop(d), n=64, seed=3, u1=u1, u2=u2))
        if d > 1e-12:
            assert abs(np.vdot(u1, sd.u1)) >= 1.0 - 1e-6
            assert abs(np.vdot(u2, sd.u2)) >= 1.0 - 1e-6
        else:
            assert sd.u1.tolist() == [1.0, 0.0] and sd.u2.tolist() == [0.0, 1.0]

    def test_tiebreak_threshold_is_exclusive(self):
        # (lambda1 - lambda2) / tr J is exactly 1e-12 for this J, whose larger eigenvalue is
        # on y: the eigenbasis is kept, so u1 is y and not the lab tie-break's x
        b, a = 0.25002222514533523, 0.2500222251458353
        assert (a - b) / (b + a) == 1e-12
        sd = schmidt(_Moments(np.diag([b, a]).astype(complex), 10))
        assert sd.u1.tolist() == [0.0, 1.0] and sd.u2.tolist() == [1.0, 0.0]

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
        measured_dop = dop(stokes(e.second_moments))
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
        from wavebell import joint_probability_kappa, joint_probability_projected

        e = synthesize_partially_polarized(1.0, 1.0, 500, 3)
        sd = schmidt(e)
        assert sd.kappa2 == 0.0
        f1, f2 = schmidt_functions(e, sd)
        for f, g, want in ((f1, f1, 1.0), (f2, f2, 1.0), (f1, f2, 0.0)):
            assert abs(inner(f, g) - want) <= 1e-12
        for a, b in [(0.0, 0.0), (0.4, -1.2), (2.1, 0.7)]:
            for k in (1, 2):
                for l in (1, 2):
                    assert joint_probability_projected(e, sd, a, b, k, l) == pytest.approx(
                        joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l), abs=1e-12
                    )

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1.001e-6, 1e-6, 3e-7, 1e-8, 0.0])
    def test_fully_polarized_functions_are_orthonormal_wherever_the_light_is(self, eps):
        # all the light on realization 0 but a fraction eps^2: the completing vector must not
        # be built from a residual that cancels to about eps^2, which cost up to 1e-10
        r = np.zeros((8, 2), dtype=complex)
        r[0, 0], r[1, 0] = 1.0, eps
        e = FieldEnsemble(r)
        f1, f2 = schmidt_functions(e, schmidt(e))
        for f, g, want in ((f1, f1, 1.0), (f2, f2, 1.0), (f1, f2, 0.0)):
            assert abs(inner(f, g) - want) <= 1e-15

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

    @pytest.mark.parametrize("intensity", [1e-100, 1e-37, 1.0, 3e41, 1e100])
    def test_six_analyzer_readings_give_the_stokes_vector(self, intensity):
        # noiseless polarimetry from the optics algebra: H, V, D and A polarizers, then H and
        # V behind a quarter-wave plate at pi/4 (R and L), each read with chain_power
        rt2 = math.sqrt(2.0)
        h, v, d, a = (polarizer_matrix(np.array(axis)) for axis in
                      ([1.0, 0.0], [0.0, 1.0], [1 / rt2, 1 / rt2], [1 / rt2, -1 / rt2]))
        qwp = waveplate_matrix("quarter", math.pi / 4.0)
        rng = np.random.default_rng(round(math.log10(intensity)) + 100)
        circular = 0.0
        for seed in range(40):
            u1, u2 = haar_frame(rng)
            kappa2 = (0.0, math.sqrt(0.5), rng.uniform(0.0, math.sqrt(0.5)))[seed % 3]
            e = synthesize_schmidt_form(math.sqrt(1.0 - kappa2**2), kappa2, intensity, 16, seed,
                                        u1, u2)
            i_h, i_v, i_d, i_a, i_r, i_l = (chain_power(m, e.second_moments)
                                            for m in (h, v, d, a, h @ qwp, v @ qwp))
            s = tomography(e)
            off = np.subtract([s.s0, s.s1, s.s2, s.s3],
                              [i_h + i_v, i_h - i_v, i_d - i_a, i_r - i_l])
            assert np.abs(off).max() <= 1e-15 * s.s0, (seed, off / s.s0)
            circular = max(circular, abs(s.s3) / s.s0)
        assert circular > 0.5  # the frames carry circular light, so R and L are exercised

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
        if abs(dop(stokes(e.second_moments)) - 0.125) >= 5.0 / math.sqrt(n):
            failures += 1
    assert failures <= 1


def test_polarization_report_fields():
    e = synthesize_partially_polarized(0.125, 1.0, 5000, 13)
    report = polarization_report(e)
    assert list(report) == ["s0", "s1", "s2", "s3", "dop", "kappa1", "kappa2", "u1", "u2"]
    assert report["kappa1"] == pytest.approx(0.75, abs=0.05)
    assert np.asarray(report["u1"]).shape == (2, 2)


def test_schmidt_is_the_calibration_rule():
    # one rule: the report's weights and basis are schmidt's, its Stokes vector and DOP
    # tomography's; the weights meet kappa_from_dop of that DOP to rounding
    e = synthesize_partially_polarized(0.2, 1.5, 5000, 14)
    s, sd = tomography(e), schmidt(e)
    report = polarization_report(e)
    assert [report[k] for k in ("s0", "s1", "s2", "s3", "dop")] == [s.s0, s.s1, s.s2, s.s3,
                                                                     dop(s)]
    assert (report["kappa1"], report["kappa2"]) == (sd.kappa1, sd.kappa2)
    assert np.array_equal(np.asarray(report["u1"]) @ [1, 1j], sd.u1)
    assert np.array_equal(np.asarray(report["u2"]) @ [1, 1j], sd.u2)
    assert np.allclose([sd.kappa1, sd.kappa2], kappa_from_dop(dop(s)), rtol=1e-14, atol=0.0)


def haar_frame(rng):
    # a Haar-random orthonormal pair (u1, u2): the columns of a random unitary
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q[:, 0], q[:, 1]


@pytest.mark.parametrize("n", [2, 8, 512])
def test_report_of_fully_polarized_fields_in_random_frames(n):
    # rounding can put the tomography DOP of a fully polarized field a few ulps above 1;
    # the report reads DOP 1 and weights (1, 0) to rounding, and raises nothing
    rng = np.random.default_rng(n)
    for seed in range(200):
        u1, u2 = haar_frame(rng)
        report = polarization_report(synthesize_schmidt_form(1.0, 0.0, n=n, seed=seed,
                                                             u1=u1, u2=u2))
        assert 1.0 - 1e-14 <= report["dop"] <= 1.0
        assert report["kappa1"] == pytest.approx(1.0, abs=1e-15)
        assert report["kappa2"] <= 1e-7
        assert abs(np.vdot(np.asarray(report["u1"]) @ [1, 1j], u1)) == pytest.approx(1.0)
