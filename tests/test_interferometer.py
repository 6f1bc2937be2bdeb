import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis import settings as hypothesis_settings

from wavebell import (
    AngleSettings,
    DomainError,
    ExtractionError,
    FieldEnsemble,
    NoiseModel,
    ProtocolConfig,
    SchmidtDecomposition,
    StrippedBeamError,
    WavebellError,
    apply,
    beamsplitter_combine,
    beamsplitter_split,
    chsh_sum,
    correlation_sum,
    joint_probability_kappa,
    joint_probability_projected,
    kappa_from_dop,
    measure_intensities,
    max_chsh,
    probabilities_from_triples,
    run_bell_protocol,
    scan_correlation,
    schmidt,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
    tomography,
)
from wavebell import dop as degree_of_polarization
from wavebell import cli, ensemble, interferometer
from wavebell.optics import (
    LabBasis,
    chain_power,
    polarizer_axis,
    polarizer_matrix,
    stripping_angle,
    stripping_angle_orthogonal,
)

XY = LabBasis(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def basis_of(sd):
    return LabBasis(sd.u1, sd.u2)


def one_point(e, sd, a, b, k, l, noise=NoiseModel(), seed=0):
    """Outcome (k, l) of the one-point scan at (a, b)."""
    return float(getattr(scan_correlation(e, sd, b, [a], noise, seed), f"p{k}{l}")[0])


def mean_power(e):
    """Ensemble-mean power tr J."""
    return float(np.trace(e.second_moments).real)


def feature_rows(e):
    """Rows q_n = (|Ex|^2, |Ey|^2, Re Ex* Ey, Im Ex* Ey), one per realization."""
    x, y = e.realizations.T
    xy = x.conjugate() * y
    return np.column_stack([x.real**2 + x.imag**2, y.real**2 + y.imag**2, xy.real, xy.imag])


# Each feature coordinate as a combination of the entries m_pq of m = conj(E) E^T.
FEATURE_TERMS = [{(0, 0): 1.0}, {(1, 1): 1.0}, {(0, 1): 0.5, (1, 0): 0.5},
                 {(0, 1): -0.5j, (1, 0): 0.5j}]


def isserlis_gram(j):
    """E[q q^T] of the feature row q of one circular-Gaussian realization of
    second moments J, element by element: E[m_pq m_rs] = J_pq J_rs + J_ps J_rq."""
    g = np.zeros((4, 4), dtype=complex)
    for a, b in np.ndindex(4, 4):
        for (p, q), x in FEATURE_TERMS[a].items():
            for (r, s), y in FEATURE_TERMS[b].items():
                g[a, b] += x * y * (j[p, q] * j[r, s] + j[p, s] * j[r, q])
    assert np.abs(g.imag).max() <= 1e-15 * np.abs(g).max()
    return g.real


def principal_root(h):
    """The symmetric square root of a Hermitian PSD matrix, by SVD."""
    u, w, vt = np.linalg.svd(h)
    return (u * np.sqrt(w)) @ vt


def jitter_variances(sigma):
    """Var(cos phi) and E[sin^2 phi] for phi ~ N(0, sigma^2)."""
    return ((1.0 + math.exp(-2.0 * sigma**2)) / 2.0 - math.exp(-sigma**2),
            (1.0 - math.exp(-2.0 * sigma**2)) / 2.0)


def moments_matrix(v):
    """2x2 matrices of feature-coordinate vectors (xx, yy, re, im), shape (..., 4)."""
    xx, yy, re, im = np.moveaxis(np.asarray(v), -1, 0)
    return np.stack([np.stack([xx, re + 1j * im], -1), np.stack([re - 1j * im, yy], -1)], -2)


def per_realization_k(e, normals, sigma):
    """K of readings as the per-realization phase pass drew them: reading i
    takes phi = sigma * normals[i], its stream's normal(0, sigma, n), and
    K = (1/n) sum_n exp(-i phi_n) conj(Ep_n) Eq_n.  Shape (readings, 2, 2)."""
    phi, q = sigma * normals, feature_rows(e)
    return moments_matrix((np.cos(phi) @ q - 1j * (np.sin(phi) @ q)) / e.n)


def reference_k(j, n, sigma, z):
    """One jitter reading's K from its normals z, shape (2, 4): the mean
    exp(-sigma^2/2) J plus (sqrt(Var cos phi) z[0] - i sqrt(E sin^2 phi) z[1])
    (G/n^2)^(1/2), in feature coordinates, with G/n the Isserlis E[q q^T] of J."""
    var_cos, sin2 = jitter_variances(sigma)
    draw = (math.sqrt(var_cos) * z[0] - 1j * math.sqrt(sin2) * z[1]) @ principal_root(
        isserlis_gram(j) / n)
    return math.exp(-sigma**2 / 2.0) * j + moments_matrix(draw)


def bartlett_factors(stream, n, resamples):
    """Bartlett factors T as drawn from ``default_rng(stream)``: |T_11|^2 ~
    Gamma(n), then |T_22|^2 ~ Gamma(n - 1), then T_21 from the two rows of a
    standard_normal((2, resamples)), each part with variance 1/2.  The
    bootstrap resamples draw theirs from base + (715,), a protocol's source
    its one factor from its seed."""
    rng = np.random.default_rng(stream)
    t11 = np.sqrt(rng.standard_gamma(n, resamples))
    t22 = np.sqrt(rng.standard_gamma(n - 1, resamples))
    re, im = rng.standard_normal((2, resamples))
    h = math.sqrt(2.0)
    return np.array([[[a, 0.0], [complex(x / h, y / h), b]]
                     for a, b, x, y in zip(t11, t22, re, im)])


class TestMeasureIntensities:
    def test_test_arm_semantics(self):
        e = synthesize_partially_polarized(0.3, 1.4, 2000, 1)
        sd = schmidt(e)
        _, i_test, _ = measure_intensities(e, 0.5, 0.9, basis=basis_of(sd))
        half, _ = beamsplitter_split(e.realizations)
        pol = polarizer_matrix(polarizer_axis(basis_of(sd), 0.5))
        expected = mean_power(apply(pol, FieldEnsemble(half)))
        assert i_test == pytest.approx(expected, abs=1e-12)

    def test_dark_input(self):
        e = FieldEnsemble(np.zeros((8, 2), dtype=complex))
        assert measure_intensities(e, 0.3, 0.7, basis=XY) == (0.0, 0.0, 0.0)

    def test_interference_bound(self):
        for seed in range(4):
            e = synthesize_partially_polarized(0.4, 1.0, 1000, seed)
            sd = schmidt(e)
            i_total, i_test, i_aux = measure_intensities(e, 0.2 * seed, 0.9, basis=basis_of(sd))
            bound = i_test + i_aux + 2 * math.sqrt(i_test * i_aux)
            assert i_total <= bound + 1e-12

    def test_matches_element_by_element_reference(self):
        e = synthesize_partially_polarized(0.5, 2.0, 1500, 3)
        sd = schmidt(e)
        basis = basis_of(sd)
        a, s, eps = 0.4, 1.1, 0.03
        noise = NoiseModel(extinction_ratio=eps)
        i_total, i_test, i_aux = measure_intensities(e, a, s, noise=noise, basis=basis)
        pol_a, pol_s = (polarizer_matrix(polarizer_axis(basis, x), eps) for x in (a, s))
        test, aux = (FieldEnsemble(x) for x in beamsplitter_split(e.realizations))
        test_a = apply(pol_a, test)
        aux_sa = apply(pol_a, apply(pol_s, aux))
        out = FieldEnsemble(beamsplitter_combine(aux_sa.realizations, test_a.realizations))
        assert i_total == pytest.approx(mean_power(out), abs=1e-12)
        assert i_test == pytest.approx(mean_power(test_a), abs=1e-12)
        assert i_aux == pytest.approx(mean_power(aux_sa), abs=1e-12)

    def test_jitter_path_matches_reference(self):
        e = synthesize_partially_polarized(0.2, 1.0, 800, 4)
        sd = schmidt(e)
        basis = basis_of(sd)
        sigma, seed = 0.4, 17
        i_total, _, _ = measure_intensities(e, 0.3, 0.8, NoiseModel(phase_jitter=sigma), seed,
                                            basis=basis)
        pol_a, pol_s = (polarizer_matrix(polarizer_axis(basis, x)) for x in (0.3, 0.8))

        def outputs(fields):
            # each arm's share of the recombiner output, per input field
            test, aux = (FieldEnsemble(x) for x in beamsplitter_split(fields))
            test_a, aux_sa = apply(pol_a, test), apply(pol_a, apply(pol_s, aux))
            zero = np.zeros((len(fields), 2))
            return (beamsplitter_combine(aux_sa.realizations, zero),
                    beamsplitter_combine(zero, test_a.realizations))

        aux_out, test_out = outputs(e.realizations)
        arms = mean_power(FieldEnsemble(aux_out)) + mean_power(FieldEnsemble(test_out))
        # the cross term weights conj(Ep) Eq by K_pq: read each arm at unit input along x, y
        aux_unit, test_unit = outputs(np.eye(2, dtype=complex))
        k = reference_k(e.second_moments, e.n, sigma,
                        np.random.default_rng(seed).standard_normal((2, 4)))
        cross = sum(k[p, q] * np.vdot(aux_unit[p], test_unit[q]) for p in (0, 1) for q in (0, 1))
        assert i_total == pytest.approx(arms + 2.0 * cross.real, abs=1e-12)

    def test_jitter_washout(self):
        n = 30_000
        e = synthesize_partially_polarized(0.125, 1.0, n, 5)
        sd = schmidt(e)
        i_total, i_test, i_aux = measure_intensities(
            e, 0.2, 0.2, NoiseModel(phase_jitter=40.0), seed=6, basis=basis_of(sd)
        )
        incoherent = (i_test + i_aux) / 2.0
        assert abs(i_total - incoherent) < 5.0 / math.sqrt(n) * (i_test + i_aux)

    def test_detector_noise_deterministic(self):
        e = synthesize_partially_polarized(0.125, 1.0, 500, 7)
        sd = schmidt(e)
        noise = NoiseModel(detector_noise=0.01)
        t1 = measure_intensities(e, 0.1, 0.5, noise, seed=9, basis=basis_of(sd))
        t2 = measure_intensities(e, 0.1, 0.5, noise, seed=9, basis=basis_of(sd))
        t3 = measure_intensities(e, 0.1, 0.5, noise, seed=10, basis=basis_of(sd))
        assert t1 == t2
        assert t1 != t3


def from_one_triple(triple, beam=1.0):
    """Probabilities of four outcomes that all read ``triple``."""
    return probabilities_from_triples(np.tile(triple, (4, 1)), beam)


class TestExtractProbability:
    def test_zero_when_test_arm_dark(self):
        assert from_one_triple((0.4, 0.0, 0.8)).tolist() == [0.0] * 4

    def test_extinguished_aux(self):
        # both outcomes of k = 1 stripped: neither has a partner to recover from
        triples = [(1.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.4, 0.0, 0.8), (0.4, 0.0, 0.8)]
        with pytest.raises(StrippedBeamError, match="^auxiliary beam extinguished; intensity "
                                                    "extraction undefined$"):
            probabilities_from_triples(triples, 1.0)

    def test_inconsistent_triple(self):
        with pytest.raises(ExtractionError, match="exceeds 1 beyond tolerance"):
            from_one_triple((2.0, 0.5, 0.5), 0.5)

    def test_clamps_float_noise(self):
        cross = 2.0 * math.sqrt(1.0 + 2e-7)
        assert from_one_triple(((cross + 1.0) / 2.0, 0.0, 1.0)).tolist() == [1.0] * 4

    def test_bound_is_inclusive(self):
        # 2 I_total - I_aux - I_test = 1 and I_aux chosen so that the extraction reads exactly
        # 1 + 1e-6, the bound: clamped to 1, not refused
        triple = (0.624999875000125, 0.0, 0.24999975000025002)
        assert 1.0 / (4.0 * triple[2]) == 1.0 + 1e-6
        assert from_one_triple(triple).tolist() == [1.0] * 4

    def test_stripped_test_is_inclusive(self):
        # an auxiliary reading of exactly 1e-15 of the beam is stripped: the outcome is
        # recovered from its partner, P_11 = I_test / I - P_12, not read as 2.5e-16
        lab = (1.2, 1.0, 0.5)  # reads 0.405
        p = probabilities_from_triples([(0.25, 0.5, 1e-15), lab, lab, lab], 1.0)
        assert p[0] == pytest.approx(0.5 - 0.405, abs=1e-15)

    def test_source_intensity_domain(self):
        with pytest.raises(DomainError, match="^source intensity must be positive$"):
            from_one_triple((1.0, 1.0, 1.0), 0.0)
        # neither a NaN probability nor a StrippedBeamError
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="must be finite and >= 0"):
                from_one_triple((0.4, 0.2, 0.8), bad)

    def test_negative_intensities_rejected(self):
        # a triple read in a lab is checked before the formula sees it
        for triple in [(1.0, -0.1, 1.0), (math.inf, 1.0, 1.0), (1.0, 1.0, math.nan)]:
            with pytest.raises(DomainError, match="must be finite and >= 0"):
                from_one_triple(triple)


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
        s = stripping_angle(sd.kappa1, sd.kappa2, b)
        i_total, i_test, i_aux = measure_intensities(field, a, s, basis=basis_of(sd))
        cross = 2.0 * i_total - i_aux - i_test
        amp11 = k1 * math.cos(a) * math.cos(b) + k2 * math.sin(a) * math.sin(b)
        lab = math.sqrt(k1**2 * math.cos(a) ** 2 + k2**2 * math.sin(a) ** 2)
        c11 = amp11 / lab if lab > 0 else 0.0
        assert abs(cross) == pytest.approx(
            2.0 * math.sqrt(i_aux * i_test) * abs(c11), abs=1e-12
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
        oracle = joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
        measured = one_point(field, sd, a, b, k, l)
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
        measured = one_point(e, sd, a, b, k, l)
        projected = joint_probability_projected(e, sd, a, b, k, l)
        empirical_oracle = joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
        k1, k2 = kappa_from_dop(d)
        requested_oracle = joint_probability_kappa(k1, k2, a, b, k, l)
        assert abs(measured - empirical_oracle) < 1e-10
        assert abs(projected - empirical_oracle) < 1e-10
        assert abs(measured - requested_oracle) < 5.0 / math.sqrt(n)

    def test_measured_completeness(self):
        e = synthesize_partially_polarized(0.125, 1.0, 10_000, 5)
        sd = schmidt(e)
        curve = scan_correlation(e, sd, 0.81, [0.37])
        total = float(curve.p11[0] + curve.p12[0] + curve.p21[0] + curve.p22[0])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_crossed_polarizer_recovery(self):
        # polarizer a exactly crossed with the stripping polarizer: the aux
        # beam dies, and the value must come back via the complementary
        # channel; pick a case where the recovered probability is nonzero
        k1, k2 = kappa_from_dop(0.62)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=77)
        sd = schmidt(field)
        b = 0.6
        a = stripping_angle(sd.kappa1, sd.kappa2, b) - math.pi / 2.0
        oracle = joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, 1, 1)
        assert oracle > 0.05
        measured = one_point(field, sd, a, b, 1, 1)
        assert measured == pytest.approx(oracle, abs=1e-12)

    @staticmethod
    def crossed_recovery(noise):
        # A crossed point reads two real shutter sequences: its own, whose test
        # arm gives the marginal, and its partner outcome's, whose extraction
        # gives P_kl'.  Returns the crossed triple, the recovered value and
        # i_test / I - P_12 from the one-point scan at the same seed.
        k1, k2 = kappa_from_dop(0.62)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=77)
        sd = schmidt(field)
        b, seed = 0.6, (5, 1)
        a = stripping_angle(sd.kappa1, sd.kappa2, b) - math.pi / 2.0
        # outcome (1, 1) is the first reading of run 0, whose stream is seed + (0, 716):
        # the first of its K normals, then the first of its detector offsets
        crossed = measure_intensities(field, a, stripping_angle(sd.kappa1, sd.kappa2, b),
                                      noise, seed + (0, 716), basis=basis_of(sd))
        beam = mean_power(field) / 2.0
        expected = crossed[1] / beam - one_point(field, sd, a, b, 1, 2, noise, seed)
        assert 0.0 < expected < 1.0
        return crossed, one_point(field, sd, a, b, 1, 1, noise, seed), expected

    def test_crossed_polarizer_recovery_under_detector_noise(self):
        crossed, measured, expected = self.crossed_recovery(NoiseModel(detector_noise=1e-3))
        assert crossed[2] == 0.0  # the aux reading's draw is negative and clamps
        assert measured == expected

    def test_crossed_polarizer_recovery_under_jitter(self):
        crossed, measured, expected = self.crossed_recovery(NoiseModel(phase_jitter=0.3))
        assert crossed[2] <= 1e-15  # no light reaches the aux arm, whatever K draws
        assert measured == expected

    def test_pair_with_both_outcomes_stripped_reads_the_closed_form(self):
        # near full polarization (kappa2 ~ 7e-6) the kernel read one point of the default
        # 90-point grid at b = 0.3 with both stripping angles below the crossed test
        # (StrippedBeamError); below the kappa2 floor the scan reads the closed form
        source = synthesize_partially_polarized(1.0 - 1e-10, 1.0, 100_000, 0)
        sd = schmidt(source)
        assert sd.kappa2 < interferometer._KAPPA2_FLOOR
        grid = np.arange(0.0, math.pi - 1e-12, math.pi / 90.0)
        assert len(grid) == 90
        curve = scan_correlation(source, sd, 0.3, grid, resamples=10)
        assert curve.method == "closed-form"
        closed = joint_probability_kappa(sd.kappa1, sd.kappa2, grid[:, None], 0.3,
                                         *np.array(interferometer._KL).T)
        assert np.array_equal(np.stack([curve.p11, curve.p12, curve.p21, curve.p22], -1), closed)
        assert np.array_equal(curve.c_err, np.zeros(90))

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(detector_noise=1e-3)],
                             ids=["ideal", "detector"])
    def test_dark_source_is_named_before_the_crossed_test(self, noise):
        # every auxiliary reading of a dark source is stripped, partners included
        dark = FieldEnsemble(np.zeros((10, 2), dtype=complex))
        k1, k2 = kappa_from_dop(0.3)
        sd = SchmidtDecomposition(k1, k2, np.array([1, 0j]), np.array([0, 1 + 0j]),
                                  intensity=1.0)
        with pytest.raises(DomainError, match="^source intensity must be positive$"):
            scan_correlation(dark, sd, 0.3, [0.1, 0.2], noise)

    def test_crossed_polarizer_recovery_at_quarter_turn(self):
        # b = pi/2 puts the stripping polarizer at pi/2, crossed with a = 0
        e = synthesize_partially_polarized(0.125, 1.0, 5000, 78)
        sd = schmidt(e)
        measured = one_point(e, sd, 0.0, math.pi / 2.0, 1, 1)
        assert measured == pytest.approx(
            joint_probability_kappa(sd.kappa1, sd.kappa2, 0.0, math.pi / 2.0, 1, 1), abs=1e-10
        )

    def test_aligned_angles_give_kappa1_squared(self):
        # at a = b = 0 (s = 0) the joint probability is kappa1^2 = 0.5625
        k1, k2 = kappa_from_dop(0.125)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=79)
        sd = schmidt(field)
        measured = one_point(field, sd, 0.0, 0.0, 1, 1)
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


def population_probabilities(dop, sigma, a, b):
    """The kernel at the population moments of a source of degree of
    polarization ``dop``, in its Schmidt basis, under phase jitter ``sigma``:
    J = diag(1 + dop, 1 - dop) / 2 and K = exp(-sigma^2 / 2) J, with no
    detector noise and no extinction.  Returns p11 .. p22, shape (P, 4), at
    the P pairs ``a, b``."""
    k1, k2 = kappa_from_dop(dop)
    sd = SchmidtDecomposition(k1, k2, np.array([1, 0j]), np.array([0, 1 + 0j]), intensity=1.0)
    j = np.diag([1.0 + dop, 1.0 - dop]).astype(complex)[None] / 2.0
    m = 4 * len(a)
    k_pop = np.broadcast_to(math.exp(-sigma**2 / 2.0) * j[:, None], (1, m, 2, 2))
    stacks = (j, k_pop, np.zeros((1, m, 3)))
    return interferometer._probabilities(stacks, sd, a, b, 0.0)[0]


class TestNoiseOracle:
    """Under phase jitter sigma the interference term scales by
    E[exp(-i phi)] = exp(-sigma^2 / 2), so every extracted probability, and
    with them the CHSH value, scales by exp(-sigma^2)."""

    @hypothesis_settings(max_examples=300, deadline=None)
    @given(
        dop=st.floats(0.0, 0.99),
        sigma=st.floats(0.0, 2.0),
        a=st.floats(-math.pi, math.pi),
        b=st.floats(-math.pi, math.pi),
        k=st.sampled_from([1, 2]),
        l=st.sampled_from([1, 2]),
    )
    def test_population_moments_give_the_scaled_closed_form(self, dop, sigma, a, b, k, l):
        k1, k2 = kappa_from_dop(dop)
        pol = a if k == 1 else a + math.pi / 2.0
        # neither stripping polarizer sits crossed with the test polarizer
        assume(all(math.cos(pol - f(k1, k2, b)) ** 2 > 1e-4
                   for f in (stripping_angle, stripping_angle_orthogonal)))
        p = population_probabilities(dop, sigma, [a], [b])[0, interferometer._KL.index((k, l))]
        expected = math.exp(-sigma**2) * joint_probability_kappa(k1, k2, a, b, k, l)
        assert abs(p - expected) <= 1e-12

    # max |p - closed form| over the four outcomes of the pairs whose test polarizer sits
    # delta (either side) from crossed with the stripping polarizer of l, at population
    # moments and b = 0.3, as measured before the readings became real forms (ROADMAP item 9)
    CROSSED_GAPS = {
        (0.3, 1): (4.8e-11, 3.6e-12, 2.1e-13, 4.0e-15),
        (0.3, 2): (7.2e-11, 4.6e-12, 8.4e-13, 3.7e-15),
        (0.9, 1): (4.6e-10, 6.3e-11, 3.9e-12, 5.2e-14),
        (0.9, 2): (1.1e-15, 5.9e-11, 3.8e-12, 6.1e-14),
    }

    @pytest.mark.parametrize("dop, l", CROSSED_GAPS)
    def test_near_crossed_gaps_grow_at_most_twofold(self, dop, l):
        k1, k2 = kappa_from_dop(dop)
        sd = SchmidtDecomposition(k1, k2, np.array([1, 0j]), np.array([0, 1 + 0j]), intensity=1.0)
        s = (stripping_angle, stripping_angle_orthogonal)[l - 1](k1, k2, 0.3)
        j = np.diag([1.0 + dop, 1.0 - dop]).astype(complex) / 2.0
        stacks = interferometer._moment_stacks(j, 10**6, (), NoiseModel(), [(0,)], 8)
        for delta, before in zip((1e-7, 1e-6, 1e-5, 1e-3), self.CROSSED_GAPS[dop, l]):
            a = s + math.pi / 2.0 + np.array([delta, -delta])
            p = interferometer._probabilities(stacks, sd, a, np.full(2, 0.3), 0.0)[0]
            closed = joint_probability_kappa(k1, k2, a[:, None], 0.3,
                                             *np.array(interferometer._KL).T)
            assert np.abs(p - closed).max() <= 2.0 * before, delta

    @pytest.mark.parametrize("dop", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("n", [2000, 20_000])
    def test_sampled_runs_meet_the_oracle(self, n, sigma, dop):
        # the optimized settings read no stripped point, so every p scales by exp(-sigma^2)
        for seed in range(10):
            rep = run_bell_protocol(ProtocolConfig(dop=dop, n=n, seed=seed, resamples=0,
                                                   noise=NoiseModel(phase_jitter=sigma)))
            oracle = math.exp(-sigma**2) * 2.0 * math.sqrt(2.0 - rep.dop**2)
            assert abs(rep.chsh - oracle) <= 5.0 / math.sqrt(n)


class TestBootstrap:
    def test_inverse_sqrt_scaling(self):
        # the protocol's resampled chsh spread falls as n^(-1/2)
        sizes = [2000, 20_000, 200_000]
        errs = [run_bell_protocol(ProtocolConfig(dop=0.5, n=n, seed=9, resamples=100)).chsh_err
                for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.1

    def test_deterministic(self):
        # bootstrap normals and noise draws both follow the seed
        e = synthesize_partially_polarized(0.2, 1.0, 2000, 11)
        sd = schmidt(e)
        curves = [scan_correlation(e, sd, 0.3, [0.2, 0.9], JITTER_AND_DETECTOR, seed, 12)
                  for seed in (4, 4, 5)]
        assert np.array_equal(curves[0].c_err, curves[1].c_err)
        assert np.array_equal(curves[0].c, curves[1].c)
        assert not np.array_equal(curves[0].c_err, curves[2].c_err)

    @pytest.mark.xfail(strict=True, raises=ExtractionError,
                       reason="ROADMAP item 3: noisy extraction bound")
    def test_noisy_resample_extracts(self):
        # test_deterministic's scan with its source at seed 12, read at seed 0: under
        # detector offsets resample 8 extracts p = 1.991, past the bound of 1 + 1e-6 for
        # noiseless readings
        e = synthesize_partially_polarized(0.2, 1.0, 2000, 12)
        curve = scan_correlation(e, schmidt(e), 0.3, [0.2, 0.9], JITTER_AND_DETECTOR, 0, 12)
        assert np.all(np.isfinite(curve.c_err))

    def test_small_samples_raise_nothing(self):
        # a Wishart J* is PSD at every n >= 2, so no resample of any source
        # raises
        failures = []
        for dop in (0.0, 0.5, 0.95):
            for n in (2, 3, 5, 10, 20):
                for seed in range(200):
                    try:
                        run_bell_protocol(ProtocolConfig(dop=dop, n=n, seed=seed, resamples=16))
                    except WavebellError as exc:
                        failures.append((dop, n, seed, exc))
        assert failures == []

    @pytest.mark.parametrize("dop", [
        # CHSH = 2 sqrt(2 - DOP^2) is flat at DOP 0 and the estimated DOP^2 is
        # non-central there, so a bootstrap holding kappa fixed overstates the
        # spread, 2x to 2.5x over 120 seeds: the boundary case of Andrews (2000)
        pytest.param(0.0, marks=pytest.mark.xfail(strict=True, reason="boundary: ratio 2.50")),
        0.125, 0.5, 0.9,
    ])
    def test_error_bars_are_calibrated(self, dop):
        # mean chsh_err over the spread of chsh across 120 seeds
        reports = [run_bell_protocol(ProtocolConfig(dop=dop, n=10_000, seed=seed, resamples=32))
                   for seed in range(120)]
        chsh = np.array([rep.chsh for rep in reports])
        ratio = np.mean([rep.chsh_err for rep in reports]) / chsh.std(ddof=1)
        assert 0.75 <= ratio <= 1.33, ratio


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

    def test_resample_errors_attached(self):
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 13)
        sd = schmidt(e)
        grid = np.array([0.0, 0.5, 1.0])
        curve = scan_correlation(e, sd, 0.2, grid, resamples=12)
        assert curve.c_err.shape == grid.shape
        assert np.all(curve.c_err >= 0.0)
        assert np.all(np.abs(curve.c) <= 1.0 + 3.0 * curve.c_err + 1e-9)

    def test_csv_output(self, tmp_path):
        # the CLI writes the curve CSV: one row per grid point, the curve's values to 12 digits
        assert cli.main(["scan", "--dop", "0.125", "--n", "1000", "--seed", "14", "--b-list", "0.4",
                         "--a-start", "0.1", "--a-stop", "0.2", "--a-step", "0.5",
                         "--resamples", "0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "curve_00.csv").read_text().splitlines()
        assert lines[0] == "a_rad,b_rad,p11,p12,p21,p22,c,c_err"
        assert len(lines) == 2
        row = [float(v) for v in lines[1].split(",")]
        e = synthesize_partially_polarized(0.125, 1.0, 1000, 14)
        curve = scan_correlation(e, schmidt(e), 0.4, [0.1], seed=(14, 0))
        want = [0.1, 0.4] + [float(getattr(curve, k)[0]) for k in ("p11", "p12", "p21", "p22", "c")]
        assert row[:7] == pytest.approx(want, rel=1e-11, abs=1e-12)
        assert row[7] == 0.0

    @pytest.mark.parametrize("resamples", [5, -1])
    def test_resample_floor(self, resamples):
        e = synthesize_partially_polarized(0.125, 1.0, 100, 15)
        with pytest.raises(DomainError):
            scan_correlation(e, schmidt(e), 0.0, np.array([0.1]), resamples=resamples)

    def test_resample_ceiling(self):
        # one rule for scan_correlation and ProtocolConfig: at most 10**5 resamples
        e = synthesize_partially_polarized(0.125, 1.0, 100, 15)
        ceiling = interferometer._MAX_RESAMPLES
        assert ProtocolConfig(dop=0.1, n=100, seed=0, resamples=ceiling).resamples == 10**5
        for above in (ceiling + 1, 2**64):
            msg = rf"^bootstrap resamples must be 0 or in \[10, 100000\], got {above}$"
            with pytest.raises(DomainError, match=msg):
                scan_correlation(e, schmidt(e), 0.0, np.array([0.1]), resamples=above)
            with pytest.raises(DomainError, match=msg):
                ProtocolConfig(dop=0.1, n=100, seed=0, resamples=above)

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

    @pytest.mark.parametrize("dop", [0.0, 0.125, 0.5, 0.9, 0.99])
    def test_optimized_ideal_run_reaches_its_bound(self, dop):
        # at its own measured DOP an ideal run sits on 2 sqrt(2 - DOP^2) to float accuracy
        for seed in range(3):
            rep = run_bell_protocol(ProtocolConfig(dop=dop, n=20_000, seed=seed, resamples=0))
            assert abs(rep.chsh - 2.0 * math.sqrt(2.0 - rep.dop**2)) <= 1e-12

    @pytest.mark.parametrize("dop", [0.125, 1.0])
    def test_kappa_is_the_measured_calibration(self, dop):
        cfg = ProtocolConfig(dop=dop, n=3000, seed=37, resamples=0)
        rep = run_bell_protocol(cfg)
        source = ensemble._draw_partially_polarized(cfg.dop, cfg.n, cfg.seed)
        sd = schmidt(source)
        assert (rep.kappa1, rep.kappa2) == (sd.kappa1, sd.kappa2)
        assert rep.dop == degree_of_polarization(tomography(source))

    @pytest.mark.parametrize("n", [3000, 10**6])
    def test_kappa2_near_full_polarization_has_no_cancellation(self, n):
        # at DOP 1 - 1e-13 the weights from the tomography DOP lost about 1e-3 of kappa2 to
        # 1 - DOP; the oracle takes lambda2 = det J / lambda1 with det J from the draw's
        # Bartlett factor T, det J = (1 + d)(1 - d) |T11|^2 |T22|^2 / (4 n^2)
        d = 1.0 - 1e-13
        for seed in range(5):
            rep = run_bell_protocol(ProtocolConfig(dop=d, n=n, seed=seed, resamples=0))
            t = ensemble._bartlett(np.random.default_rng(seed), n, 1)[0]
            trace = np.trace(ensemble._draw_partially_polarized(d, n, seed).second_moments).real
            det = (1.0 + d) * (1.0 - d) * abs(t[0, 0])**2 * abs(t[1, 1])**2 / (4.0 * n**2)
            lam2 = det / (trace / 2.0 + math.sqrt(trace**2 / 4.0 - det))
            assert rep.kappa2 == pytest.approx(math.sqrt(lam2 / trace), rel=1e-14, abs=0.0)

    # kappa2 about 2.2e-3, 1.4e-3 and 1.2e-3: above the floor of 1e-3, so the kernel reads them
    @pytest.mark.parametrize("d", [1.0 - 1e-5, 1.0 - 4e-6, 1.0 - 3e-6])
    def test_probabilities_near_full_polarization_are_complete(self, d):
        # the 16 probabilities of four settings sum to 4; the weights from the tomography
        # DOP missed by up to 2e-5 at DOP 1 - 1e-11
        settings = AngleSettings(0.1, 0.7, 0.3, 1.2)
        for seed in range(5):
            rep = run_bell_protocol(ProtocolConfig(dop=d, n=100_000, seed=seed,
                                                   settings=settings, resamples=0))
            assert rep.method == "interferometer"
            total = sum(p.p11 + p.p12 + p.p21 + p.p22 for p in rep.probabilities)
            assert abs(total - 4.0) <= 1e-9

    @pytest.mark.parametrize("kappa2, method", [(1.05e-3, "interferometer"),
                                                (0.95e-3, "closed-form")])
    def test_kappa2_floor_has_both_sides(self, kappa2, method):
        # sources of kappa2 = sqrt((1 - DOP) / 2) 5% either side of the floor of 1e-3, through
        # both commands' measurements: below it every reading is the closed form at the
        # measured weights, above it the kernel meets that closed form within 1e-10
        d, seed = 1.0 - 2.0 * kappa2**2, 0
        rep = run_bell_protocol(ProtocolConfig(dop=d, n=10**6, seed=seed, resamples=10))
        source = ensemble._draw_partially_polarized(d, 10**6, seed)
        sd = schmidt(source)
        assert rep.kappa2 == sd.kappa2 == pytest.approx(kappa2, rel=1e-2)
        a, b = np.array(rep.settings.pairs()).T
        grid = np.linspace(0.0, math.pi, 90, endpoint=False)
        curve = scan_correlation(source, sd, 0.3, grid, seed=seed, resamples=10)
        assert rep.method == curve.method == method
        kl = np.array(interferometer._KL).T
        for p, closed in (
                ([[s.p11, s.p12, s.p21, s.p22] for s in rep.probabilities],
                 joint_probability_kappa(sd.kappa1, sd.kappa2, a[:, None], b[:, None], *kl)),
                (np.stack([curve.p11, curve.p12, curve.p21, curve.p22], -1),
                 joint_probability_kappa(sd.kappa1, sd.kappa2, grid[:, None], 0.3, *kl))):
            if method == "closed-form":
                assert np.array_equal(p, closed)
            else:
                assert np.abs(np.asarray(p) - closed).max() <= 1e-10
        bars = [rep.chsh_err, *(s.c_err for s in rep.probabilities), *curve.c_err]
        assert (max(bars) == 0.0) == (method == "closed-form")

    def test_kernel_meets_the_closed_form_at_the_floor(self):
        # the floor is the smallest kappa2 from which upward the kernel raises nothing and
        # meets the closed form within 1e-10, at population moments J = diag(k1^2, k2^2):
        # on the default 12-curve scan grid and at both chsh settings that set it (ROADMAP
        # item 9).  A floor of 1e-4 would read StrippedBeamError at b = pi/4.
        k2 = interferometer._KAPPA2_FLOOR
        k1 = math.sqrt(1.0 - k2**2)
        sd = SchmidtDecomposition(k1, k2, np.array([1, 0j]), np.array([0, 1 + 0j]), intensity=1.0)
        source = ensemble._Moments(np.diag([k1**2, k2**2]).astype(complex), 10**6)
        grid = np.arange(0.0, math.pi - 1e-12, math.pi / 90.0)
        kl = np.array(interferometer._KL).T
        for i in range(12):
            curve = scan_correlation(source, sd, i * math.pi / 12.0, grid)
            assert curve.method == "interferometer"
            p = np.stack([curve.p11, curve.p12, curve.p21, curve.p22], -1)
            closed = joint_probability_kappa(k1, k2, grid[:, None], curve.b, *kl)
            assert np.abs(p - closed).max() <= 1e-10, i
        for settings in (max_chsh(k1, k2)[1], AngleSettings(0.1, 0.7, 0.3, 1.2)):
            a, b = np.array(settings.pairs()).T
            method, p = interferometer._measure_runs(source, sd, a, b, NoiseModel(), (0,), 0)
            closed = joint_probability_kappa(k1, k2, a[:, None], b[:, None], *kl)
            assert method == "interferometer" and np.abs(p[0] - closed).max() <= 1e-10

    @pytest.mark.parametrize("resamples", [0, 16])
    def test_fully_polarized_fallback(self, resamples):
        # every resample holds the weights and the settings, so its closed form is the
        # source's: the bars are exactly 0
        rep = run_bell_protocol(ProtocolConfig(dop=1.0, n=1000, seed=34, resamples=resamples))
        assert rep.method == "closed-form"
        assert rep.chsh == pytest.approx(2.0, abs=1e-6)
        assert rep.chsh_err == 0.0
        assert all(s.c_err == 0.0 for s in rep.probabilities)

    @pytest.mark.parametrize("noise", [NoiseModel(extinction_ratio=1e-3),
                                       NoiseModel(detector_noise=1e-4),
                                       NoiseModel(phase_jitter=0.3)],
                             ids=["extinction", "detector", "jitter"])
    def test_noise_below_the_floor_is_refused(self, noise):
        # the closed form applies no noise model, so one below the floor is refused, never
        # echoed unused
        message = r"^kappa2 = 0 is below the floor 0\.001: the closed form read there applies " \
                  r"no noise model$"
        with pytest.raises(DomainError, match=message):
            run_bell_protocol(ProtocolConfig(dop=1.0, n=1000, seed=34, noise=noise))
        source = ensemble._draw_partially_polarized(1.0, 1000, 34)
        with pytest.raises(DomainError, match=message):
            scan_correlation(source, schmidt(source), 0.3, [0.1, 0.2], noise)

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


def assert_same_law(new, old, label):
    """Two samples of the same size, one column per quantity: each column's
    mean and sd agree within 4 standard errors (the sd's by the delta
    method, Var(s^2) = (m4 - s^4) / N)."""
    size = len(new)
    mean_se = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / size)
    z_mean = (new.mean(axis=0) - old.mean(axis=0)) / mean_se

    def sd_and_se(x):
        sd = x.std(axis=0, ddof=1)
        m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
        return sd, np.sqrt(np.maximum(m4 - sd**4, 0.0) / size) / (2.0 * sd)

    (sd_new, se_new), (sd_old, se_old) = sd_and_se(new), sd_and_se(old)
    z_sd = (sd_new - sd_old) / np.hypot(se_new, se_old)
    assert np.all(np.abs(z_mean) <= 4.0) and np.all(np.abs(z_sd) <= 4.0), (label, z_mean, z_sd)


class TestSourceDraw:
    """run_bell_protocol draws its source's J in law: n J ~ CW(n, Sigma) with
    Sigma = diag(1 + DOP, 1 - DOP) / 2, from one Bartlett factor of the
    stream default_rng(seed); synthesize_partially_polarized colours its
    realizations by that same factor."""

    @pytest.mark.parametrize("dop, n, seed", [(0.125, 3000, 37), (0.0, 2, 5), (1.0, 10, 0)])
    def test_draw_order_is_pinned(self, dop, n, seed):
        t = bartlett_factors(seed, n, 1)[0]
        lt = np.diag(np.sqrt([(1.0 + dop) / 2.0, (1.0 - dop) / 2.0])) @ t
        expected = lt @ lt.conj().T / n
        source = ensemble._draw_partially_polarized(dop, n, seed)
        assert source.n == n
        assert np.array_equal(source.second_moments, source.second_moments.conj().T)
        assert np.abs(source.second_moments - expected).max() <= 1e-15 * np.trace(expected).real
        # the protocol measures this source, and the bootstrap's stream is another
        rep = run_bell_protocol(ProtocolConfig(dop=dop, n=n, seed=seed, resamples=0))
        assert rep.dop == degree_of_polarization(tomography(source))
        assert not np.array_equal(t, bartlett_factors((seed, 715), n, 1)[0])

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_synthesized_rows_are_circular_gaussian(self, n):
        # synthesize_partially_polarized lifts the drawn J to realizations (its J is the
        # draw's), so what is left to check is the law beyond J.  Rows 0 and 1 of 2000 seeds
        # against as many rows drawn directly from CN(0, Sigma): per column, the mean and sd
        # of |E|^2 agree (sd = mean is Isserlis' E|E|^4 = 2 (E|E|^2)^2), and across columns
        # Ex* Ey and |Ex|^2 |Ey|^2 agree (independent columns)
        def features(e):
            ex, ey = e[:, 0], e[:, 1]
            cross = ex.conj() * ey
            return np.column_stack([abs(ex)**2, abs(ey)**2, cross.real, cross.imag,
                                    abs(ex)**2 * abs(ey)**2])

        rng = np.random.default_rng((n, 41))
        for dop in (0.0, 0.5, 0.9):
            rows = np.concatenate([synthesize_partially_polarized(dop, 1.0, n, s).realizations[:2]
                                   for s in range(2000)])
            scale = np.sqrt([(1.0 + dop) / 2.0, (1.0 - dop) / 2.0])
            z = rng.standard_normal((len(rows), 2, 2)) / math.sqrt(2.0)
            gaussian = (z[..., 0] + 1j * z[..., 1]) * scale
            assert_same_law(features(rows), features(gaussian), (dop, n))


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
    """Gathered-copy bootstrap errors for a run_bell_protocol report:
    (chsh_err, [c_err per setting]).  The protocol draws its source's J in
    law, so the gathered side bootstraps a synthesized source of the same
    law at the same seed, calibrated by its own schmidt.  Each copy
    is read at the report's settings, under noise streams of its own."""
    source = synthesize_partially_polarized(cfg.dop, 1.0, cfg.n, cfg.seed)
    sd = schmidt(source)
    pairs = rep.settings.pairs()

    def chsh_and_correlations(e, run):
        ps = interferometer._measure_runs(e, sd, *np.array(pairs).T, cfg.noise,
                                          (cfg.seed, run), 0)[1][0]
        c = correlation_sum(ps.T)
        return [chsh_sum(c), *c]

    errs = gathered_bootstrap_std(source, chsh_and_correlations, cfg.resamples, (cfg.seed,))
    return errs[0], errs[1:]


def assert_errors_match_gathered_copies(noise):
    """100 seeds bootstrapped both ways: the protocol's Wishart resamples of
    its drawn source, and gathered copies of a synthesized source of the same
    law.  A bootstrap std reads only the mean and covariance of the resampled
    moments to leading order; the Wishart draw has the mean exactly and, for
    these circular-Gaussian sources, the covariance to O(1/sqrt(n)), so the
    mean chsh_err and c_err over seeds agree to 3 standard errors."""
    new, gathered = [], []
    for seed in range(100):
        cfg = ProtocolConfig(dop=0.125, n=2000, seed=seed, noise=noise, resamples=10)
        rep = run_bell_protocol(cfg)
        new.append([rep.chsh_err, *(p.c_err for p in rep.probabilities)])
        chsh_err, c_err = protocol_reference(cfg, rep)
        gathered.append([chsh_err, *c_err])
    new, gathered = np.array(new), np.array(gathered)
    se = np.sqrt((new.var(axis=0, ddof=1) + gathered.var(axis=0, ddof=1)) / len(new))
    assert np.all(np.abs(new.mean(axis=0) - gathered.mean(axis=0)) <= 3.0 * se), \
        (new.mean(axis=0), gathered.mean(axis=0), se)


JITTER_AND_DETECTOR = NoiseModel(phase_jitter=0.1, detector_noise=1e-3)
IDEAL_AND_MOMENT_NOISE = [
    NoiseModel(),
    NoiseModel(extinction_ratio=1e-3),
    NoiseModel(detector_noise=1e-3),
]


def feature_coordinates(j):
    """Feature coordinates (xx, yy, re, im) of Hermitian 2x2 matrices, shape (..., 4)."""
    return np.stack([j[..., 0, 0].real, j[..., 1, 1].real, j[..., 0, 1].real, j[..., 0, 1].imag],
                    -1)


NOISE_MODELS = [*IDEAL_AND_MOMENT_NOISE, NoiseModel(phase_jitter=0.1),
                NoiseModel(extinction_ratio=1e-3, detector_noise=1e-3, phase_jitter=0.1)]
NOISE_IDS = ["ideal", "extinction", "detector", "jitter", "all"]
DEFAULT_RNG = np.random.default_rng


class RecordingGenerator:
    """Stands in for ``np.random.default_rng(seed)`` and logs the seed and the
    shape of each draw before it draws from the real generator."""

    def __init__(self, seed, log):
        self.rng, self.log = DEFAULT_RNG(seed), log
        log.append(("default_rng", seed))

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def logged(*args):
            self.log.append((name, args[-1]))
            return draw(*args)

        return logged


def record_draws(monkeypatch):
    log = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RecordingGenerator(seed, log))
    return log


class TestRunZero:
    """Run 0 reads the source from its own stream base + (0, 716), and the
    resamples from streams of their own, so adding resamples leaves every
    run-0 output unchanged, byte for byte, whatever the noise model."""

    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=NOISE_IDS)
    def test_protocol_does_not_depend_on_resamples(self, noise):
        reports = [run_bell_protocol(ProtocolConfig(dop=0.125, n=2000, seed=41, noise=noise,
                                                    resamples=resamples))
                   for resamples in (0, 16)]
        p = [np.array([[s.p11, s.p12, s.p21, s.p22] for s in rep.probabilities]).tobytes()
             for rep in reports]
        assert p[0] == p[1]
        assert np.float64(reports[0].chsh).tobytes() == np.float64(reports[1].chsh).tobytes()

    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=NOISE_IDS)
    # b = 0 crosses polarizer and stripping axes, so the recovery runs too
    @pytest.mark.parametrize("b", [0.0, 0.3])
    def test_scan_does_not_depend_on_resamples(self, b, noise):
        # the scan without resamples against run 0 of the 17 runs a scan with
        # 16 resamples draws; run 0 is read alone, so a resample's reading that
        # cannot be extracted (ROADMAP item 3) does not enter
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 42)
        sd = schmidt(e)
        grid, base = np.linspace(0.0, math.pi, 7, endpoint=False), (42, 1)
        curve = scan_correlation(e, sd, b, grid, noise, base, 0)
        j, k, offsets = interferometer._moment_stacks(
            e.second_moments, e.n, bartlett_factors(base + (715,), e.n, 16), noise,
            [base + (r, 716) for r in range(17)], 4 * len(grid))
        p = interferometer._probabilities((j[:1], k[:1], offsets[:1]), sd, grid,
                                          np.full(len(grid), b), noise.extinction_ratio)[0]
        for i, name in enumerate(("p11", "p12", "p21", "p22")):
            assert getattr(curve, name).tobytes() == p[:, i].tobytes(), name
        assert curve.c.tobytes() == correlation_sum(p.T).tobytes()

    def test_streams_are_distinct(self, monkeypatch):
        # numpy pads a short seed with zeros, so base + (0,) would be the source
        # draw's stream and base + (715,) the Bartlett stream: with 716
        # resamples every stream a protocol makes has a state of its own
        log = record_draws(monkeypatch)
        run_bell_protocol(ProtocolConfig(dop=0.3, n=200, seed=8, resamples=716,
                                         noise=NoiseModel(detector_noise=1e-6)))
        made = [seed for call, seed in log if call == "default_rng"]
        assert made == [8, (8, 715), *[(8, r, 716) for r in range(717)]]
        states = {json.dumps(DEFAULT_RNG(seed).bit_generator.state) for seed in made}
        assert len(states) == len(made) == 719


class TestResampleCounts:
    """Each bootstrap resample draws its second moments J* from the complex
    Wishart law CW(n, J)/n; over seeds its error bars must match those of
    gathering each resample's fields."""

    @pytest.mark.parametrize("noise", IDEAL_AND_MOMENT_NOISE)
    def test_protocol_errors_match_gathered_copies(self, noise):
        assert_errors_match_gathered_copies(noise)

    @pytest.mark.parametrize("noise", [NoiseModel(phase_jitter=0.1), JITTER_AND_DETECTOR],
                             ids=["jitter", "jitter-and-detector"])
    def test_jitter_resamples_gather_fields(self, noise):
        # a resample's K is centred on its J* and takes the Isserlis G of the
        # source's J, the large-n mean of the count-weighted G of a gathered copy
        assert_errors_match_gathered_copies(noise)

    @pytest.mark.parametrize("noise", [*IDEAL_AND_MOMENT_NOISE, JITTER_AND_DETECTOR])
    def test_scan_draw_order_is_pinned(self, noise):
        # The R resamples take their Bartlett factors from base + (715,), one
        # call per entry, and run r draws all its readings' noise from base + (r, 716).
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 39)
        sd = schmidt(e)
        # b = 0 crosses polarizer and stripping axes, so the fallback runs too
        b, grid, base = 0.0, np.linspace(0.0, math.pi, 7, endpoint=False), (39, 2)
        curve = scan_correlation(e, sd, b, grid, noise=noise, seed=base, resamples=11)
        t = bartlett_factors(base + (715,), e.n, 11)
        stacks = interferometer._moment_stacks(e.second_moments, e.n, t, noise,
                                               [base + (r, 716) for r in range(12)], 4 * len(grid))
        p = interferometer._probabilities(stacks, sd, grid, np.full(len(grid), b),
                                          noise.extinction_ratio)
        c = correlation_sum(np.moveaxis(p, -1, 0))
        assert np.array_equal(curve.c, c[0])
        assert np.array_equal(curve.c_err, np.std(c[1:], axis=0, ddof=1))

    @pytest.mark.parametrize("noise", [NoiseModel(), JITTER_AND_DETECTOR], ids=["ideal", "noisy"])
    def test_one_generator_per_run(self, monkeypatch, noise):
        # the Bartlett stream, then under noise one stream per run, not one per reading
        e = synthesize_partially_polarized(0.125, 1.0, 2000, 39)
        sd = schmidt(e)
        grid = np.linspace(0.0, math.pi, 7, endpoint=False)
        log = record_draws(monkeypatch)
        scan_correlation(e, sd, 0.3, grid, noise, (39, 2), 11)
        made = [seed for call, seed in log if call == "default_rng"]
        runs = [(39, 2, r, 716) for r in range(12)] if noise != NoiseModel() else []
        assert made == [(39, 2, 715), *runs]
        # the same scan without resamples makes no Bartlett stream
        log.clear()
        scan_correlation(e, sd, 0.3, grid, noise, (39, 2), 0)
        assert [seed for call, seed in log if call == "default_rng"] == runs[:1]

    def test_bootstrap_draw_has_the_exact_mean_and_covariance(self):
        # J* = L T T+ L+ / n, L the principal root of J: T = sqrt(n) I gives J
        # exactly, and fixed factors give that map to rounding
        e = synthesize_partially_polarized(0.3, 1.0, 200, 16)
        j0, n = e.second_moments, e.n
        t = np.array([math.sqrt(n) * np.eye(2), [[14.0, 0.0], [0.3 - 0.8j, 13.5]],
                      [[15.2, 0.0], [-2.0 + 1.0j, 0.1]]])
        j, _, _ = interferometer._moment_stacks(j0, n, t, NoiseModel(), [(r,) for r in range(4)],
                                                1)
        assert np.array_equal(j[0], j0)
        assert np.abs(j[1] - j0).max() <= 1e-15
        root = principal_root(j0)
        for drawn, factor in zip(j[2:], t[1:]):
            expected = root @ factor @ factor.conj().T @ root / n
            assert np.abs(drawn - expected).max() <= 1e-14 * np.abs(expected).max()
        # over the stream's draws J* has the Wishart mean J and covariance
        # Cov(q*) = (E[q q^T] - mu mu^T) / n in feature coordinates
        j, _, _ = interferometer._moment_stacks(j0, n, bartlett_factors((16, 715), n, 20_000),
                                                NoiseModel(), [(r,) for r in range(20_001)], 1)
        q, mu = feature_coordinates(j[1:]), feature_coordinates(j0)
        cov = (isserlis_gram(j0) - np.outer(mu, mu)) / n
        se = np.sqrt(np.diag(cov) / len(q))
        assert np.all(np.abs(q.mean(axis=0) - mu) <= 5.0 * se)
        sample = np.cov(q.T)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / len(q))
        assert np.all(np.abs(sample - cov) <= 5.0 * se_cov)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 10**6),
        lam=st.tuples(st.floats(0.0, 1e6), st.sampled_from([0.0, 1e-300, 1.0, 1e6])),
        theta=st.floats(0.0, math.pi),
        phase=st.floats(0.0, 2.0 * math.pi),
        seed=st.integers(0, 2**32),
    )
    # a subnormal trace: its draw once came out with a min eigenvalue of -5e-324
    @example(n=2, lam=(2.2250738585e-313, 0.0), theta=0.5, phase=0.0, seed=0)
    def test_draws_stay_in_the_cone(self, n, lam, theta, phase, seed):
        # a Wishart draw is PSD by construction, a rank-1 or zero J included;
        # a J of positive trace whose square is no longer a normal float is named
        u = np.array([[math.cos(theta), -math.sin(theta) * np.exp(-1j * phase)],
                      [math.sin(theta) * np.exp(1j * phase), math.cos(theta)]])
        j0 = (u * np.array(lam)) @ u.conj().T
        j0 = (j0 + j0.conj().T) / 2.0

        def draw():
            return interferometer._moment_stacks(j0, n, bartlett_factors((seed, 715), n, 8),
                                                 NoiseModel(), [(r,) for r in range(9)], 1)

        if 0.0 < np.trace(j0).real < math.sqrt(np.finfo(float).tiny):
            with pytest.raises(DomainError, match="second moments underflow"):
                draw()
            return
        j, _, _ = draw()
        assert np.array_equal(j, j.conj().swapaxes(1, 2))
        traces = np.trace(j, axis1=1, axis2=2).real
        assert np.all(np.linalg.eigvalsh(j)[:, 0] >= -1e-12 * traces)

    # the ends of ensemble._TRACE_RANGE
    LO, HI = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max) / 2.0

    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=NOISE_IDS)
    @pytest.mark.parametrize("trace", [LO * (1.0 + 1e-15), HI * (1.0 - 1e-15)])
    def test_kernel_reads_the_whole_trace_range(self, noise, trace):
        # every probability and bar at the ends of the range is the unit-trace one: a
        # ratio of intensities (dim readings near the low end keep about 13 digits)
        source = ensemble._draw_partially_polarized(0.3, 1000, 0)
        j = source.second_moments / np.trace(source.second_moments).real
        curves = [scan_correlation(m, schmidt(m), 0.3, [0.0, 0.2, 1.0], noise, 0, 10)
                  for m in (ensemble._Moments(j, 1000), ensemble._Moments(j * trace, 1000))]
        for key in ("p11", "p12", "p21", "p22", "c", "c_err"):
            assert np.allclose(*(getattr(c, key) for c in curves), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("detector", [0.0, 10.0, 1e6])
    @pytest.mark.parametrize("trace", [LO * (1.0 + 1e-15), HI * (1.0 - 1e-15)])
    def test_detector_noise_at_the_range_ends_raises_no_warning(self, trace, detector):
        # offsets of std sigma_d tr J push readings past tr J; the extraction reads them in
        # units of the beam, so no square overflows: finite curves or one WavebellError line
        source = ensemble._draw_partially_polarized(0.3, 1000, 0)
        m = ensemble._Moments(source.second_moments * (trace / mean_power(source)), 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                curve = scan_correlation(m, schmidt(m), 0.3, [0.0, 0.2, 1.0],
                                         NoiseModel(detector_noise=detector), 0, 10)
            except WavebellError as exc:
                assert detector > 0.0 and "\n" not in str(exc)
            else:
                assert np.all(np.isfinite(curve.c)) and np.all(np.isfinite(curve.c_err))

    @pytest.mark.parametrize("trace, side", [(LO * (1.0 - 1e-15), "underflow"),
                                             (1e-160, "underflow"),
                                             (HI * (1.0 + 1e-15), "overflow"),
                                             (1e156, "overflow")])
    def test_kernel_refuses_traces_outside_the_range(self, trace, side):
        # past the upper end the squares overflow (at 1e156 every p read NaN, with only a
        # RuntimeWarning); past the lower end they are subnormal
        j = ensemble._draw_partially_polarized(0.3, 1000, 0).second_moments
        m = ensemble._Moments(j * (trace / np.trace(j).real), 1000)
        with pytest.raises(DomainError, match=f"^second moments {side}: tr J = "):
            scan_correlation(m, schmidt(m), 0.3, [0.2])

    def test_jitter_protocol_gathers_no_copy(self, monkeypatch):
        # the source and every resample are drawn as moments, so no ensemble
        # is built and no array grows with n
        built = []
        post_init = FieldEnsemble.__post_init__
        monkeypatch.setattr(FieldEnsemble, "__post_init__",
                            lambda self: (built.append(self), post_init(self)))
        tracemalloc.start()
        try:
            run_bell_protocol(ProtocolConfig(dop=0.125, n=10**6, seed=40,
                                             noise=NoiseModel(phase_jitter=0.1), resamples=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 2**20, peak


class FixedNormals:
    """Stands in for ``np.random.default_rng(seed)`` of every run:
    ``standard_normal`` returns the fixed normals of the run's readings."""

    def __init__(self, normals):
        self.normals = normals

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals


def jitter_rows(monkeypatch, e, t, sigma):
    """J and K's mean and its real and imaginary rows under jitter sigma, in
    feature coordinates, for the last of the 1 + len(t) runs: K is linear in
    its normals z, so z = 0 gives the mean, and a unit normal in z[0] (z[1])
    one row of the root of the real (imaginary) covariance.  Each run reads 9
    settings: reading 0 takes z = 0, reading m >= 1 the m-th unit normal."""
    normals = np.concatenate([np.zeros((1, 2, 4)), np.eye(8).reshape(8, 2, 4)])
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedNormals(normals))
    j, k, _ = interferometer._moment_stacks(e.second_moments, e.n, t,
                                            NoiseModel(phase_jitter=sigma),
                                            [(r,) for r in range(1 + len(t))], 9)
    v = np.array([[x[0, 0], x[1, 1], (x[0, 1] + x[1, 0]) / 2, (x[0, 1] - x[1, 0]) / 2j]
                  for x in k[-1]])
    return j, v[0], v[1:5] - v[0], v[5:] - v[0]


class TestJitterDraw:
    """Each jitter reading draws K from its exact mean and covariance with
    8 normals from its run's stream."""

    def test_draw_order_is_pinned(self, monkeypatch):
        # one stream per run, default_rng(seed): the 8 normals of K of every
        # reading, then the 3 detector normals of every reading
        e = synthesize_partially_polarized(0.4, 1.0, 300, 12)
        noise, seed, m = JITTER_AND_DETECTOR, (11, 0), 2
        j, k, offsets = interferometer._moment_stacks(e.second_moments, e.n, (), noise, [seed], m)
        rng = np.random.default_rng(seed)
        normals = rng.standard_normal((m, 2, 4))
        detector = rng.normal(0.0, 1e-3 * np.trace(j[0]).real, (m, 3))
        for reading in range(m):
            expected = reference_k(e.second_moments, e.n, 0.1, normals[reading])
            assert np.abs(k[0, reading] - expected).max() <= 1e-13
        assert np.array_equal(offsets[0], detector)
        # measure_intensities is one reading: 8 normals, then 3 offsets, from default_rng(seed)
        log = record_draws(monkeypatch)
        measure_intensities(e, 0.3, 0.8, noise, seed, basis=basis_of(schmidt(e)))
        assert log == [("default_rng", seed), ("standard_normal", (1, 2, 4)), ("normal", (1, 3))]

    def test_detector_offsets_scale_with_each_runs_trace(self):
        # run r's offsets have std sigma_d tr J_r, its own trace: at n = 2 the resample
        # traces spread over a wide range, so the source's trace would not give them
        e, m = synthesize_partially_polarized(0.4, 1.0, 2, 12), 3
        noise = NoiseModel(detector_noise=1e-3)
        seeds = [(5, r, 716) for r in range(11)]
        j, _, offsets = interferometer._moment_stacks(
            e.second_moments, e.n, bartlett_factors((5, 715), e.n, 10), noise, seeds, m)
        traces = np.trace(j, axis1=1, axis2=2).real
        assert traces.max() > 2.0 * traces.min()
        for r, seed in enumerate(seeds):
            expected = np.random.default_rng(seed).normal(0.0, 1e-3 * traces[r], (m, 3))
            assert np.array_equal(offsets[r], expected)

    @pytest.mark.parametrize("run", [0, 1], ids=["source", "resample"])
    def test_draw_has_the_exact_mean_and_covariance(self, monkeypatch, run):
        # K's mean is exp(-sigma^2/2) J of its run, and its real (imaginary)
        # part has covariance Var(cos phi) G/n^2 (E[sin^2 phi] G/n^2), with
        # G/n the Isserlis E[q q^T] of the source's J for every run
        e, sigma = synthesize_partially_polarized(0.3, 1.0, 60, 14), 0.7
        t = np.array([[[7.5, 0.0], [0.4 - 0.9j, 8.1]]])[:run]
        j, mean, re_rows, im_rows = jitter_rows(monkeypatch, e, t, sigma)
        if run:
            assert not np.array_equal(j[1], j[0])
        gram = isserlis_gram(e.second_moments) * e.n
        var_cos, sin2 = jitter_variances(sigma)

        def close(x, target):
            return np.abs(x - target).max() <= 1e-12 * np.abs(target).max()

        assert close(mean, math.exp(-sigma**2 / 2.0) * feature_coordinates(j[run]))
        # a normal of z[0] moves only the real part, one of z[1] only the imaginary part
        assert np.abs(re_rows.imag).max() <= 1e-12 * np.abs(re_rows.real).max()
        assert np.abs(im_rows.real).max() <= 1e-12 * np.abs(im_rows.imag).max()
        assert close(re_rows.real.T @ re_rows.real, var_cos * gram / e.n**2)
        assert close(im_rows.imag.T @ im_rows.imag, sin2 * gram / e.n**2)

    def test_isserlis_gram_matches_the_sample_gram(self, monkeypatch):
        # the draw's G/n = E[q q^T] of a large circular-Gaussian source, read
        # back from K's rows, against the sample mean of q q^T over its
        # realizations: every entry within 5 standard errors
        # unitary, so J has a complex off-diagonal entry: 0.4 * 0.48 exp(0.7i)
        rotation = np.array([[0.8, -0.6 * np.exp(-0.7j)], [0.6 * np.exp(0.7j), 0.8]])
        e = FieldEnsemble(synthesize_partially_polarized(0.4, 1.0, 200_000, 17).realizations
                          @ rotation.T)
        sigma = 0.5
        _, _, re_rows, _ = jitter_rows(monkeypatch, e, (), sigma)
        drawn = re_rows.real.T @ re_rows.real * e.n / jitter_variances(sigma)[0]
        q = feature_rows(e)
        products = (q[:, :, None] * q[:, None, :]).reshape(e.n, 16)
        sample, se = products.mean(axis=0), products.std(axis=0) / math.sqrt(e.n)
        assert np.all(np.abs(drawn.ravel() - sample) <= 5.0 * se), (drawn.ravel() - sample) / se

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_chsh_distribution_matches_per_realization_phases(self, n):
        # The same 400 reading streams of one source, drawn both ways.  Each p is
        # quadratic in K, so the mean of chsh reads only K's mean and covariance,
        # which the draw has to O(1/sqrt(n)): the means agree to 3 standard
        # errors at any n.  The spread also reads K's fourth moments, whose
        # per-realization excess over the Gaussian falls as 1/n: the sds agree
        # to 3 standard errors of their ratio, exp(+-3 / sqrt(399)).  One kernel call per side
        # and sigma reads all 400 runs, so no run may raise ExtractionError.
        source = synthesize_partially_polarized(0.125, 1.0, n, 3)
        sd = schmidt(source)
        a, b = np.array(max_chsh(sd.kappa1, sd.kappa2)[1].pairs()).T
        # the per-realization phases of each reading come from a stream of its own
        keys = [(i, k, l) for i in range(4) for k, l in interferometer._KL]
        seeds, sigmas = range(400), (0.05, 0.3, 1.0)
        gaussian = np.empty((len(sigmas), len(seeds), len(keys), 2, 2), dtype=complex)
        per_realization = np.empty_like(gaussian)
        for s in seeds:
            normals = np.array([np.random.default_rng((s, 0) + key).standard_normal(n)
                                for key in keys])
            for i, sigma in enumerate(sigmas):
                stacks = interferometer._moment_stacks(source.second_moments, source.n, (),
                                                       NoiseModel(phase_jitter=sigma), [(s, 0)],
                                                       len(keys))
                gaussian[i, s], per_realization[i, s] = stacks[1][0], per_realization_k(
                    source, normals, sigma)
        j = np.broadcast_to(source.second_moments, (len(seeds), 2, 2))
        offsets = np.zeros((len(seeds), len(keys), 3))

        def chsh(k):
            p = interferometer._probabilities((j, k, offsets), sd, a, b, 0.0)
            return chsh_sum(correlation_sum(np.moveaxis(p, -1, 0)).T)

        for sigma, k_gaussian, k_per_realization in zip(sigmas, gaussian, per_realization):
            new, old = chsh(k_gaussian), chsh(k_per_realization)
            se = math.sqrt((new.var(ddof=1) + old.var(ddof=1)) / len(seeds))
            assert abs(new.mean() - old.mean()) <= 3.0 * se, (sigma, new.mean(), old.mean())
            ratio = new.std(ddof=1) / old.std(ddof=1)
            assert abs(math.log(ratio)) <= 3.0 / math.sqrt(len(seeds) - 1), (sigma, ratio)

    def test_jitter_protocol_starts_no_thread(self, monkeypatch):
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: (started.append(self), start(self))[1])
        run_bell_protocol(ProtocolConfig(dop=0.125, n=2000, seed=40, noise=JITTER_AND_DETECTOR,
                                         resamples=10))
        assert started == []


def test_one_point_scan_consistency():
    e = synthesize_partially_polarized(0.125, 1.0, 5000, 41)
    sd = schmidt(e)
    curve = scan_correlation(e, sd, 0.7, [0.3])
    c, p = curve.c[0], [float(p[0]) for p in (curve.p11, curve.p12, curve.p21, curve.p22)]
    assert c == pytest.approx(p[0] - p[1] - p[2] + p[3], abs=1e-15)
    oracle = joint_probability_kappa(sd.kappa1, sd.kappa2, 0.3, 0.7, 1, 1)
    assert p[0] == pytest.approx(oracle, abs=1e-10)


def test_noise_model_validation():
    with pytest.raises(DomainError):
        NoiseModel(extinction_ratio=-0.1)
    with pytest.raises(DomainError):
        NoiseModel(detector_noise=float("nan"))
    # the ideal instrument is the all-zero model
    assert NoiseModel() == NoiseModel(extinction_ratio=0.0, detector_noise=0.0, phase_jitter=0.0)
    assert NoiseModel(phase_jitter=0.1) != NoiseModel()
    # up to 1e6 no reading overflows; the bound itself is accepted
    assert NoiseModel(detector_noise=1e6, phase_jitter=1e6).phase_jitter == 1e6
    for name in ("detector_noise", "phase_jitter"):
        for bad in (1.000001e6, 1e308):
            with pytest.raises(DomainError):
                NoiseModel(**{name: bad})


def test_noise_model_rejects_leak_above_one():
    # extinction_ratio is a leaked power fraction
    assert NoiseModel(extinction_ratio=1.0).extinction_ratio == 1.0
    with pytest.raises(DomainError):
        NoiseModel(extinction_ratio=2.0)


class TestProbabilitiesFromTriples:
    def test_crossed_outcome_is_recovered_from_its_partner(self):
        # outcome (1, 1) reads no auxiliary light: P_11 = I_test / I - P_12, clipped to [0, 1]
        rest = [(0.5, 0.2, 0.4), (0.4, 0.0, 0.8), (0.4, 0.0, 0.8)]
        p12 = (2.0 * 0.5 - 0.4 - 0.2) ** 2 / (4.0 * 0.5 * 0.4)
        for i_test, p11 in [(0.4, 0.4 / 0.5 - p12), (0.7, 1.0), (0.05, 0.0)]:
            p = probabilities_from_triples([(0.3, i_test, 0.0), *rest], 0.5)
            assert p.tolist() == [p11, p12, 0.0, 0.0]
        assert 0.0 < p12 < 0.4 / 0.5 - p12 < 1.0

    def test_shape_is_checked(self):
        for shape in [(3,), (4,), (3, 3), (4, 4), (2, 3, 4)]:
            with pytest.raises(DomainError, match=r"^triples must have shape \(\.\.\., 4, 3\)"):
                probabilities_from_triples(np.ones(shape), 1.0)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 1)])
    def test_beam_shape_is_checked(self, shape):
        # a beam that does not broadcast to the pairs raises DomainError naming both shapes
        with pytest.raises(DomainError, match=rf"^beam of shape {re.escape(str(shape))} does not "
                                              r"broadcast to the pairs' shape \(2,\) of triples "
                                              r"of shape \(2, 4, 3\)$"):
            probabilities_from_triples(np.ones((2, 4, 3)), np.ones(shape))

    @staticmethod
    def pair(p, i_aux, i_test=0.5, beam=1.0):
        """Triples of one pair whose outcome (1, 1) reads p by the formula at the given
        auxiliary reading; the other three read (0.4, 0.2, 0.4), p = 0.025 each."""
        i_total = (i_test + i_aux + math.sqrt(4.0 * p * beam * i_aux)) / 2.0
        return [(i_total, i_test, i_aux)] + [(0.4, 0.2, 0.4)] * 3

    def test_stripped_threshold_has_both_sides(self):
        # an auxiliary reading above 1e-15 of the beam is extracted by the formula; one
        # below it is taken as crossed and recovered from its partner, I_test / I - P_12
        p = probabilities_from_triples(self.pair(0.3, 2e-15), 1.0)
        assert p[0] == pytest.approx(0.3, rel=1e-6)
        p = probabilities_from_triples(self.pair(0.3, 5e-16), 1.0)
        assert p[0] == 0.5 - p[1]
        assert p[1] == pytest.approx(0.025, rel=1e-14)

    def test_scale_free(self):
        # triples and beam scaled together by any power of 10 give the same p: uniform triples
        # (exact p = 0.405) and a kernel pair (DOP 0.3, n = 1000, b = 0.3, a = 0.2)
        source = ensemble._draw_partially_polarized(0.3, 1000, 0)
        sd = schmidt(source)
        stacks = interferometer._moment_stacks(source.second_moments, 1000, (), NoiseModel(),
                                               [(0,)], 4)
        pol = [0.2, 0.2, 0.2 + math.pi / 2.0, 0.2 + math.pi / 2.0]
        strips = [f(sd.kappa1, sd.kappa2, 0.3) for f in interferometer._STRIP] * 2
        for triples, beam in [(np.array([[1.2, 1.0, 0.5]] * 4), 1.0),
                              (interferometer._readings(*stacks, basis_of(sd), pol, strips, 0.0)[0],
                               mean_power(source) / 2.0)]:
            expected = probabilities_from_triples(triples, beam)
            for k in range(-300, 301):
                scale = 10.0**k
                p = probabilities_from_triples(triples * scale, beam * scale)
                assert np.allclose(p, expected, rtol=1e-12, atol=0.0), k

    def test_extraction_bound_has_both_sides(self):
        # a probability up to 1 + 1e-6 is rounding and is clamped to 1; past it, a bug
        assert probabilities_from_triples(self.pair(1.0 + 5e-7, 0.5), 1.0)[0] == 1.0
        with pytest.raises(ExtractionError, match="exceeds 1 beyond tolerance"):
            probabilities_from_triples(self.pair(1.0 + 2e-6, 0.5), 1.0)

    def test_broadcasts_like_one_call_per_pair(self):
        # triples (3, 2, 4, 3) of known probabilities, one beam per leading index
        rng = np.random.default_rng(5)
        beam = rng.uniform(1.0, 2.0, (3, 1))
        i_test, i_aux = rng.uniform(0.5, 1.0, (2, 3, 2, 4))
        known = rng.uniform(0.0, 1.0, (3, 2, 4))
        i_total = (i_test + i_aux + np.sqrt(4.0 * beam[..., None] * i_aux * known)) / 2.0
        triples = np.stack([i_total, i_test, i_aux], axis=-1)
        triples[0, 1, 0, 2] = 0.0  # one crossed outcome
        p = probabilities_from_triples(triples, beam)
        assert p.shape == (3, 2, 4)
        lit = np.ones(known.shape, dtype=bool)
        lit[0, 1, 0] = False
        assert np.allclose(p[lit], known[lit], rtol=0.0, atol=1e-12)
        for i, j in np.ndindex(3, 2):
            assert np.array_equal(p[i, j], probabilities_from_triples(triples[i, j], beam[i, 0]))

    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=NOISE_IDS)
    def test_replays_the_kernel_triples(self, noise):
        # the kernel's second stage is the public function: its triples, replayed
        # through it, give every probability of a b = 0 scan with crossed points, byte
        # for byte, at each run's beam tr J / 2
        e = synthesize_partially_polarized(0.3, 1.0, 4000, 7)
        sd = schmidt(e)
        grid = np.array([0.0, 0.4, math.pi / 2.0])
        stacks = interferometer._moment_stacks(e.second_moments, e.n, (), noise, [(7, 0, 716)], 12)
        pol = np.repeat(grid, 4) + np.tile([0.0, 0.0, math.pi / 2.0, math.pi / 2.0], 3)
        strips = np.tile([stripping_angle(sd.kappa1, sd.kappa2, 0.0),
                          stripping_angle_orthogonal(sd.kappa1, sd.kappa2, 0.0)], 6)
        triples = interferometer._readings(*stacks, basis_of(sd), pol, strips,
                                           noise.extinction_ratio)
        if noise == NoiseModel():  # a = 0 and a = pi/2 each have two crossed outcomes
            assert np.sum(triples[..., 2] <= 1e-15 * mean_power(e) / 2.0) == 4
        p = probabilities_from_triples(triples.reshape(3, 4, 3), mean_power(e) / 2.0)
        curve = scan_correlation(e, sd, 0.0, grid, noise, 7)
        assert np.array_equal(p.T, [curve.p11, curve.p12, curve.p21, curve.p22])

    def test_readme_lab_example(self):
        # every python block of README runs as written; the lab's block turns the 16 triples
        # of a Schmidt-form field at the max_chsh settings into its maximum, to 1e-12
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
        section = readme.split("### A lab's 16 triples to a CHSH value\n", 1)[1]
        lab = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert len(blocks) >= 2 and lab in blocks
        for block in blocks:
            namespace = {}
            exec(block, namespace)
            if block == lab:
                chsh, k1, k2 = (namespace[key] for key in ("chsh", "k1", "k2"))
                assert abs(chsh - max_chsh(k1, k2)[0]) <= 1e-12


def reference_readings(j, k, basis, pol, strip, extinction):
    """Shutter triples (R, M, 3) one setting at a time, from the optics chains
    and ``chain_power``: K is one per run, shape (R, 2, 2), or per reading."""
    k = np.broadcast_to(k[:, None] if k.ndim == 3 else k, (len(j), len(pol), 2, 2))
    out = np.empty((len(j), len(pol), 3))
    for m, (a, s) in enumerate(zip(pol, strip)):
        pol_a = polarizer_matrix(polarizer_axis(basis, a), extinction)
        pol_s = polarizer_matrix(polarizer_axis(basis, s), extinction)
        test_chain, _ = beamsplitter_split(pol_a)
        _, aux_chain = beamsplitter_split(pol_a @ pol_s)
        out_aux = beamsplitter_combine(aux_chain, np.zeros((2, 2)))
        out_test = beamsplitter_combine(np.zeros((2, 2)), test_chain)
        for r in range(len(j)):
            test = chain_power(test_chain, j[r]) / 2.0
            aux = chain_power(aux_chain, j[r]) / 2.0
            cross = np.sum((out_aux.conj().T @ out_test) * k[r, m]).real
            out[r, m] = test + aux + 2.0 * cross, 2.0 * test, 2.0 * aux
    return out


class TestReadingForms:
    """Each reading is a real quadratic form in a run's moments, built once per
    setting and read by one product per run."""

    @staticmethod
    def stacks(runs, jittered):
        """J of a DOP 0.3 source and its runs - 1 resamples, and K: J itself, or one
        non-Hermitian K per reading (half of J plus 1% of tr J of complex noise)."""
        source = ensemble._draw_partially_polarized(0.3, 1000, 3)
        t = bartlett_factors((3, 715), 1000, runs - 1) if runs > 1 else ()
        j, k, _ = interferometer._moment_stacks(source.second_moments, 1000, t, NoiseModel(),
                                                [(3, r) for r in range(runs)], 12)
        if jittered:
            rng = np.random.default_rng(4)
            noise = rng.standard_normal((runs, 12, 2, 2)) + 1j * rng.standard_normal(
                (runs, 12, 2, 2))
            k = 0.5 * j[:, None] + 0.01 * np.trace(j, axis1=1, axis2=2).real[:, None, None,
                                                                             None] * noise
        return schmidt(source), j, k

    @staticmethod
    def settings(sd):
        """12 settings at b = 0.3: three polarizer angles behind each stripping polarizer
        of l = 1, 2, and each stripping polarizer crossed with a test polarizer."""
        strips = [f(sd.kappa1, sd.kappa2, 0.3) for f in interferometer._STRIP]
        pol = [0.1, 0.9, 2.0] * 2 + [s + math.pi / 2.0 for s in strips] * 3
        return np.array(pol), np.array([strips[0]] * 3 + [strips[1]] * 3 + strips * 3)

    @pytest.mark.parametrize("runs", [1, 17, 33])
    @pytest.mark.parametrize("extinction", [0.0, 1e-3])
    @pytest.mark.parametrize("jittered", [False, True], ids=["one-k-per-run", "jittered"])
    def test_match_the_optics_algebra(self, runs, extinction, jittered):
        sd, j, k = self.stacks(runs, jittered)
        pol, strip = self.settings(sd)
        readings = interferometer._readings(j, k, np.zeros((runs, 12, 3)), basis_of(sd), pol,
                                            strip, extinction)
        expected = reference_readings(j, k, basis_of(sd), pol, strip, extinction)
        traces = np.trace(j, axis1=1, axis2=2).real
        assert np.all(np.abs(readings - expected) <= 1e-15 * traces[:, None, None])

    @pytest.mark.parametrize("extinction", [0.0, 1e-3])
    @pytest.mark.parametrize("jittered", [False, True], ids=["one-k-per-run", "jittered"])
    def test_run_bytes_do_not_depend_on_the_run_count(self, extinction, jittered):
        sd, j, k = self.stacks(33, jittered)
        pol, strip = self.settings(sd)
        full = interferometer._readings(j, k, np.zeros((33, 12, 3)), basis_of(sd), pol, strip,
                                        extinction)
        for runs in (1, 17):
            part = interferometer._readings(j[:runs], k[:runs], np.zeros((runs, 12, 3)),
                                            basis_of(sd), pol, strip, extinction)
            assert part.tobytes() == full[:runs].tobytes(), runs

    def test_stripped_outcomes_of_the_default_scan(self, monkeypatch, capsys):
        # run 0 of the default scan's b = 0 curve (seed 0) reads its dark outcomes, aux at
        # most 1e-15 of the beam, at a = 0 and a = pi/2 only, as before the readings became
        # real forms
        seen = []
        extract = interferometer.probabilities_from_triples
        monkeypatch.setattr(interferometer, "probabilities_from_triples",
                            lambda t, beam: (seen.append((t, beam)), extract(t, beam))[1])
        assert cli.main(["scan", "--format", "json", "--b-list", "0"]) == 0
        capsys.readouterr()
        t, beam = seen[0]
        stripped = t[0, ..., 2] <= 1e-15 * beam[0]
        assert np.argwhere(stripped).tolist() == [[0, 1], [0, 2], [45, 0], [45, 3]]

    def test_scan_bytes_at_one_and_two_blas_threads(self):
        # 17 runs of 360 readings per curve, K one per run (ideal) and one per reading (jitter)
        code = ("import sys; from wavebell.cli import main\n"
                "for noise in ('0', '0.05'):\n"
                "    assert main(['scan', '--format', 'json', '--n', '3000', '--b-list', '0,0.3', "
                "'--noise-phase', noise]) == 0")
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(interferometer.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]
