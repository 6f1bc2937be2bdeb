import math
import re

import numpy as np
import pytest

from wavebell import (
    DegenerateFieldError,
    DomainError,
    FieldEnsemble,
    apply,
    beamsplitter_combine,
    beamsplitter_split,
    chain_power,
    kappa_from_dop,
    reduce_polarizer_angle,
    schmidt,
    schmidt_functions,
    stokes,
    stripping_angle,
    stripping_angle_orthogonal,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
    waveplate_matrix,
)
from wavebell.ensemble import inner
from wavebell.optics import LabBasis, _axis, polarizer_axis, polarizer_matrix

XY = LabBasis(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def random_lab_basis(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(v)
    return LabBasis(q[:, 0], q[:, 1])


def power(x):
    """Mean power of an (n, 2) realization array."""
    return float(np.trace(FieldEnsemble(x).second_moments).real)


def rotated(v1, v2, angle):
    """The basis (v1, v2) rotated by ``angle``: its second vector is the first
    vector of (v2, -v1) rotated by ``angle``."""
    return _axis(v1, v2, angle), _axis(v2, -v1, angle)


class TestRotations:
    def test_identity(self):
        v1, v2 = rotated(XY.v1, XY.v2, 0.0)
        assert np.array_equal(v1, XY.v1) and np.array_equal(v2, XY.v2)
        assert np.array_equal(polarizer_axis(XY, 0.0), XY.v1)

    def test_quarter_turn(self):
        v1, v2 = rotated(XY.v1, XY.v2, math.pi / 2.0)
        assert np.allclose(v1, -XY.v2, atol=1e-15)
        assert np.allclose(v2, XY.v1, atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_composition(self, seed):
        rng = np.random.default_rng(seed)
        base = random_lab_basis(seed)
        a1, a2 = rng.uniform(-4, 4, 2)
        once = rotated(*rotated(base.v1, base.v2, a1), a2)
        direct = rotated(base.v1, base.v2, a1 + a2)
        assert np.abs(once[0] - direct[0]).max() < 1e-12
        assert np.abs(once[1] - direct[1]).max() < 1e-12
        assert np.abs(polarizer_axis(LabBasis(*rotated(base.v1, base.v2, a1)), a2)
                      - direct[0]).max() < 1e-12

    def test_orthonormality_preserved(self):
        base = random_lab_basis(3)
        angles = np.array([1.234, -0.4, 7.0])
        for v1, v2 in zip(*rotated(base.v1, base.v2, angles)):
            LabBasis(v1, v2)  # orthonormal to 1e-12
            assert abs(np.vdot(v1, v2)) < 1e-12

    def test_function_basis_rotation(self):
        # the function-space rotation of joint_probability_projected: N-vectors, inner product (1/N)
        e = synthesize_partially_polarized(0.4, 1.0, 800, 1)
        f1, f2 = schmidt_functions(e, schmidt(e))
        assert np.array_equal(_axis(f1, f2, 0.0), f1)
        g1, g2 = rotated(f1, f2, 0.77)
        assert abs(inner(g1, g2)) < 1e-10
        assert abs(inner(g1, g1) - 1.0) < 1e-10 and abs(inner(g2, g2) - 1.0) < 1e-10
        assert np.abs(_axis(f1, f2, 0.3 + 2 * math.pi) - _axis(f1, f2, 0.3)).max() < 1e-12

    def test_basis_validation(self):
        with pytest.raises(DomainError):
            LabBasis(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            LabBasis(np.array([2.0, 0.0]), np.array([0.0, 1.0]))


class TestPolarizer:
    def test_aligned_axis_passes(self):
        e = FieldEnsemble(np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex))
        out = apply(polarizer_matrix(np.array([1.0, 0.0])), e)
        assert np.allclose(out.realizations, e.realizations)

    def test_crossed_axis_blocks(self):
        e = FieldEnsemble(np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex))
        out = apply(polarizer_matrix(np.array([0.0, 1.0])), e)
        assert power(out.realizations) == pytest.approx(0.0, abs=1e-30)

    def test_malus_average_on_unpolarized(self):
        n = 40_000
        e = synthesize_partially_polarized(0.0, 1.0, n, 9)
        axis = np.array([math.cos(0.7), math.sin(0.7)])
        ratio = power(apply(polarizer_matrix(axis), e).realizations) / power(e.realizations)
        assert abs(ratio - 0.5) < 3.0 / math.sqrt(n)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(DomainError):
            polarizer_matrix(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        theta, phi = rng.uniform(0, math.pi, 2)
        axis = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phi)])
        m = polarizer_matrix(axis)
        assert np.abs(m @ m - m).max() < 1e-12
        assert np.abs(m - m.conj().T).max() < 1e-15
        e = synthesize_partially_polarized(0.5, 1.0, 500, seed)
        once = apply(m, e)
        twice = apply(m, once)
        assert np.abs(twice.realizations - once.realizations).max() < 1e-12

    def test_linear_in_field(self):
        e = synthesize_partially_polarized(0.5, 1.0, 200, 4)
        m = polarizer_matrix(np.array([0.6, 0.8]))
        scaled = apply(m, FieldEnsemble(2.5 * e.realizations))
        ref = apply(m, e)
        assert np.abs(scaled.realizations - 2.5 * ref.realizations).max() < 1e-12

    def test_extinction_leakage(self):
        e = FieldEnsemble(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex))
        out = apply(polarizer_matrix(np.array([1.0, 0.0]), extinction_ratio=0.04), e)
        assert power(out.realizations) == pytest.approx(0.04, abs=1e-15)


class TestChain:
    def test_apply_composes_as_matrix_product(self):
        e = synthesize_partially_polarized(0.4, 1.0, 300, 15)
        m1 = polarizer_matrix(np.array([0.6, 0.8j]), 0.01)
        m2 = waveplate_matrix("quarter", 0.3)
        stepwise = apply(m2, apply(m1, e))
        assert np.abs(apply(m2 @ m1, e).realizations - stepwise.realizations).max() < 1e-12

    def test_chain_power_matches_fields(self):
        e = synthesize_partially_polarized(0.3, 1.7, 1000, 16)
        _, m = beamsplitter_split(
            polarizer_matrix(np.array([0.8, 0.6])) @ waveplate_matrix("half", 0.2)
        )
        assert chain_power(m, e.second_moments) == pytest.approx(
            power(apply(m, e).realizations), abs=1e-12
        )

    def test_wrong_shapes_name_them(self):
        # a 3x3 matrix, or stacks that do not broadcast, raise DomainError, not numpy's error
        e = synthesize_partially_polarized(0.3, 1.0, 10, 16)
        with pytest.raises(DomainError, match=r"^need a 2x2 Jones matrix, got shape \(3, 3\)$"):
            apply(np.eye(3), e)
        for m, j in [(np.eye(3), e.second_moments), (np.eye(2), np.eye(3)),
                     (np.ones((3, 2, 2)), np.ones((4, 2, 2)))]:
            with pytest.raises(DomainError, match=f"got shapes {re.escape(str(m.shape))} and "
                                                  f"{re.escape(str(j.shape))}$"):
                chain_power(m, j)


class TestBroadcasting:
    """An array of angles, axes or chains gives what a stack of single calls gives."""

    def test_axes_and_matrices_of_an_angle_grid(self):
        basis = random_lab_basis(21)
        angles = np.random.default_rng(21).uniform(-math.pi, math.pi, (3, 4))
        axes = polarizer_axis(basis, angles)
        assert axes.shape == (3, 4, 2)
        for eps in (0.0, 0.02):
            stacked = polarizer_matrix(axes, eps)
            assert stacked.shape == (3, 4, 2, 2)
            for idx in np.ndindex(angles.shape):
                single = polarizer_axis(basis, float(angles[idx]))
                assert np.array_equal(axes[idx], single)
                assert np.array_equal(stacked[idx], polarizer_matrix(single, eps))

    def test_axis_matches_rotated_basis(self):
        # the rotation written out once, cos v1 - sin v2 and sin v1 + cos v2, bit for bit
        basis = random_lab_basis(22)
        c, s = math.cos(0.8), math.sin(0.8)
        assert np.array_equal(polarizer_axis(basis, 0.8), c * basis.v1 - s * basis.v2)
        assert np.array_equal(_axis(basis.v2, -basis.v1, 0.8), s * basis.v1 + c * basis.v2)

    def test_non_unit_axis_in_a_stack_rejected(self):
        with pytest.raises(DomainError):
            polarizer_matrix(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_chain_power_of_chain_and_moment_stacks(self):
        chains = polarizer_matrix(polarizer_axis(random_lab_basis(23), np.linspace(0, 3, 5)), 0.01)
        moments = np.array([synthesize_partially_polarized(0.3, 1.0, 200, s).second_moments
                            for s in range(3)])
        powers = chain_power(chains, moments[:, None])
        assert powers.shape == (3, 5)
        for r, m in np.ndindex(powers.shape):
            assert powers[r, m] == chain_power(chains[m], moments[r])
        assert isinstance(chain_power(chains[0], moments[0]), float)


class TestStrippingAngle:
    def test_equal_weights_follow_b(self):
        r = 2**-0.5
        assert stripping_angle(r, r, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_zero_b(self):
        k1, k2 = kappa_from_dop(0.5)
        assert stripping_angle(k1, k2, 0.0) == 0.0

    def test_frozen_reference_angle(self):
        # atan2(0.75 sin(pi/4), 0.66143782776614768 cos(pi/4)) = 0.8480620789814809
        assert stripping_angle(0.75, 0.66143782776614768, math.pi / 4) == pytest.approx(
            0.8480620789814809, abs=1e-12
        )

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateFieldError):
            stripping_angle(1.0, 0.0, 0.3)
        with pytest.raises(DegenerateFieldError):
            stripping_angle_orthogonal(1.0, 0.0, 0.3)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(DomainError):
            stripping_angle(0.9, 0.9, 0.3)
        with pytest.raises(DomainError):  # the rounded weights (0.750, 0.661), off by 5.8e-4
            stripping_angle(0.750, 0.661, math.pi / 4)

    def test_orthogonal_special_cases(self):
        r = 2**-0.5
        for b in (0.3, 1.2, -0.8):
            sp = stripping_angle_orthogonal(r, r, b)
            assert math.remainder(sp - (b + math.pi / 2), math.pi) == pytest.approx(
                0.0, abs=1e-12
            )
        k1, k2 = kappa_from_dop(0.4)
        assert stripping_angle_orthogonal(k1, k2, math.pi / 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_range_reduction(self):
        assert reduce_polarizer_angle(math.pi / 2) == pytest.approx(math.pi / 2)
        assert reduce_polarizer_angle(-math.pi / 2) == pytest.approx(math.pi / 2)
        assert reduce_polarizer_angle(3 * math.pi / 4) == pytest.approx(-math.pi / 4)
        for k1, k2, b in [(0.75, 0.66143782776614768, 2.9), (0.9, 0.43588989435406733, -2.2)]:
            s = stripping_angle(k1, k2, b)
            assert -math.pi / 2 < s <= math.pi / 2
            assert math.tan(s) == pytest.approx((k1 / k2) * math.tan(b), rel=1e-9)


def strip_overlap(beam, fvec, source_intensity):
    """Normalized total overlap of a beam with a function-space vector."""
    total = 0.0
    for p in range(2):
        total += abs(inner(fvec, beam.realizations[:, p])) ** 2
    return math.sqrt(total / source_intensity)


class TestStrippingAction:
    @pytest.mark.parametrize("seed,d,b", [(0, 0.125, 0.6), (1, 0.5, -1.1), (2, 0.8, 2.4)])
    def test_strips_second_component(self, seed, d, b):
        k1, k2 = kappa_from_dop(d)
        field = synthesize_schmidt_form(k1, k2, n=400, seed=seed)
        sd = schmidt(field)
        _, g2 = rotated(*schmidt_functions(field, sd), b)
        s = stripping_angle(sd.kappa1, sd.kappa2, b)
        out = apply(polarizer_matrix(polarizer_axis(LabBasis(sd.u1, sd.u2), s)), field)
        assert strip_overlap(out, g2, sd.intensity) < 1e-10

    @pytest.mark.parametrize("seed,d,b", [(3, 0.125, 0.6), (4, 0.5, -1.1), (5, 0.9, 0.2)])
    def test_orthogonal_strips_first_component(self, seed, d, b):
        k1, k2 = kappa_from_dop(d)
        field = synthesize_schmidt_form(k1, k2, n=400, seed=seed)
        sd = schmidt(field)
        g1, _ = rotated(*schmidt_functions(field, sd), b)
        sp = stripping_angle_orthogonal(sd.kappa1, sd.kappa2, b)
        out = apply(polarizer_matrix(polarizer_axis(LabBasis(sd.u1, sd.u2), sp)), field)
        assert strip_overlap(out, g1, sd.intensity) < 1e-12

    def test_sampled_ensemble_strip(self):
        e = synthesize_partially_polarized(0.125, 1.0, 5000, 6)
        sd = schmidt(e)
        b = 0.9
        _, g2 = rotated(*schmidt_functions(e, sd), b)
        s = stripping_angle(sd.kappa1, sd.kappa2, b)
        out = apply(polarizer_matrix(polarizer_axis(LabBasis(sd.u1, sd.u2), s)), e)
        assert strip_overlap(out, g2, sd.intensity) < 1e-10


class TestBeamsplitters:
    def test_split_conserves_intensity(self):
        e = synthesize_partially_polarized(0.3, 1.7, 1000, 7)
        test, aux = beamsplitter_split(e.realizations)
        assert power(test) + power(aux) == pytest.approx(power(e.realizations), abs=1e-12)

    def test_split_outputs_proportional(self):
        # transmit 1/sqrt2, reflect i/sqrt2
        e = synthesize_partially_polarized(0.3, 1.0, 100, 8)
        test, aux = beamsplitter_split(e.realizations)
        assert np.abs(test - e.realizations / math.sqrt(2)).max() < 1e-15
        assert np.abs(aux - 1j * test).max() < 1e-15

    def test_double_split(self):
        e = synthesize_partially_polarized(0.0, 1.0, 100, 9)
        t1, _ = beamsplitter_split(e.realizations)
        t2, _ = beamsplitter_split(t1)
        assert power(t2) == pytest.approx(power(e.realizations) / 4.0, abs=1e-12)

    def test_combine_dark_aux(self):
        e = synthesize_partially_polarized(0.2, 1.0, 100, 10)
        out = beamsplitter_combine(np.zeros_like(e.realizations), e.realizations)
        assert power(out) == pytest.approx(power(e.realizations) / 2.0, abs=1e-12)
        assert np.abs(out - 1j * e.realizations / math.sqrt(2)).max() < 1e-15

    def test_split_then_combine_reconstructs(self):
        # combine = (aux + i test)/sqrt2
        e = synthesize_partially_polarized(0.4, 1.0, 100, 11)
        test, aux = beamsplitter_split(e.realizations)
        out = beamsplitter_combine(aux, test)
        assert power(out) == pytest.approx(power(e.realizations), abs=1e-12)
        assert np.abs(out - 1j * e.realizations).max() < 1e-12

    def test_combine_bound(self):
        a = synthesize_partially_polarized(0.1, 1.0, 500, 12).realizations
        b = synthesize_partially_polarized(0.7, 0.5, 500, 13).realizations
        out = beamsplitter_combine(a, b)
        assert power(out) <= power(a) + power(b) + 1e-12

    def test_mismatched_counts(self):
        a = synthesize_partially_polarized(0.1, 1.0, 100, 1).realizations
        b = synthesize_partially_polarized(0.1, 1.0, 101, 1).realizations
        with pytest.raises(DomainError):
            beamsplitter_combine(a, b)

    def test_split_acts_on_chain_matrices(self):
        # the same split serves a 2x2 chain matrix and the realizations
        e = synthesize_partially_polarized(0.3, 1.0, 200, 14)
        m = polarizer_matrix(np.array([0.6, 0.8]))
        for chain, arm in zip(beamsplitter_split(m), beamsplitter_split(e.realizations)):
            assert np.abs(apply(chain, e).realizations - arm @ m.T).max() < 1e-15


class TestWaveplates:
    def test_hwp_at_zero_preserves_x(self):
        e = FieldEnsemble(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
        out = apply(waveplate_matrix("half", 0.0), e)
        s = stokes(out.second_moments)
        assert s.s1 == pytest.approx(s.s0, abs=1e-12)

    def test_hwp_rotates_x_to_diagonal(self):
        e = FieldEnsemble(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
        out = apply(waveplate_matrix("half", math.pi / 8.0), e)
        s = stokes(out.second_moments)
        assert s.s2 == pytest.approx(s.s0, abs=1e-12)
        assert s.s1 == pytest.approx(0.0, abs=1e-12)

    def test_qwp_makes_circular(self):
        e = FieldEnsemble(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))
        out = apply(waveplate_matrix("quarter", math.pi / 4.0), e)
        s = stokes(out.second_moments)
        assert abs(s.s3) == pytest.approx(s.s0, abs=1e-12)

    def test_unitarity(self):
        e = synthesize_partially_polarized(0.4, 1.3, 500, 14)
        for kind in ("half", "quarter"):
            m = waveplate_matrix(kind, 0.7)
            assert np.abs(m.conj().T @ m - np.eye(2)).max() < 1e-15
            after = power(apply(m, e).realizations)
            assert after == pytest.approx(power(e.realizations), abs=1e-12)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            waveplate_matrix("third", 0.0)
