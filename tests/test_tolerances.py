"""Each validity rule walked across its tolerance, at every entry point that applies it.

Rules: Schmidt weights normalized (kappa1^2 + kappa2^2 = 1 to 1e-12), orthonormal
vectors and unit polarizer axes (to 1e-12), the coherence cone |S| <= S0 (to 1e-10
of S0, no absolute floor), the extinction ratio in [0, 1], and finite angles.  An
input at half the tolerance passes, one at twice the tolerance fails, and NaN and
inf fail.  Seeds and counts must be integers in range, and second moments must
stay in the float range.
"""

import math

import numpy as np
import pytest

from wavebell import (
    AngleSettings,
    DomainError,
    FieldEnsemble,
    NoiseModel,
    ProtocolConfig,
    SchmidtDecomposition,
    StokesVector,
    cosine_response_model,
    dop,
    joint_probability_kappa,
    joint_probability_projected,
    lhv_correlation,
    max_chsh,
    measure_correlation,
    measure_intensities,
    measure_joint_probability,
    reduce_polarizer_angle,
    rotate_function_basis,
    rotate_lab_basis,
    scan_correlation,
    schmidt,
    schmidt_functions,
    stokes,
    stripping_angle,
    stripping_angle_orthogonal,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
    tomography,
    waveplate_matrix,
)
from wavebell.optics import FunctionBasis, LabBasis, polarizer_axis, polarizer_matrix

INSIDE, OUTSIDE = 5e-13, 2e-12  # half and twice the 1e-12 tolerance
BAD = (math.nan, math.inf)
X, Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
KAPPA_MSG = r"need kappa1, kappa2 >= 0 with kappa1\^2 \+ kappa2\^2 = 1, got "
BASIS_MSG = r"need orthonormal v1, v2, got "

KAPPA_ENTRY_POINTS = {
    "SchmidtDecomposition": lambda k1, k2: SchmidtDecomposition(k1, k2, X, Y, 1.0),
    "synthesize_schmidt_form": lambda k1, k2: synthesize_schmidt_form(k1, k2, n=8),
    "max_chsh": max_chsh,
    "stripping_angle": lambda k1, k2: stripping_angle(k1, k2, 0.3),
    "stripping_angle_orthogonal": lambda k1, k2: stripping_angle_orthogonal(k1, k2, 0.3),
}


def weights(off):
    """(kappa1, 0.6) with kappa1^2 + 0.6^2 - 1 = off to rounding."""
    k1 = math.sqrt(1.0 - 0.36 + off)
    assert abs(k1**2 + 0.36 - 1.0 - off) < 1e-15
    return k1, 0.6


@pytest.mark.parametrize("entry", KAPPA_ENTRY_POINTS)
class TestSchmidtWeights:
    @pytest.mark.parametrize("off", [INSIDE, -INSIDE])
    def test_inside_tolerance_accepted(self, entry, off):
        KAPPA_ENTRY_POINTS[entry](*weights(off))

    @pytest.mark.parametrize("off", [OUTSIDE, -OUTSIDE])
    def test_outside_tolerance_rejected(self, entry, off):
        with pytest.raises(DomainError, match=KAPPA_MSG):
            KAPPA_ENTRY_POINTS[entry](*weights(off))

    @pytest.mark.parametrize("bad", BAD + (-math.inf,))
    def test_non_finite_rejected(self, entry, bad):
        for pair in ((bad, 0.6), (0.8, bad), (bad, bad)):
            with pytest.raises(DomainError, match=KAPPA_MSG):
                KAPPA_ENTRY_POINTS[entry](*pair)

    def test_negative_weight_rejected(self, entry):
        with pytest.raises(DomainError, match=KAPPA_MSG):
            KAPPA_ENTRY_POINTS[entry](0.8, -0.6)

    def test_huge_weight_rejected(self, entry):
        for big in (1e200, np.float64(1e200)):  # a square would overflow
            with pytest.raises(DomainError, match=KAPPA_MSG):
                KAPPA_ENTRY_POINTS[entry](big, 0.6)


def test_rounded_weights_rejected_everywhere():
    # (0.750, 0.661) is off by 5.8e-4; the stripping angle once took it
    for entry in KAPPA_ENTRY_POINTS.values():
        with pytest.raises(DomainError, match=KAPPA_MSG + "0.75, 0.661"):
            entry(0.75, 0.661)


def test_nan_weights_name_the_rule():
    for entry in KAPPA_ENTRY_POINTS.values():
        with pytest.raises(DomainError, match=KAPPA_MSG + "nan, nan"):
            entry(math.nan, math.nan)


def test_weight_order_still_checked():
    with pytest.raises(DomainError, match="need kappa1 >= kappa2, got 0.6, 0.8"):
        SchmidtDecomposition(0.6, 0.8, X, Y, 1.0)


def lab_pairs(off):
    """Pairs with <v1|v1> - 1 = off, and with <v1|v2> = off, to rounding."""
    return [(math.sqrt(1.0 + off) * X, Y), (X, np.array([off, math.sqrt(1.0 - off**2)]))]


BASIS_ENTRY_POINTS = {
    "LabBasis": lambda v1, v2: LabBasis(v1, v2),
    "SchmidtDecomposition": lambda v1, v2: SchmidtDecomposition(0.8, 0.6, v1, v2, 1.0),
    "synthesize_schmidt_form": lambda v1, v2: synthesize_schmidt_form(0.8, 0.6, n=8, u1=v1,
                                                                      u2=v2),
    # the same pairs as (n=2) function-space vectors under the (1/N) inner product
    "FunctionBasis": lambda v1, v2: FunctionBasis(math.sqrt(2.0) * v1, math.sqrt(2.0) * v2),
}


@pytest.mark.parametrize("entry", BASIS_ENTRY_POINTS)
class TestOrthonormalPair:
    @pytest.mark.parametrize("off", [INSIDE, -INSIDE])
    def test_inside_tolerance_accepted(self, entry, off):
        for pair in lab_pairs(off):
            BASIS_ENTRY_POINTS[entry](*pair)

    @pytest.mark.parametrize("off", [OUTSIDE, -OUTSIDE])
    def test_outside_tolerance_rejected(self, entry, off):
        for pair in lab_pairs(off):
            with pytest.raises(DomainError, match=BASIS_MSG):
                BASIS_ENTRY_POINTS[entry](*pair)

    @pytest.mark.parametrize("bad", BAD)
    def test_non_finite_rejected(self, entry, bad):
        for pair in ((np.array([bad, 0.0]), Y), (X, np.array([0.0, bad]))):
            with pytest.raises(DomainError, match=BASIS_MSG):
                BASIS_ENTRY_POINTS[entry](*pair)

    def test_orthogonal_but_not_unit_rejected(self, entry):
        with pytest.raises(DomainError, match=BASIS_MSG):
            BASIS_ENTRY_POINTS[entry](np.array([2.0, 0.0]), np.array([0.0, 3j]))


class TestPolarizerAxis:
    @pytest.mark.parametrize("off", [INSIDE, -INSIDE])
    def test_inside_tolerance_accepted(self, off):
        polarizer_matrix(math.sqrt(1.0 + off) * X)
        polarizer_matrix(np.array([X, math.sqrt(1.0 + off) * Y]))

    @pytest.mark.parametrize("off", [OUTSIDE, -OUTSIDE])
    def test_outside_tolerance_rejected(self, off):
        with pytest.raises(DomainError, match="unit polarizer axes"):
            polarizer_matrix(math.sqrt(1.0 + off) * X)
        with pytest.raises(DomainError, match="unit polarizer axes"):
            polarizer_matrix(np.array([X, math.sqrt(1.0 + off) * Y]))

    @pytest.mark.parametrize("bad", BAD)
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="unit polarizer axes"):
            polarizer_matrix(np.array([bad, 0.0]))
        with pytest.raises(DomainError, match="unit polarizer axes"):
            polarizer_matrix(np.array([X, [0.0, bad]]))

    def test_shape_checked(self):
        for bad in (1.0, np.ones(3), np.ones((2, 3))):
            with pytest.raises(DomainError, match="2-component"):
                polarizer_matrix(bad)


def cone_stokes(s0, off):
    """A Stokes vector with |S| = (1 + off) S0, split over S1, S2 and S3."""
    return s0, 0.6 * (1.0 + off) * s0, 0.0, 0.8 * (1.0 + off) * s0


def coherence(s0, s1, s2, s3):
    return np.array([[(s0 + s1) / 2, complex(s2, s3) / 2], [complex(s2, -s3) / 2, (s0 - s1) / 2]])


@pytest.mark.parametrize("s0", [1.0, 1e-6])
class TestCoherenceCone:
    # |S| <= S0 to 1e-10 of S0, so the walk is at half and twice 1e-10
    def test_inside_tolerance_accepted(self, s0):
        for off in (0.0, 5e-11):
            s = cone_stokes(s0, off)
            assert dop(StokesVector(*s)) == pytest.approx(1.0 + off, abs=1e-15)
            assert dop(stokes(coherence(*s))) == pytest.approx(1.0 + off, abs=1e-15)

    def test_outside_tolerance_rejected(self, s0):
        s = cone_stokes(s0, 2e-10)
        with pytest.raises(DomainError, match=r"\|S\| <= S0"):
            StokesVector(*s)
        with pytest.raises(DomainError, match=r"\|S\| <= S0"):
            stokes(coherence(*s))

    @pytest.mark.parametrize("bad", BAD + (-math.inf,))
    def test_non_finite_rejected(self, s0, bad):
        for i in range(4):
            s = list(cone_stokes(s0, 0.0))
            s[i] = bad
            with pytest.raises(DomainError):
                StokesVector(*s)
            with pytest.raises(DomainError):
                stokes(coherence(*s))

    def test_negative_s0_rejected(self, s0):
        with pytest.raises(DomainError, match=r"\|S\| <= S0"):
            StokesVector(-s0, 0.0, 0.0, 0.0)

    def test_hermitian_relative_to_largest_entry(self, s0):
        j = coherence(*cone_stokes(s0, -0.5))
        stokes(j + [[0.0, 0.5e-10 * s0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="Hermitian"):
            stokes(j + [[0.0, 2e-10 * s0], [0.0, 0.0]])


def test_small_stokes_vector_outside_cone_rejected():
    # an absolute floor once let this through, with a DOP of 30
    with pytest.raises(DomainError):
        StokesVector(1e-6, 3e-5, 0.0, 0.0)


def test_small_indefinite_coherence_matrix_rejected():
    # smallest eigenvalue -4e-11: once read as a DOP of 9
    with pytest.raises(DomainError):
        stokes(np.array([[5e-11, 0.0], [0.0, -4e-11]]))


EXTINCTION_ENTRY_POINTS = {
    "polarizer_matrix": lambda eps: polarizer_matrix(X, eps),
    "NoiseModel": lambda eps: NoiseModel(extinction_ratio=eps),
}


@pytest.mark.parametrize("entry", EXTINCTION_ENTRY_POINTS)
class TestExtinctionRatio:
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
    def test_closed_unit_interval_accepted(self, entry, eps):
        EXTINCTION_ENTRY_POINTS[entry](eps)

    @pytest.mark.parametrize("eps", [np.nextafter(1.0, 2.0), 5.0, -5e-324, -1e-3]
                             + [math.nan, math.inf, -math.inf])
    def test_outside_rejected(self, entry, eps):
        with pytest.raises(DomainError, match=r"extinction_ratio must lie in \[0, 1\], got "):
            EXTINCTION_ENTRY_POINTS[entry](eps)


class TestFiniteRealizations:
    @pytest.mark.parametrize("bad", BAD + (-math.inf,))
    def test_constructor_rejects(self, bad):
        for row in ([1.0, bad], [bad * 1j, 0.2], [bad, -bad]):
            with pytest.raises(DomainError, match="realizations must be finite"):
                FieldEnsemble(np.array([row, [0.5, 0.2]], dtype=complex))
        with pytest.raises(DomainError, match="realizations must be finite"):
            FieldEnsemble(np.array([[bad, 0.0], [-bad, 0.0]], dtype=complex))

    def test_overflowing_second_moments_named(self):
        # every entry and their sum are finite, but |E|^2 = 1e400 is not
        e = FieldEnsemble(np.full((4, 2), 1e200))
        for read in (lambda: e.second_moments, lambda: schmidt(e), lambda: tomography(e)):
            with pytest.raises(DomainError, match="second moments overflow"):
                read()


FIELD = synthesize_schmidt_form(0.8, 0.6, n=8)
SD = schmidt(FIELD)

ANGLE_ENTRY_POINTS = {
    "AngleSettings": lambda x: AngleSettings(0.1, 0.2, 0.3, x),
    "polarizer_axis": lambda x: polarizer_axis(LabBasis(X, Y), np.array([0.1, x])),
    "rotate_lab_basis": lambda x: rotate_lab_basis(LabBasis(X, Y), x),
    "rotate_function_basis": lambda x: rotate_function_basis(FunctionBasis(*schmidt_functions(FIELD, SD)), x),
    "reduce_polarizer_angle": reduce_polarizer_angle,
    "waveplate_matrix": lambda x: waveplate_matrix("half", x),
    "stripping_angle": lambda x: stripping_angle(0.8, 0.6, x),
    "stripping_angle_orthogonal": lambda x: stripping_angle_orthogonal(0.8, 0.6, x),
    "joint_probability_kappa-a": lambda x: joint_probability_kappa(0.8, 0.6, x, 0.3, 1, 1),
    "joint_probability_kappa-b": lambda x: joint_probability_kappa(0.8, 0.6, 0.3, x, 1, 1),
    "joint_probability_projected-a": lambda x: joint_probability_projected(FIELD, SD, x, 0.3, 1, 1),
    "joint_probability_projected-b": lambda x: joint_probability_projected(FIELD, SD, 0.3, x, 1, 1),
    "measure_intensities-a": lambda x: measure_intensities(FIELD, x, 0.3, basis=LabBasis(X, Y)),
    "measure_intensities-s": lambda x: measure_intensities(FIELD, 0.3, x, basis=LabBasis(X, Y)),
    "measure_joint_probability-a": lambda x: measure_joint_probability(FIELD, SD, x, 0.3, 1, 1),
    "measure_joint_probability-b": lambda x: measure_joint_probability(FIELD, SD, 0.3, x, 1, 1),
    "measure_correlation-a": lambda x: measure_correlation(FIELD, SD, x, 0.3),
    "measure_correlation-b": lambda x: measure_correlation(FIELD, SD, 0.3, x),
    "scan_correlation-a": lambda x: scan_correlation(FIELD, SD, 0.3, [0.1, x]),
    "scan_correlation-b": lambda x: scan_correlation(FIELD, SD, x, [0.1]),
    "lhv_correlation-a": lambda x: lhv_correlation(cosine_response_model(), x, 0.3, 10, 0),
    "lhv_correlation-b": lambda x: lhv_correlation(cosine_response_model(), 0.3, x, 10, 0),
}


@pytest.mark.parametrize("bad", BAD + (-math.inf,))
@pytest.mark.parametrize("entry", ANGLE_ENTRY_POINTS)
def test_non_finite_angle_rejected(entry, bad):
    with pytest.raises(DomainError, match="^angles must be finite$"):
        ANGLE_ENTRY_POINTS[entry](bad)


# Seeds, realization counts and resample counts are integers: a negative seed, a
# fractional n or fractional resamples is named at the entry point, neither
# truncated nor left to a numpy error.
COUNT_ENTRY_POINTS = {
    "synthesize_partially_polarized-seed": lambda: synthesize_partially_polarized(0.3, 1.0, 8, -1),
    "synthesize_partially_polarized-n": lambda: synthesize_partially_polarized(0.3, 1.0, 2.5, 0),
    "synthesize_schmidt_form-seed": lambda: synthesize_schmidt_form(0.8, 0.6, n=8, seed=-1),
    "synthesize_schmidt_form-n": lambda: synthesize_schmidt_form(0.8, 0.6, n=2.5),
    "ProtocolConfig-seed": lambda: ProtocolConfig(dop=0.3, n=8, seed=-1),
    "ProtocolConfig-n": lambda: ProtocolConfig(dop=0.3, n=2.5, seed=0),
    "ProtocolConfig-resamples": lambda: ProtocolConfig(dop=0.3, n=8, seed=0, resamples=10.5),
    "scan_correlation-seed": lambda: scan_correlation(FIELD, SD, 0.3, [0.1], seed=-1),
    "scan_correlation-resamples": lambda: scan_correlation(FIELD, SD, 0.3, [0.1], resamples=10.5),
    "measure_intensities-seed": lambda: measure_intensities(FIELD, 0.1, 0.3, seed=(2, -1),
                                                            basis=LabBasis(X, Y)),
    "measure_joint_probability-seed": lambda: measure_joint_probability(FIELD, SD, 0.1, 0.3, 1, 1,
                                                                        seed=-1),
    "measure_correlation-seed": lambda: measure_correlation(FIELD, SD, 0.1, 0.3, seed=-1),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_bad_count_rejected(entry):
    with pytest.raises(DomainError, match=r"must be an integer >= \d, got "):
        COUNT_ENTRY_POINTS[entry]()
