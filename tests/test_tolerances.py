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
    DegenerateFieldError,
    DomainError,
    FieldEnsemble,
    NoiseModel,
    ProtocolConfig,
    SchmidtDecomposition,
    StokesVector,
    correlation_closed_form,
    cosine_response_model,
    lhv_chsh,
    dop,
    joint_probability_kappa,
    joint_probability_projected,
    lhv_correlation,
    max_chsh,
    measure_intensities,
    reduce_polarizer_angle,
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
from wavebell.optics import LabBasis, _axis, polarizer_axis, polarizer_matrix

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
    "joint_probability_kappa": lambda k1, k2: joint_probability_kappa(k1, k2, 0.3, 0.2, 1, 1),
    "correlation_closed_form": lambda k1, k2: correlation_closed_form(k1, k2, 0.3, 0.5),
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


def test_edge_weights_accepted():
    # a weight of exactly 0 is in range: (1, 0) everywhere but the stripping angles (fully
    # polarized), and (0, 1) everywhere but SchmidtDecomposition (which orders the pair)
    for name, entry in KAPPA_ENTRY_POINTS.items():
        if not name.startswith("stripping"):
            entry(1.0, 0.0)
        if name != "SchmidtDecomposition":
            entry(0.0, 1.0)


def test_fully_polarized_threshold_has_both_sides():
    # stripping needs kappa2 > 1e-12: 1e-10 strips, 1e-12 and 1e-13 are fully polarized
    for strip in (stripping_angle, stripping_angle_orthogonal):
        strip(1.0, 1e-10, 0.3)
        for kappa2 in (1e-12, 1e-13):
            with pytest.raises(DegenerateFieldError, match="fully polarized"):
                strip(1.0, kappa2, 0.3)


def test_rounded_weights_rejected_everywhere():
    # (0.750, 0.661) is off by 5.8e-4; the stripping angle once took it
    for entry in KAPPA_ENTRY_POINTS.values():
        with pytest.raises(DomainError, match=KAPPA_MSG + "0.75, 0.661"):
            entry(0.75, 0.661)


def test_nan_weights_name_the_rule():
    for entry in KAPPA_ENTRY_POINTS.values():
        with pytest.raises(DomainError, match=KAPPA_MSG + "nan, nan"):
            entry(math.nan, math.nan)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_schmidt_intensity_positive_and_finite(bad):
    with pytest.raises(DomainError, match="intensity must be positive and finite"):
        SchmidtDecomposition(0.8, 0.6, X, Y, bad)


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
}


@pytest.mark.parametrize("entry", BASIS_ENTRY_POINTS)
class TestOrthonormalPair:
    @pytest.mark.parametrize("off", [INSIDE, -INSIDE])
    def test_inside_tolerance_accepted(self, entry, off):
        for pair in lab_pairs(off):
            BASIS_ENTRY_POINTS[entry](*pair)

    def test_at_the_tolerance_accepted(self, entry):
        # <v1|v2> is exactly 1e-12: the tolerance is inclusive
        BASIS_ENTRY_POINTS[entry](X, np.array([1e-12, math.sqrt(1.0 - 1e-24)]))

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
        # accepted, and read as DOP 1: dop never exceeds 1
        for off in (0.0, 5e-11):
            s = cone_stokes(s0, off)
            for d in (dop(StokesVector(*s)), dop(stokes(coherence(*s)))):
                assert 1.0 - 1e-15 <= d <= 1.0

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

    def test_finite_entries_whose_sum_overflows_construct(self):
        # each entry is finite, so the array constructs; the overflow is named when J is read
        e = FieldEnsemble(np.full((10**5, 2), 1e304))
        for read in (lambda: e.second_moments, lambda: schmidt(e), lambda: tomography(e)):
            with pytest.raises(DomainError, match="second moments overflow"):
                read()


FIELD = synthesize_schmidt_form(0.8, 0.6, n=8)
SD = schmidt(FIELD)
SETTINGS = AngleSettings(0.1, 0.2, 0.3, 0.4)
NOISY = NoiseModel(detector_noise=1e-3, phase_jitter=0.1)

ANGLE_ENTRY_POINTS = {
    "AngleSettings": lambda x: AngleSettings(0.1, 0.2, 0.3, x),
    "polarizer_axis": lambda x: polarizer_axis(LabBasis(X, Y), np.array([0.1, x])),
    # rotate_lab_basis and rotate_function_basis were the rotation of each space, now
    # _axis on its vectors; the cases keep their names.
    "rotate_lab_basis": lambda x: _axis(X, Y, x),
    "rotate_function_basis": lambda x: _axis(*schmidt_functions(FIELD, SD), x),
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
    # measure_joint_probability(a, b, k, l, noise) and measure_correlation(a, b) read a
    # one-point scan; the cases keep their names, the first under noise.
    "measure_joint_probability-a": lambda x: scan_correlation(FIELD, SD, 0.3, [x], NOISY),
    "measure_joint_probability-b": lambda x: scan_correlation(FIELD, SD, x, [0.3], NOISY),
    "measure_correlation-a": lambda x: scan_correlation(FIELD, SD, 0.3, [x]),
    "measure_correlation-b": lambda x: scan_correlation(FIELD, SD, x, [0.3]),
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
    # the seed checks of measure_joint_probability and measure_correlation, on the
    # one-point scan that replaced them.
    "measure_joint_probability-seed": lambda: scan_correlation(FIELD, SD, 0.3, [0.1], NOISY,
                                                               seed=-1),
    "measure_correlation-seed": lambda: scan_correlation(FIELD, SD, 0.3, [0.1], seed=-1),
    "lhv_correlation-seed": lambda: lhv_correlation(cosine_response_model(), 0.1, 0.2, 10, -1),
    "lhv_correlation-seed-entry": lambda: lhv_correlation(cosine_response_model(), 0.1, 0.2, 10,
                                                          ((2, -1), 0)),
    "lhv_correlation-n_samples": lambda: lhv_correlation(cosine_response_model(), 0.1, 0.2,
                                                         10.5, 0),
    "lhv_chsh-seed": lambda: lhv_chsh(cosine_response_model(), SETTINGS, 10, -1),
    "lhv_chsh-seed-entry": lambda: lhv_chsh(cosine_response_model(), SETTINGS, 10, (2, -1)),
    "lhv_chsh-n_samples": lambda: lhv_chsh(cosine_response_model(), SETTINGS, 10.5, 0),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_bad_count_rejected(entry):
    with pytest.raises(DomainError, match=r"must be an integer >= \d, got "):
        COUNT_ENTRY_POINTS[entry]()


# Realization counts stop at 2**53, where n and n - 1 are still exact floats.
N_BOUND_ENTRY_POINTS = {
    "synthesize_partially_polarized": lambda n: synthesize_partially_polarized(0.3, 1.0, n, 0),
    "synthesize_schmidt_form": lambda n: synthesize_schmidt_form(0.8, 0.6, n=n),
    "ProtocolConfig": lambda n: ProtocolConfig(dop=0.3, n=n, seed=0),
}


@pytest.mark.parametrize("entry", N_BOUND_ENTRY_POINTS)
@pytest.mark.parametrize("n", [2**53 + 1, 10**18, 10**400], ids=["2**53+1", "1e18", "1e400"])
def test_realization_count_above_2_53_rejected(entry, n):
    with pytest.raises(DomainError, match=r"^n must be at most 2\*\*53, got "):
        N_BOUND_ENTRY_POINTS[entry](n)


def test_protocol_config_checks_dop():
    # the protocol no longer synthesizes its source, so the config checks the DOP itself
    for ok in (0.0, 0.5, 1.0):
        assert ProtocolConfig(dop=ok, n=2**53, seed=0).dop == ok
    for bad in (-1e-300, np.nextafter(1.0, 2.0), 2.0) + BAD + (-math.inf,):
        with pytest.raises(DomainError, match=r"^dop must lie in \[0, 1\], got "):
            ProtocolConfig(dop=bad, n=8, seed=0)
