"""Each validity rule walked across its tolerance, at every entry point that applies it.

Rules: Schmidt weights normalized (kappa1^2 + kappa2^2 = 1 to 1e-12), orthonormal
vectors and unit polarizer axes (to 1e-12), the coherence cone |S| <= S0 (to 1e-10
of S0, no absolute floor), and the extinction ratio in [0, 1].  An input at half
the tolerance passes, one at twice the tolerance fails, and NaN and inf fail.
"""

import math

import numpy as np
import pytest

from wavebell import (
    DomainError,
    FieldEnsemble,
    NoiseModel,
    SchmidtDecomposition,
    StokesVector,
    dop,
    load_ensemble_csv,
    max_chsh,
    stokes,
    stripping_angle,
    stripping_angle_orthogonal,
    synthesize_schmidt_form,
)
from wavebell.ensemble import ENSEMBLE_CSV_COLUMNS
from wavebell.optics import FunctionBasis, LabBasis, polarizer_matrix

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

    def test_csv_rejects_nan(self, tmp_path):
        path = tmp_path / "ensemble.csv"
        path.write_text(",".join(ENSEMBLE_CSV_COLUMNS) + "\n0,1,0,nan,0\n1,0.5,0,0.2,0\n")
        with pytest.raises(DomainError, match="realizations must be finite"):
            load_ensemble_csv(path)
