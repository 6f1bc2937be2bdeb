"""Finite ensembles of stochastic two-component optical fields.

A partially polarized beam is modelled by N independent realizations of the
transverse field (Ex, Ey).  Function-space quantities use the ensemble inner
product <f|g> = (1/N) sum_n conj(f_n) g_n, so second-order statistics
(coherence matrix, Stokes parameters, degree of polarization, Schmidt
structure) are all computable from finite data.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFieldError, DomainError

__all__ = [
    "FieldEnsemble",
    "StokesVector",
    "SchmidtDecomposition",
    "inner",
    "synthesize_partially_polarized",
    "synthesize_schmidt_form",
    "stokes",
    "dop",
    "kappa_from_dop",
    "schmidt",
    "schmidt_functions",
    "measured_schmidt",
    "tomography",
    "polarization_report",
]

# Tolerance of kappa1^2 + kappa2^2 = 1 and of unit and orthogonal vectors: every pair
# and basis the package computes meets it at least 180x over (worst seen 5.4e-15).
_NORM_TOL = 1e-12


def _check_kappas(kappa1: float, kappa2: float) -> None:
    # bounding each weight first keeps its square finite
    if not (0 <= kappa1 <= 2 and 0 <= kappa2 <= 2 and abs(kappa1**2 + kappa2**2 - 1) <= _NORM_TOL):
        raise DomainError(
            f"need kappa1, kappa2 >= 0 with kappa1^2 + kappa2^2 = 1, got {kappa1}, {kappa2}")


def _check_integer(name: str, value, least: int) -> None:
    # a float fails, even 2.0
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_orthonormal(v1, v2, dot=np.vdot) -> None:
    off = [float(abs(dot(v1, v1) - 1)), float(abs(dot(v2, v2) - 1)), float(abs(dot(v1, v2)))]
    if not all(x <= _NORM_TOL for x in off):  # a NaN fails too
        raise DomainError(f"need orthonormal v1, v2, got |<v1|v1>-1|, |<v2|v2>-1|, |<v1|v2>| {off}")


@dataclass(frozen=True, eq=False)
class FieldEnsemble:
    """N stochastic realizations of a two-component complex field.

    ``realizations`` has shape (n, 2) with columns (Ex, Ey), in arbitrary
    field units.  ``seed`` records provenance when the ensemble was drawn
    from a generator; it is None for derived ensembles and outside arrays.
    """

    realizations: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.realizations, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DomainError("realizations must be an (n, 2) complex array")
        if arr.shape[0] < 2:
            raise DomainError("an ensemble needs at least 2 realizations")
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf gives a NaN, which fails
            if not np.isfinite(arr.sum()):  # no n-length mask; second_moments checks J itself
                raise DomainError("realizations must be finite")
        object.__setattr__(self, "realizations", arr)

    @property
    def n(self) -> int:
        return self.realizations.shape[0]

    @cached_property
    def second_moments(self) -> np.ndarray:
        """Sample matrix J_pq = (1/N) sum_n conj(Ep) Eq, cached per ensemble.

        Mean powers of linearly transformed copies of the ensemble are
        quadratic forms in this matrix, which lets repeated ideal-optics
        intensity evaluations skip the per-realization pass.
        """
        r = self.realizations
        with np.errstate(over="ignore", invalid="ignore"):
            j = r.conj().T @ r / self.n
        if not np.isfinite(j).all():  # finite fields whose powers pass the float range
            raise DomainError("second moments overflow: |E|^2 exceeds the float range")
        return (j + j.conj().T) / 2.0


@dataclass(frozen=True)
class StokesVector:
    """Stokes parameters (S0, S1, S2, S3) in intensity units: finite and in the cone
    |S| <= S0 (J positive semidefinite) to 1e-10 of S0, with no absolute floor."""

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        s = (self.s0, self.s1, self.s2, self.s3)
        if not (math.isfinite(self.s0) and math.hypot(*s[1:]) <= (1.0 + 1e-10) * self.s0):
            raise DomainError(f"need finite Stokes parameters with |S| <= S0, got {s}")


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Two-term biorthogonal decomposition of a field ensemble.

    The intensity-normalized field decomposes as
    kappa1 * u1 (x) f1 + kappa2 * u2 (x) f2 with kappa1 >= kappa2 >= 0,
    kappa1^2 + kappa2^2 = 1.  u1, u2 are orthonormal polarization (lab-space)
    vectors; :func:`schmidt_functions` gives the function-space vectors f1, f2.
    """

    kappa1: float
    kappa2: float
    u1: np.ndarray
    u2: np.ndarray
    intensity: float

    def __post_init__(self):
        _check_kappas(self.kappa1, self.kappa2)
        if not self.kappa1 >= self.kappa2:
            raise DomainError(f"need kappa1 >= kappa2, got {self.kappa1}, {self.kappa2}")
        for name in ("u1", "u2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
        _check_orthonormal(self.u1, self.u2)

    @property
    def dop(self) -> float:
        """Degree of polarization implied by the Schmidt weights."""
        return self.kappa1**2 - self.kappa2**2


def inner(f: np.ndarray, g: np.ndarray) -> complex:
    """Ensemble inner product <f|g> = (1/N) sum_n conj(f_n) g_n."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise DomainError("inner product requires equal-length vectors")
    return complex(np.vdot(f, g) / f.shape[0])


def _check_intensity(intensity: float) -> None:
    # across this range every square of a Stokes parameter or moment stays a normal float
    if not 1e-100 <= intensity <= 1e100:  # a NaN fails too
        raise DomainError(f"intensity must lie in [1e-100, 1e100], got {intensity}")


def synthesize_partially_polarized(
    dop: float, intensity: float, n: int, seed: int
) -> FieldEnsemble:
    """Draw a partially polarized thermal-like ensemble.

    Each realization has independent circular complex Gaussian amplitudes
    along x and y with mean-square values intensity*(1 +/- dop)/2, so the
    expected degree of polarization equals ``dop`` with the polarized part
    along x.  Generation uses a counter-based generator keyed by ``seed``;
    identical (dop, intensity, n, seed) give bit-identical ensembles.

    Parameters
    ----------
    dop : float
        Requested degree of polarization, in [0, 1].
    intensity : float
        Expected ensemble-mean power, in [1e-100, 1e100].
    n : int
        Number of realizations, an integer >= 2.
    seed : int
        Generator seed, an integer >= 0.
    """
    if not 0.0 <= dop <= 1.0:
        raise DomainError(f"dop must lie in [0, 1], got {dop}")
    _check_intensity(intensity)
    _check_integer("n", n, 2)
    _check_integer("seed", seed, 0)
    rng = np.random.Generator(np.random.Philox(seed))
    # (re Ex, im Ex, re Ey, im Ey) drawn in place; var(Re) = var(Im) = ms/2 so E|E|^2 = ms
    e = np.empty((n, 2), dtype=np.complex128)
    rng.standard_normal(out=e.view(np.float64))
    e[:, 0] *= math.sqrt(intensity * (1.0 + dop) / 4.0)
    e[:, 1] *= math.sqrt(intensity * (1.0 - dop) / 4.0)
    return FieldEnsemble(e, seed=seed)


def synthesize_schmidt_form(
    kappa1: float,
    kappa2: float,
    intensity: float = 1.0,
    n: int = 1024,
    seed: int = 0,
    u1: np.ndarray | None = None,
    u2: np.ndarray | None = None,
) -> FieldEnsemble:
    """Build an ensemble that is exactly in two-term Schmidt form.

    The function-space vectors are random complex Gaussian sequences made
    exactly orthonormal by Gram-Schmidt under the (1/N) inner product, so
    the sample coherence matrix equals intensity * (kappa1^2 u1 u1+ +
    kappa2^2 u2 u2+) to machine precision.  Useful as an analytic reference
    field: every downstream identity holds at float accuracy instead of
    Monte-Carlo accuracy.  ``intensity`` must lie in [1e-100, 1e100];
    kappa1^2 + kappa2^2 = 1 and a given (u1, u2) orthonormal, each to 1e-12.
    """
    _check_kappas(kappa1, kappa2)
    _check_intensity(intensity)
    _check_integer("n", n, 2)
    _check_integer("seed", seed, 0)
    u1, u2 = np.eye(2, dtype=complex) if u1 is None or u2 is None else np.asarray([u1, u2], complex)
    _check_orthonormal(u1, u2)

    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.standard_normal((n, 4))
    f1 = g[:, 0] + 1j * g[:, 1]
    f2 = g[:, 2] + 1j * g[:, 3]
    f1 = f1 / math.sqrt(inner(f1, f1).real)
    f2 = f2 - inner(f1, f2) * f1
    f2 = f2 / math.sqrt(inner(f2, f2).real)

    amp = math.sqrt(intensity)
    e = amp * (kappa1 * np.outer(f1, u1) + kappa2 * np.outer(f2, u2))
    return FieldEnsemble(e, seed=seed)


def stokes(j: np.ndarray) -> StokesVector:
    """Stokes parameters of a 2x2 coherence matrix J_pq = <Ep* Eq>, such as
    :attr:`FieldEnsemble.second_moments`.

    Convention: S0 = Jxx + Jyy, S1 = Jxx - Jyy, S2 = 2 Re Jxy,
    S3 = 2 Im Jxy (right-circular positive).  Raises DomainError unless J is 2x2,
    finite, Hermitian to 1e-10 of its largest entry and PSD (see :class:`StokesVector`).
    """
    m = np.asarray(j, dtype=np.complex128)
    if m.shape != (2, 2):
        raise DomainError("coherence matrix must be 2x2")
    if not (np.isfinite(m).all() and np.abs(m - m.conj().T).max() <= 1e-10 * np.abs(m).max()):
        raise DomainError(f"coherence matrix must be finite and Hermitian, got {m.tolist()}")
    return StokesVector(
        s0=float(m[0, 0].real + m[1, 1].real),
        s1=float(m[0, 0].real - m[1, 1].real),
        s2=float(2.0 * m[0, 1].real),
        s3=float(2.0 * m[0, 1].imag),
    )


def dop(s: StokesVector) -> float:
    """Degree of polarization sqrt(S1^2 + S2^2 + S3^2) / S0."""
    if s.s0 <= 0:
        raise DomainError("degree of polarization requires S0 > 0")
    return math.sqrt(s.s1**2 + s.s2**2 + s.s3**2) / s.s0


def kappa_from_dop(dop: float) -> tuple[float, float]:
    """Schmidt weights (kappa1, kappa2) = sqrt((1 +/- DOP)/2)."""
    if not 0.0 <= dop <= 1.0:
        raise DomainError(f"dop must lie in [0, 1], got {dop}")
    return math.sqrt((1.0 + dop) / 2.0), math.sqrt((1.0 - dop) / 2.0)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a nonzero vector's global phase so its largest component is real positive."""
    p = v[int(np.argmax(np.abs(v)))]
    return v * (p.conjugate() / abs(p))


def schmidt(ensemble: FieldEnsemble) -> SchmidtDecomposition:
    """Schmidt decomposition of an ensemble across lab and function space.

    Diagonalizes the sample coherence matrix; u1, u2 are its eigenvectors in
    descending-eigenvalue order with kappa_i = sqrt(lambda_i / I).  Works on
    the cached 2x2 second moments only, so the result does not grow with N.

    For a nearly unpolarized field (DOP < 1e-12) the eigenbasis is arbitrary;
    (1, 0), (0, 1) is used as a deterministic tie-break.

    Raises
    ------
    DegenerateFieldError
        If the ensemble carries no power.
    """
    total = float(np.trace(ensemble.second_moments).real)
    if total <= 0.0:
        raise DegenerateFieldError("zero-intensity ensemble has no Schmidt form")

    # The amplitudes along u are c = E @ conj(u), whose cross-moments are
    # <c_i* c_j> = u_j+ (J^T) u_i with J_pq = <Ep* Eq>; diagonalizing J^T
    # (same spectrum as J) is what makes f1, f2 uncorrelated in-sample.
    w, vecs = np.linalg.eigh(ensemble.second_moments.T)
    lam = np.maximum(w[::-1], 0.0)
    u = vecs[:, ::-1]

    if (lam[0] - lam[1]) / total < 1e-12:
        u1 = np.array([1.0, 0.0], dtype=np.complex128)
        u2 = np.array([0.0, 1.0], dtype=np.complex128)
    else:
        u1 = _fix_phase(u[:, 0])
        u2 = _fix_phase(u[:, 1])

    kappa1 = math.sqrt(lam[0] / total)
    kappa2 = math.sqrt(lam[1] / total)
    return SchmidtDecomposition(kappa1=kappa1, kappa2=kappa2, u1=u1, u2=u2, intensity=total)


def schmidt_functions(ensemble: FieldEnsemble, sd: SchmidtDecomposition) -> tuple:
    """Function-space vectors (f1, f2) of ``ensemble`` given ``sd = schmidt(ensemble)``:
    the per-realization amplitudes along u_i over sqrt(I) kappa_i, orthonormal
    under the (1/N) inner product to float accuracy in the basis of :func:`schmidt`."""
    r = ensemble.realizations
    f1 = (r @ sd.u1.conj()) / (math.sqrt(sd.intensity) * sd.kappa1)
    if sd.kappa2 > 0.0:
        f2 = (r @ sd.u2.conj()) / (math.sqrt(sd.intensity) * sd.kappa2)
    else:
        # Fully polarized field: the second function-space direction never
        # appears in the data, so pick any unit vector orthogonal to f1.
        n = ensemble.n
        f2 = np.zeros(n, dtype=np.complex128)
        f2[0] = math.sqrt(n)
        f2 = f2 - inner(f1, f2) * f1
        if inner(f2, f2).real < 1e-12:
            f2 = np.zeros(n, dtype=np.complex128)
            f2[1] = math.sqrt(n)
            f2 = f2 - inner(f1, f2) * f1
        f2 = f2 / math.sqrt(inner(f2, f2).real)
    return f1, f2


def measured_schmidt(ensemble: FieldEnsemble) -> tuple[StokesVector, SchmidtDecomposition]:
    """Calibrate a source as the experiment does: Schmidt weights from the
    tomography DOP, lab basis (u1, u2) from the sample eigenvectors of
    :func:`schmidt`.  Returns the tomography estimate and that decomposition."""
    s = tomography(ensemble)
    k1, k2 = kappa_from_dop(dop(s))
    sd = schmidt(ensemble)
    return s, SchmidtDecomposition(kappa1=k1, kappa2=k2, u1=sd.u1, u2=sd.u2, intensity=sd.intensity)


def tomography(ensemble: FieldEnsemble) -> StokesVector:
    """Estimate Stokes parameters from six projective intensity measurements.

    Classic polarimetry sequence: horizontal/vertical, diagonal/antidiagonal
    polarizer projections, then a quarter-wave plate at pi/4 followed by
    horizontal/vertical projections for the circular pair.  Each reading is
    the mean power behind its element chain, a quadratic form in the cached
    second moments J, so no projected copy of the realizations is made.  On
    noiseless elements this reproduces the direct moment computation to
    rounding.
    """
    from .optics import chain_power, polarizer_matrix as pol, waveplate_matrix

    rt2 = math.sqrt(2.0)
    h, v = pol(np.array([1.0, 0.0])), pol(np.array([0.0, 1.0]))
    d, a = pol(np.array([1.0, 1.0]) / rt2), pol(np.array([1.0, -1.0]) / rt2)
    qwp = waveplate_matrix("quarter", math.pi / 4.0)
    j = ensemble.second_moments
    i_h, i_v, i_d, i_a, i_r, i_l = (
        chain_power(m, j) for m in (h, v, d, a, h @ qwp, v @ qwp)
    )
    return StokesVector(s0=i_h + i_v, s1=i_h - i_v, s2=i_d - i_a, s3=i_r - i_l)


def _complex_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def polarization_report(ensemble: FieldEnsemble) -> dict:
    """Source characterization as a JSON-ready dict.

    Keys: s0, s1, s2, s3, dop, kappa1, kappa2, u1, u2.  Complex vectors are
    encoded as [[re, im], [re, im]] pairs.
    """
    s, sd = measured_schmidt(ensemble)
    return {
        "s0": s.s0,
        "s1": s.s1,
        "s2": s.s2,
        "s3": s.s3,
        "dop": dop(s),
        "kappa1": sd.kappa1,
        "kappa2": sd.kappa2,
        "u1": _complex_pairs(sd.u1),
        "u2": _complex_pairs(sd.u2),
    }
