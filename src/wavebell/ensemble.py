"""Finite ensembles of stochastic two-component optical fields.

A partially polarized beam is modelled by N independent realizations of the
transverse field (Ex, Ey).  Function-space quantities use the ensemble inner
product <f|g> = (1/N) sum_n conj(f_n) g_n, so second-order statistics
(coherence matrix, Stokes parameters, degree of polarization, Schmidt
structure) are all computable from finite data.  Where only the 2x2 second
moments are read, they can be drawn from their law without the realizations.
"""

from __future__ import annotations

import cmath
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
    "tomography",
    "polarization_report",
]

# Tolerance of kappa1^2 + kappa2^2 = 1 and of unit and orthogonal vectors: every pair
# and basis the package computes meets it at least 180x over (worst seen 5.4e-15).
_NORM_TOL = 1e-12


def _check_real(name: str, value) -> None:
    # an array or a complex number would fail inside a comparison or numpy, not here
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real scalar, got {type(value).__name__}")
    try:
        float(value)
    except OverflowError:  # an integer past the float range
        raise DomainError(f"{name} must lie in the float range") from None


def _complex_array(name: str, value) -> np.ndarray:
    """``value`` as a complex128 array, without a copy when it already is one."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except OverflowError:  # an integer past the float range
        raise DomainError(f"{name} must lie in the float range") from None


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, without a copy when it already is one."""
    if np.iscomplexobj(value):
        raise DomainError(f"{name} must be real")
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, TypeError):  # an integer past the float range, or a complex entry
        raise DomainError(f"{name} must be real and in the float range") from None


def _check_kappas(kappa1: float, kappa2: float) -> None:
    _check_real("kappa1", kappa1)
    _check_real("kappa2", kappa2)
    # bounding each weight first keeps its square finite
    if not (0 <= kappa1 <= 2 and 0 <= kappa2 <= 2 and abs(kappa1**2 + kappa2**2 - 1) <= _NORM_TOL):
        raise DomainError(
            f"need kappa1, kappa2 >= 0 with kappa1^2 + kappa2^2 = 1, got {kappa1}, {kappa2}")


def _check_integer(name: str, value, least: int) -> None:
    # a float fails, even 2.0; an array is named by its type, not its many-line repr
    if not (isinstance(value, numbers.Integral) and value >= least):
        got = repr(value) if isinstance(value, numbers.Number) else type(value).__name__
        raise DomainError(f"{name} must be an integer >= {least}, got {got}")


def _check_seed(seed) -> None:
    # an integer >= 0 or a tuple of seeds, nested as numpy's SeedSequence reads them
    if isinstance(seed, tuple):
        for entry in seed:
            _check_seed(entry)
    else:
        _check_integer("seed entries", seed, 0)


def _check_n(n) -> None:
    # up to 2**53, n and n - 1 are exact floats: the shapes of the Bartlett draw's Gamma variates
    _check_integer("n", n, 2)
    if n > 2**53:
        raise DomainError(f"n must be at most 2**53, got {n}")


def _check_dop(dop: float) -> None:
    _check_real("dop", dop)
    if not 0.0 <= dop <= 1.0:  # a NaN fails too
        raise DomainError(f"dop must lie in [0, 1], got {dop}")


def _check_orthonormal(v1, v2) -> None:
    if np.shape(v1) != (2,) or np.shape(v2) != (2,):
        raise DomainError(f"need 2-component vectors, got shapes {np.shape(v1)} and "
                          f"{np.shape(v2)}")
    off = [float(abs(np.vdot(v1, v1) - 1)), float(abs(np.vdot(v2, v2) - 1)),
           float(abs(np.vdot(v1, v2)))]
    if not all(x <= _NORM_TOL for x in off):  # a NaN fails too
        raise DomainError(f"need orthonormal v1, v2, got |<v1|v1>-1|, |<v2|v2>-1|, |<v1|v2>| {off}")


@dataclass(frozen=True, eq=False)
class FieldEnsemble:
    """N stochastic realizations of a two-component complex field.

    ``realizations`` has shape (n, 2) with columns (Ex, Ey), in arbitrary
    field units, stored as a C-contiguous complex128 array: a C-contiguous
    complex128 input is kept without a copy, any other is copied once.
    """

    realizations: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(_complex_array("realizations", self.realizations))
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DomainError("realizations must be an (n, 2) complex array")
        if arr.shape[0] < 2:
            raise DomainError("an ensemble needs at least 2 realizations")
        x = arr.view(np.float64)  # no n-length mask; max and min propagate a NaN
        if not (np.isfinite(x.max()) and np.isfinite(x.min())):
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
        intensity evaluations skip the per-realization pass.  J comes from
        the real 4x4 Gram of the realizations read in place as rows
        (Re Ex, Im Ex, Re Ey, Im Ey), so the pass makes no n-row copy; it
        equals r^H r / N up to rounding, and is exactly Hermitian.
        """
        x = self.realizations.view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            g = x.T @ x / self.n
            jxy = complex(g[0, 2] + g[1, 3], g[0, 3] - g[1, 2])
            j = np.array([[g[0, 0] + g[1, 1], jxy], [jxy.conjugate(), g[2, 2] + g[3, 3]]])
            power = j[0, 0].real + j[1, 1].real  # tr J, which every reader of J forms
        # finite fields whose powers pass the float range
        if not (np.isfinite(j).all() and math.isfinite(power)):
            raise DomainError("second moments overflow: |E|^2 exceeds the float range")
        return j


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
        for name, value in zip(("s0", "s1", "s2", "s3"), s):
            _check_real(name, value)
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
        _check_real("intensity", self.intensity)
        if not 0.0 < self.intensity < math.inf:
            raise DomainError(f"intensity must be positive and finite, got {self.intensity}")
        for name in ("u1", "u2"):
            object.__setattr__(self, name, _complex_array(name, getattr(self, name)))
        _check_orthonormal(self.u1, self.u2)


def inner(f: np.ndarray, g: np.ndarray) -> complex:
    """Ensemble inner product <f|g> = (1/N) sum_n conj(f_n) g_n of two vectors of
    one length N >= 1; DomainError unless both are such vectors and <f|g> is finite."""
    f, g = _complex_array("f", f), _complex_array("g", g)
    if f.ndim != 1 or f.shape != g.shape or f.size == 0:
        raise DomainError(f"inner product requires two nonempty vectors of one length, "
                          f"got shapes {f.shape} and {g.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.vdot(f, g) / f.shape[0])
    if not cmath.isfinite(value):
        raise DomainError(f"inner product is not finite: {value}")
    return value


def _check_intensity(intensity: float) -> None:
    _check_real("intensity", intensity)
    # across this range every square of a Stokes parameter or moment stays a normal float
    if not 1e-100 <= intensity <= 1e100:  # a NaN fails too
        raise DomainError(f"intensity must lie in [1e-100, 1e100], got {intensity}")


# Traces of J over which every square formed from J's entries (a Stokes parameter's,
# or a product J_pq J_rs of the kernel's jitter draw) stays a normal float.
_TRACE_RANGE = (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max) / 2.0)


def _check_trace(trace: float) -> None:
    # a zero trace passes: it carries no square to lose, and each caller names it
    lo, hi = _TRACE_RANGE
    if not (trace == 0.0 or lo <= trace <= hi):  # a NaN fails too
        side = "underflow" if trace < lo else "overflow"
        raise DomainError(f"second moments {side}: tr J = {trace:.3g} lies outside "
                          f"[{lo:.3g}, {hi:.3g}], where the squares formed from it are no "
                          "longer normal floats")


def _check_source(dop: float, intensity: float, n: int, seed) -> None:
    # the checks of one partially polarized source, wherever it is drawn
    _check_dop(dop)
    _check_intensity(intensity)
    _check_n(n)
    _check_seed(seed)


# Rows coloured per step by synthesize_partially_polarized: a step's one temporary
# column takes 64 KiB, below glibc's 128 KiB mmap threshold, so each step reuses it.
_ROWS = 4096


def synthesize_partially_polarized(
    dop: float, intensity: float, n: int, seed: int
) -> FieldEnsemble:
    """Draw a partially polarized thermal-like ensemble.

    Each realization has independent circular complex Gaussian amplitudes
    along x and y with mean-square values intensity*(1 +/- dop)/2, so the
    expected degree of polarization equals ``dop`` with the polarized part
    along x.  Its second moments are, to rounding, those that the CLI draws
    without realizations at the same (dop, n, seed) (``_draw_partially_polarized``),
    so one (dop, n, seed) names one source; identical (dop, intensity, n,
    seed) give bit-identical ensembles.

    Whiten, then colour: X holds n rows of Philox(seed) normals, read as
    (Re Ex, Im Ex, Re Ey, Im Ey).  With R the Cholesky factor of its second
    moments (X+ X / n = R+ R) and L T the moment draw's factor
    (``_source_factor``), E = X R^-1 (L T)+ sqrt(intensity / n), so
    E+ E / n = intensity L T T+ L+ / n.  The law is that of independent
    rows: X = sqrt(n) Q R with Q+ Q = 1, and by the Bartlett decomposition Q
    is Haar-distributed and independent of R; T comes from another stream.
    So E = Q A with A = (L T)+ sqrt(intensity) independent of Q, whose law
    depends on A only through A+ A (Q V has the law of Q for unitary V), and
    A+ A follows CW(n, intensity Sigma), Sigma = diag(1 + dop, 1 - dop) / 2,
    as for n independent CN(0, intensity Sigma) rows.  The colouring runs in
    place, 4096 rows at a time, so the ensemble is the only n-row array.

    Parameters
    ----------
    dop : float
        Requested degree of polarization, in [0, 1].
    intensity : float
        Expected ensemble-mean power, in [1e-100, 1e100].
    n : int
        Number of realizations, an integer in [2, 2**53].
    seed : int or tuple
        Generator seed: an integer >= 0, or a tuple of them naming a stream.
    """
    _check_source(dop, intensity, n, seed)
    rng = np.random.Generator(np.random.Philox(seed))
    e = np.empty((n, 2), dtype=np.complex128)
    rng.standard_normal(out=e.view(np.float64))
    r = np.linalg.cholesky(FieldEnsemble(e).second_moments).conj().T
    # R^-1 and (L T)+ are upper triangular, and so is their product m
    m = np.linalg.solve(r, _source_factor(dop, n, seed).conj().T) * math.sqrt(intensity / n)
    for start in range(0, n, _ROWS):
        x, y = e[start:start + _ROWS].T
        y *= m[1, 1]
        y += x * m[0, 1]
        x *= m[0, 0]
    return FieldEnsemble(e)


def _bartlett(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Lower-triangular Bartlett factors T, shape (size, 2, 2), of the complex
    Wishart law CW(n, I): T T+ is distributed as the sum of n outer products
    e e+ of standard circular-Gaussian vectors (Goodman 1963).  One call per
    entry, in this order: |T_11|^2 ~ Gamma(n), |T_22|^2 ~ Gamma(n - 1), then
    T_21 ~ CN(0, 1) from the two rows of a standard_normal((2, size))."""
    t = np.zeros((size, 2, 2), dtype=np.complex128)
    t[:, 0, 0] = np.sqrt(rng.standard_gamma(n, size))
    t[:, 1, 1] = np.sqrt(rng.standard_gamma(n - 1, size))
    re, im = rng.standard_normal((2, size)) / math.sqrt(2.0)
    t[:, 1, 0] = re + 1j * im
    return t


@dataclass(frozen=True, eq=False)
class _Moments:
    """A source read only through its second moments J and realization count n,
    the two attributes of a :class:`FieldEnsemble` that tomography, the Schmidt
    calibration and the measurement kernel read."""

    second_moments: np.ndarray
    n: int


def _source_factor(dop: float, n: int, seed: int) -> np.ndarray:
    """L T: one Bartlett factor T (:func:`_bartlett`) from ``default_rng(seed)``,
    scaled by L = Sigma^(1/2), Sigma = diag(1 + dop, 1 - dop) / 2; lower triangular."""
    t = _bartlett(np.random.default_rng(seed), n, 1)[0]
    return np.sqrt([[(1.0 + dop) / 2.0], [(1.0 - dop) / 2.0]]) * t


def _draw_partially_polarized(dop: float, n: int, seed, intensity: float = 1.0) -> _Moments:
    """The second moments of ``synthesize_partially_polarized(dop, intensity,
    n, seed)`` drawn from their law rather than from n realizations: n J
    follows the complex Wishart law CW(n, intensity Sigma), and J = intensity
    L T T+ L+ / n with L T from :func:`_source_factor`.  The synthesized
    ensemble is coloured by this same factor, so both give this J to
    rounding.  The cost does not grow with n.  The arguments are checked as
    that function checks them; a tuple seed names a stream too."""
    _check_source(dop, intensity, n, seed)
    lt = _source_factor(dop, n, seed)
    j = lt @ lt.conj().T / n
    return _Moments((j + j.conj().T) / 2.0 * intensity, n)


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
    _check_n(n)
    _check_integer("seed", seed, 0)
    u1, u2 = np.eye(2, dtype=complex) if u1 is None or u2 is None else (
        _complex_array("u1", u1), _complex_array("u2", u2))
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
    return FieldEnsemble(e)


def stokes(j: np.ndarray) -> StokesVector:
    """Stokes parameters of a 2x2 coherence matrix J_pq = <Ep* Eq>, such as
    :attr:`FieldEnsemble.second_moments`.

    Convention: S0 = Jxx + Jyy, S1 = Jxx - Jyy, S2 = 2 Re Jxy,
    S3 = 2 Im Jxy (right-circular positive).  Raises DomainError unless J is 2x2,
    finite, Hermitian to 1e-10 of its largest entry and PSD (see :class:`StokesVector`).
    """
    m = _complex_array("coherence matrix", j)
    if m.shape != (2, 2):
        raise DomainError("coherence matrix must be 2x2")
    if not (np.isfinite(m).all() and np.abs(m - m.conj().T).max() <= 1e-10 * np.abs(m).max()):
        raise DomainError(f"coherence matrix must be finite and Hermitian, got {m.tolist()}")
    with np.errstate(over="ignore"):  # StokesVector refuses a parameter that overflows
        return StokesVector(
            s0=float(m[0, 0].real + m[1, 1].real),
            s1=float(m[0, 0].real - m[1, 1].real),
            s2=float(2.0 * m[0, 1].real),
            s3=float(2.0 * m[0, 1].imag),
        )


def dop(s: StokesVector) -> float:
    """Degree of polarization sqrt(S1^2 + S2^2 + S3^2) / S0, at most 1: a vector
    inside the cone's 1e-10 tolerance reads 1.  S0, the trace of J, must be
    positive and in ``_TRACE_RANGE``."""
    if s.s0 <= 0:
        raise DomainError("degree of polarization requires S0 > 0")
    _check_trace(s.s0)
    return min(math.sqrt(s.s1**2 + s.s2**2 + s.s3**2) / s.s0, 1.0)


def kappa_from_dop(dop: float) -> tuple[float, float]:
    """Schmidt weights (kappa1, kappa2) = sqrt((1 +/- DOP)/2)."""
    _check_dop(dop)
    return math.sqrt((1.0 + dop) / 2.0), math.sqrt((1.0 - dop) / 2.0)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a nonzero vector's global phase so its largest component is real positive."""
    p = v[int(np.argmax(np.abs(v)))]
    return v * (p.conjugate() / abs(p))


def schmidt(ensemble: FieldEnsemble) -> SchmidtDecomposition:
    """Schmidt decomposition of an ensemble across lab and function space: the
    calibration of every command, its basis and weights from one
    eigendecomposition.

    Diagonalizes the sample coherence matrix; u1, u2 are its eigenvectors in
    descending-eigenvalue order with kappa_i = sqrt(lambda_i / I).  Works on
    the cached 2x2 second moments only, so the result does not grow with N.
    The weights equal :func:`kappa_from_dop` of the tomography DOP to
    rounding, without the cancellation in 1 - DOP as DOP -> 1.

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
    with np.errstate(over="ignore", invalid="ignore"):
        f1 = (r @ sd.u1.conj()) / (math.sqrt(sd.intensity) * sd.kappa1)
        if sd.kappa2 > 0.0:
            f2 = (r @ sd.u2.conj()) / (math.sqrt(sd.intensity) * sd.kappa2)
        else:
            # Fully polarized field: the second function-space direction never
            # appears in the data, so pick any unit vector orthogonal to f1, from the
            # sample where |f1| is least: as <f1|f1> = 1, at least 1 - 1/N of its
            # squared norm survives the projection, and no digits cancel.
            n = ensemble.n
            f2 = np.zeros(n, dtype=np.complex128)
            f2[int(np.argmin(np.abs(f1)))] = math.sqrt(n)
            f2 = f2 - inner(f1, f2) * f1
            f2 = f2 / math.sqrt(inner(f2, f2).real)
    if not (np.isfinite(f1).all() and np.isfinite(f2).all()):
        raise DomainError("Schmidt functions overflow: sd is not the Schmidt record of ensemble")
    return f1, f2


def tomography(ensemble: FieldEnsemble) -> StokesVector:
    """Stokes parameters of an ensemble: :func:`stokes` of its cached second moments J.

    Noiseless polarimetry reads the same vector.  The mean power behind any
    analyzer is a quadratic form in J, so the six readings H, V (polarizers),
    D, A (diagonal, antidiagonal) and R, L (H and V behind a quarter-wave
    plate at pi/4) give S0..S3 as H + V, H - V, D - A and R - L to rounding.
    """
    return stokes(ensemble.second_moments)


def _complex_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def polarization_report(ensemble: FieldEnsemble) -> dict:
    """Source characterization as a JSON-ready dict.

    Keys: s0, s1, s2, s3 and dop from :func:`tomography`, then kappa1,
    kappa2, u1 and u2 from :func:`schmidt`.  Complex vectors are encoded as
    [[re, im], [re, im]] pairs.
    """
    s, sd = tomography(ensemble), schmidt(ensemble)
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
