"""Ground-truth joint probabilities, correlations, and CHSH evaluation.

Everything here is driven by the two Schmidt weights: for a field in
two-term Schmidt form the joint detection amplitudes under independent
basis rotations by a (polarization) and b (function space) are real
combinations of cos/sin factors, e.g.
amp_11 = kappa1 cos(a) cos(b) + kappa2 sin(a) sin(b), and the joint
probabilities are their squares.  A seeded Monte-Carlo sampler over local
hidden-variable response models demonstrates the classical |B| <= 2 bound
for comparison.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .ensemble import (SchmidtDecomposition, _check_integer, _check_kappas, _check_seed, inner,
                       schmidt_functions)
from .errors import DomainError, ModelContractError
from .optics import _axis, _check_angles

__all__ = [
    "AngleSettings",
    "LhvModel",
    "joint_probability_kappa",
    "joint_probability_projected",
    "correlation_sum",
    "correlation_closed_form",
    "chsh_sum",
    "max_chsh",
    "lhv_correlation",
    "lhv_chsh",
    "cosine_response_model",
    "sign_response_model",
    "SHIPPED_LHV_MODELS",
]

# 8192 float64 values take 64 KiB, below glibc's 128 KiB mmap threshold, so
# a freed block stays on the heap and the next one reuses it without page faults
_BLOCK = 8192


@dataclass(frozen=True)
class AngleSettings:
    """The four rotation angles (a, a', b, b') of a CHSH evaluation."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self):
        # an array angle would pass the finiteness check and fail later, inside numpy
        for field in fields(self):
            angle = getattr(self, field.name)
            if not isinstance(angle, numbers.Real):
                raise DomainError(f"angle {field.name} must be a real scalar, "
                                  f"got {type(angle).__name__}")
        _check_angles(self.a, self.a_prime, self.b, self.b_prime)

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """The four (a, b) combinations entering the CHSH sum, in order
        (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )


def _check_outcomes(k, l) -> None:
    """Raise DomainError unless every outcome index k, l, a scalar or an array, is 1 or 2."""
    if not all(np.all((np.asarray(x) == 1) | (np.asarray(x) == 2)) for x in (k, l)):
        raise DomainError(f"outcome indices k, l must each be 1 or 2, got ({k}, {l})")


def joint_probability_kappa(kappa1: float, kappa2: float, a, b, k, l) -> float | np.ndarray:
    """Closed-form joint probability P_kl(a, b) of a Schmidt-form field with
    Schmidt weights kappa1, kappa2.

    Probability of finding the field in the k-th rotated polarization basis
    vector together with the l-th rotated function basis vector.  The four
    values at any (a, b) are nonnegative and sum to 1.  ``a, b, k, l``
    broadcast against each other and give an array; scalars give a float.
    Raises DomainError unless kappa1, kappa2 >= 0 with kappa1^2 + kappa2^2 = 1
    to 1e-12.
    """
    _check_kappas(kappa1, kappa2)
    _check_angles(a, b)
    _check_outcomes(k, l)
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    # the Schmidt amplitudes amp[k - 1][l - 1]; np.float_power squares with libm pow, as ** does
    amp = [[kappa1 * ca * cb + kappa2 * sa * sb, kappa1 * ca * sb - kappa2 * sa * cb],
           [kappa1 * sa * cb - kappa2 * ca * sb, kappa1 * sa * sb + kappa2 * ca * cb]]
    l1 = np.equal(l, 1)
    p = np.float_power(np.where(np.equal(k, 1), np.where(l1, *amp[0]), np.where(l1, *amp[1])), 2)
    return float(p) if p.ndim == 0 else p


def joint_probability_projected(
    ensemble, sd: SchmidtDecomposition, a: float, b: float, k: int, l: int
) -> float:
    """Empirical joint probability by direct two-space projection.

    Projects every realization onto the k-th rotated polarization vector and
    overlaps the resulting amplitude sequence with the l-th rotated
    function-space vector.  Independent of the interferometric measurement
    path; used for cross-validation.
    """
    _check_outcomes(k, l)
    f1, f2 = schmidt_functions(ensemble, sd)
    # the second rotated vector of (v1, v2) is the first of (v2, -v1)
    u = _axis(sd.u1, sd.u2, a) if k == 1 else _axis(sd.u2, -sd.u1, a)
    f = _axis(f1, f2, b) if l == 1 else _axis(f2, -f1, b)
    amp_seq = ensemble.realizations @ u.conj()
    amp = inner(f, amp_seq) / math.sqrt(sd.intensity)
    return abs(amp) ** 2


def correlation_sum(p):
    """P11 - P12 - P21 + P22 of rows (p11, p12, p21, p22); a (4, m) array works."""
    return p[0] - p[1] - p[2] + p[3]


def correlation_closed_form(kappa1: float, kappa2: float, a, b):
    """cos(2a) cos(2b) + 2 kappa1 kappa2 sin(2a) sin(2b); broadcasts.  Raises
    DomainError unless kappa1, kappa2 >= 0 with kappa1^2 + kappa2^2 = 1 to 1e-12."""
    _check_kappas(kappa1, kappa2)
    return np.cos(2 * np.asarray(a)) * np.cos(2 * np.asarray(b)) + (
        2.0 * kappa1 * kappa2
    ) * np.sin(2 * np.asarray(a)) * np.sin(2 * np.asarray(b))


def chsh_sum(c):
    """C0 - C1 + C2 + C3 of rows in :meth:`AngleSettings.pairs` order; a (4, m) array works."""
    return c[0] - c[1] + c[2] + c[3]


def max_chsh(kappa1: float, kappa2: float) -> tuple[float, AngleSettings]:
    """Maximum CHSH value over all four angles, and settings that attain it.

    With k = 2 kappa1 kappa2 the correlation is
    C(a, b) = cos 2a cos 2b + k sin 2a sin 2b, a correlation matrix with
    singular values 1 and k, so the maximum is 2 sqrt(1 + k^2)
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)),
    i.e. 2 sqrt(1 + 4 kappa1^2 kappa2^2).  It is attained at a = pi/4, a' = 0,
    b = -b' = atan(k) / 2.  Raises DomainError unless kappa1, kappa2 >= 0
    with kappa1^2 + kappa2^2 = 1 to 1e-12.
    """
    _check_kappas(kappa1, kappa2)
    h = 0.5 * math.atan(2.0 * kappa1 * kappa2)
    return (2.0 * math.sqrt(1.0 + 4.0 * kappa1**2 * kappa2**2),
            AngleSettings(math.pi / 4, 0.0, h, -h))


@dataclass(frozen=True)
class LhvModel:
    """Local hidden-variable response model.

    ``outcome_a(angle, lam)`` and ``outcome_b(angle, lam)`` map a setting
    angle and an array of hidden-variable samples to response values in
    [-1, 1] (vectorized over ``lam``).  ``lambda_sampler(rng, size)`` draws
    hidden-variable samples, at most 8192 per call (see :func:`lhv_correlation`).
    """

    outcome_a: Callable[[float, np.ndarray], np.ndarray]
    outcome_b: Callable[[float, np.ndarray], np.ndarray]
    lambda_sampler: Callable[[np.random.Generator, int], np.ndarray]


def _bounded(values: np.ndarray, label: str, shape: tuple) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        try:
            np.broadcast_to(values, shape)
        except ValueError:
            raise ModelContractError(f"{label} response has shape {values.shape}, which does not "
                                     f"broadcast to the samples' shape {shape}") from None
    # written so that a NaN, which compares False, fails the check
    if values.size and not (np.max(values) <= 1.0 + 1e-9 and np.min(values) >= -1.0 - 1e-9):
        raise ModelContractError(f"{label} response left [-1, 1]")
    return values


def lhv_correlation(
    model: LhvModel, a: float, b: float, n_samples: int, seed
) -> float:
    """Monte-Carlo estimate of the correlation of a hidden-variable model.

    Samples lambda from the model distribution and averages
    outcome_a(a, lambda) * outcome_b(b, lambda).  ``n_samples`` is an
    integer >= 1 and ``seed`` an integer >= 0 or a tuple of such seeds.
    Raises ModelContractError if either response leaves [-1, 1], is not
    finite on the sample, or does not broadcast to the samples' shape.  The
    samples are drawn and summed in blocks of at most 8192, one
    ``lambda_sampler`` call each, so memory does not grow with
    ``n_samples``; a sampler that draws the same values in chunks as in one
    call (``rng.uniform`` does) gives the samples of one call.
    """
    _check_angles(a, b)
    _check_integer("n_samples", n_samples, 1)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    total = 0.0
    for start in range(0, n_samples, _BLOCK):
        lam = model.lambda_sampler(rng, min(_BLOCK, n_samples - start))
        shape = np.shape(lam)
        product = (_bounded(model.outcome_a(a, lam), "outcome_a", shape)
                   * _bounded(model.outcome_b(b, lam), "outcome_b", shape))
        if product.shape != shape:  # a scalar response counts once per sample
            product = np.broadcast_to(product, shape)
        # numpy's sum, not BLAS's thread-dependent one
        total += float(np.add.reduce(product))
    return total / n_samples


def lhv_chsh(model: LhvModel, settings: AngleSettings, n_samples: int, seed: int) -> float:
    """CHSH value of a hidden-variable model, one independent Monte-Carlo
    run per correlation (as in a real four-run experiment)."""
    c = [
        lhv_correlation(model, a, b, n_samples, (seed, i))
        for i, (a, b) in enumerate(settings.pairs())
    ]
    return chsh_sum(c)


def _tan(angle: float, lam: np.ndarray) -> np.ndarray:
    # numpy's float64 tan runs on its SIMD path and its cos as scalar libm
    # code, several times slower on x86-64, so both responses read cos 2x through tan x
    t = np.subtract(angle, lam, out=np.empty(np.shape(lam)))
    return np.tan(t, out=t)


def _cos2(angle: float, lam: np.ndarray) -> np.ndarray:
    # cos 2x = (1 - t^2) / (1 + t^2) in two n-length arrays, as np.cos(2x) takes
    q = _tan(angle, lam)
    q *= q
    r = 1.0 - q
    q += 1.0
    r /= q
    return r


def _sign_cos2(angle: float, lam: np.ndarray) -> np.ndarray:
    # cos 2x >= 0 exactly where |tan x| <= 1, so a zero reads +1
    t = _tan(angle, lam)
    nan = np.isnan(t)  # a NaN stays NaN, for lhv_correlation's contract check
    np.less_equal(np.abs(t, out=t), 1.0, out=t)  # 1.0 or 0.0
    t *= 2.0
    t -= 1.0
    t[nan] = np.nan
    return t


def _uniform_pi(rng: np.random.Generator, size: int) -> np.ndarray:
    # the bits of rng.uniform(0.0, math.pi, size), which numpy draws as 0 + pi * u,
    # in about three quarters of its time
    lam = rng.random(size)
    lam *= math.pi
    return lam


def cosine_response_model() -> LhvModel:
    """Continuous-response demo model: A = cos 2(a - lam), B = cos 2(b - lam)
    with lam uniform on [0, pi).  Analytic correlation: cos(2(a-b))/2.

    cos 2x is evaluated as (1 - t^2) / (1 + t^2) with t = tan x: within
    4.5e-16 of ``np.cos(2 * x)`` and never outside [-1, 1], so the CHSH
    values ``validate`` prints are those of ``np.cos``.
    """
    return LhvModel(
        outcome_a=_cos2,
        outcome_b=_cos2,
        lambda_sampler=_uniform_pi,
    )


def sign_response_model() -> LhvModel:
    """Deterministic +/-1 demo model: A = sign(cos 2(a - lam)), same for B,
    lam uniform on [0, pi), with a zero cosine read as +1.  Produces the
    classic sawtooth correlation.

    The sign is read as ``|tan x| <= 1``, which is cos 2x >= 0 exactly; it
    differs from ``np.sign(np.cos(2 * x))`` only where |cos 2x| is below
    1e-15, at the rounding of either function.
    """
    return LhvModel(
        outcome_a=_sign_cos2,
        outcome_b=_sign_cos2,
        lambda_sampler=_uniform_pi,
    )


SHIPPED_LHV_MODELS = {
    "cosine": cosine_response_model,
    "sign": sign_response_model,
}
