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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensemble import SchmidtDecomposition, _check_kappas, inner, schmidt_functions
from .errors import DomainError, ModelContractError
from .optics import FunctionBasis, LabBasis, rotate_function_basis, rotate_lab_basis

__all__ = [
    "AngleSettings",
    "LhvModel",
    "joint_probability_kappa",
    "joint_probability_direct",
    "joint_probability_projected",
    "correlation_sum",
    "correlation_closed_form",
    "chsh_sum",
    "chsh_closed_form_max",
    "max_chsh",
    "lhv_correlation",
    "lhv_chsh",
    "cosine_response_model",
    "sign_response_model",
    "SHIPPED_LHV_MODELS",
]


@dataclass(frozen=True)
class AngleSettings:
    """The four rotation angles (a, a', b, b') of a CHSH evaluation."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self):
        for v in (self.a, self.a_prime, self.b, self.b_prime):
            if not math.isfinite(v):
                raise DomainError("angles must be finite")

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """The four (a, b) combinations entering the CHSH sum, in order
        (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )


def _amplitude(kappa1: float, kappa2: float, a: float, b: float, k: int, l: int) -> float:
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    if (k, l) == (1, 1):
        return kappa1 * ca * cb + kappa2 * sa * sb
    if (k, l) == (1, 2):
        return kappa1 * ca * sb - kappa2 * sa * cb
    if (k, l) == (2, 1):
        return kappa1 * sa * cb - kappa2 * ca * sb
    if (k, l) == (2, 2):
        return kappa1 * sa * sb + kappa2 * ca * cb
    raise DomainError(f"outcome indices k, l must each be 1 or 2, got ({k}, {l})")


def joint_probability_kappa(
    kappa1: float, kappa2: float, a: float, b: float, k: int, l: int
) -> float:
    """Closed-form joint probability P_kl(a, b) from Schmidt weights alone."""
    return _amplitude(kappa1, kappa2, a, b, k, l) ** 2


def joint_probability_direct(
    sd: SchmidtDecomposition, a: float, b: float, k: int, l: int
) -> float:
    """Closed-form joint probability P_kl(a, b) of a Schmidt-form field.

    Probability of finding the field in the k-th rotated polarization basis
    vector together with the l-th rotated function basis vector.  The four
    values at any (a, b) are nonnegative and sum to 1.
    """
    return joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)


def joint_probability_projected(
    ensemble, sd: SchmidtDecomposition, a: float, b: float, k: int, l: int
) -> float:
    """Empirical joint probability by direct two-space projection.

    Projects every realization onto the k-th rotated polarization vector and
    overlaps the resulting amplitude sequence with the l-th rotated
    function-space vector.  Independent of the interferometric measurement
    path; used for cross-validation.
    """
    if k not in (1, 2) or l not in (1, 2):
        raise DomainError(f"outcome indices k, l must each be 1 or 2, got ({k}, {l})")
    lab = rotate_lab_basis(LabBasis(sd.u1, sd.u2), a)
    fun = rotate_function_basis(FunctionBasis(*schmidt_functions(ensemble, sd)), b)
    u = lab.v1 if k == 1 else lab.v2
    f = fun.g1 if l == 1 else fun.g2
    amp_seq = ensemble.realizations @ u.conj()
    amp = inner(f, amp_seq) / math.sqrt(sd.intensity)
    return abs(amp) ** 2


def correlation_sum(p):
    """P11 - P12 - P21 + P22 of rows (p11, p12, p21, p22); a (4, m) array works."""
    return p[0] - p[1] - p[2] + p[3]


def correlation_closed_form(kappa1: float, kappa2: float, a, b):
    """cos(2a) cos(2b) + 2 kappa1 kappa2 sin(2a) sin(2b); broadcasts."""
    return np.cos(2 * np.asarray(a)) * np.cos(2 * np.asarray(b)) + (
        2.0 * kappa1 * kappa2
    ) * np.sin(2 * np.asarray(a)) * np.sin(2 * np.asarray(b))


def chsh_sum(c):
    """C0 - C1 + C2 + C3 of rows in :meth:`AngleSettings.pairs` order; a (4, m) array works."""
    return c[0] - c[1] + c[2] + c[3]


def chsh_closed_form_max(kappa1: float, kappa2: float) -> float:
    """Maximum attainable CHSH value 2 sqrt(1 + 4 kappa1^2 kappa2^2)."""
    return 2.0 * math.sqrt(1.0 + 4.0 * kappa1**2 * kappa2**2)


def max_chsh(kappa1: float, kappa2: float) -> tuple[float, AngleSettings]:
    """Maximum CHSH value over all four angles, and settings that attain it.

    With k = 2 kappa1 kappa2 the correlation is
    C(a, b) = cos 2a cos 2b + k sin 2a sin 2b, a correlation matrix with
    singular values 1 and k, so the maximum is 2 sqrt(1 + k^2)
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)),
    i.e. :func:`chsh_closed_form_max`.  It is attained at a = pi/4, a' = 0,
    b = -b' = atan(k) / 2.  Raises DomainError unless kappa1, kappa2 >= 0
    with kappa1^2 + kappa2^2 = 1 to 1e-12.
    """
    _check_kappas(kappa1, kappa2)
    h = 0.5 * math.atan(2.0 * kappa1 * kappa2)
    return chsh_closed_form_max(kappa1, kappa2), AngleSettings(math.pi / 4, 0.0, h, -h)


@dataclass(frozen=True)
class LhvModel:
    """Local hidden-variable response model.

    ``outcome_a(angle, lam)`` and ``outcome_b(angle, lam)`` map a setting
    angle and an array of hidden-variable samples to response values in
    [-1, 1] (vectorized over ``lam``).  ``lambda_sampler(rng, size)`` draws
    hidden-variable samples.
    """

    outcome_a: Callable[[float, np.ndarray], np.ndarray]
    outcome_b: Callable[[float, np.ndarray], np.ndarray]
    lambda_sampler: Callable[[np.random.Generator, int], np.ndarray]


def _bounded(values: np.ndarray, label: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    # written so that a NaN, which compares False, fails the check
    if values.size and not np.max(np.abs(values)) <= 1.0 + 1e-9:
        raise ModelContractError(f"{label} response left [-1, 1]")
    return values


def lhv_correlation(
    model: LhvModel, a: float, b: float, n_samples: int, seed
) -> float:
    """Monte-Carlo estimate of the correlation of a hidden-variable model.

    Samples lambda from the model distribution and averages
    outcome_a(a, lambda) * outcome_b(b, lambda).  Raises
    ModelContractError if either response leaves [-1, 1] or is not finite
    on the sample.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    lam = model.lambda_sampler(rng, int(n_samples))
    va = _bounded(model.outcome_a(a, lam), "outcome_a")
    vb = _bounded(model.outcome_b(b, lam), "outcome_b")
    return float(np.mean(va * vb))


def lhv_chsh(model: LhvModel, settings: AngleSettings, n_samples: int, seed: int) -> float:
    """CHSH value of a hidden-variable model, one independent Monte-Carlo
    run per correlation (as in a real four-run experiment)."""
    c = [
        lhv_correlation(model, a, b, n_samples, (seed, i))
        for i, (a, b) in enumerate(settings.pairs())
    ]
    return chsh_sum(c)


def cosine_response_model() -> LhvModel:
    """Continuous-response demo model: A = cos 2(a - lam), B = cos 2(b - lam)
    with lam uniform on [0, pi).  Analytic correlation: cos(2(a-b))/2."""
    return LhvModel(
        outcome_a=lambda a, lam: np.cos(2.0 * (a - lam)),
        outcome_b=lambda b, lam: np.cos(2.0 * (b - lam)),
        lambda_sampler=lambda rng, size: rng.uniform(0.0, math.pi, size),
    )


def sign_response_model() -> LhvModel:
    """Deterministic +/-1 demo model: A = sign(cos 2(a - lam)), same for B,
    lam uniform on [0, pi).  Produces the classic sawtooth correlation."""

    def _sign(angle, lam):
        v = np.sign(np.cos(2.0 * (angle - lam)))
        v[v == 0.0] = 1.0
        return v

    return LhvModel(
        outcome_a=_sign,
        outcome_b=_sign,
        lambda_sampler=lambda rng, size: rng.uniform(0.0, math.pi, size),
    )


SHIPPED_LHV_MODELS = {
    "cosine": cosine_response_model,
    "sign": sign_response_model,
}
