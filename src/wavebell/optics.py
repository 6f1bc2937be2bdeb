"""Optical elements as 2x2 Jones matrices.

Every element is a constructor returning its Jones matrix; a chain of
elements is the matrix product, applied to an ensemble with :func:`apply`
or turned into an ensemble-mean power with :func:`chain_power`.  The beam
splitter functions act on plain arrays, so the same function splits an
(n, 2) realization array or a 2x2 chain matrix.

Basis rotations in lab (polarization) space and in the N-dimensional
function space share one convention: rotating by angle t maps
(v1, v2) -> (cos t v1 - sin t v2, sin t v1 + cos t v2).

A polarizer is an axis device with period pi; all polarizer angles are
reduced to (-pi/2, pi/2].  The beam splitters use the convention
transmit -> 1/sqrt(2), reflect -> i/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import FieldEnsemble, inner
from .errors import DegenerateFieldError, DomainError

__all__ = [
    "LabBasis",
    "FunctionBasis",
    "rotate_lab_basis",
    "rotate_function_basis",
    "polarizer_axis",
    "polarizer_matrix",
    "waveplate_matrix",
    "apply",
    "chain_power",
    "reduce_polarizer_angle",
    "stripping_angle",
    "stripping_angle_orthogonal",
    "beamsplitter_split",
    "beamsplitter_combine",
]

_RT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class LabBasis:
    """Orthonormal pair of 2-component polarization vectors."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        v1 = np.asarray(self.v1, dtype=np.complex128)
        v2 = np.asarray(self.v2, dtype=np.complex128)
        if v1.shape != (2,) or v2.shape != (2,):
            raise DomainError("lab basis vectors must have 2 components")
        if (
            abs(np.vdot(v1, v1) - 1.0) > 1e-10
            or abs(np.vdot(v2, v2) - 1.0) > 1e-10
            or abs(np.vdot(v1, v2)) > 1e-10
        ):
            raise DomainError("lab basis must be orthonormal")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


@dataclass(frozen=True, eq=False)
class FunctionBasis:
    """Orthonormal pair of N-component function-space vectors.

    Orthonormality is with respect to the ensemble inner product
    <f|g> = (1/N) sum conj(f) g.
    """

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        g1 = np.asarray(self.g1, dtype=np.complex128)
        g2 = np.asarray(self.g2, dtype=np.complex128)
        if g1.ndim != 1 or g1.shape != g2.shape:
            raise DomainError("function basis vectors must be equal-length 1-d arrays")
        if (
            abs(inner(g1, g1) - 1.0) > 1e-10
            or abs(inner(g2, g2) - 1.0) > 1e-10
            or abs(inner(g1, g2)) > 1e-10
        ):
            raise DomainError("function basis must be orthonormal within 1e-10")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)


def rotate_lab_basis(basis: LabBasis, a: float) -> LabBasis:
    """Rotate a polarization basis by angle ``a``."""
    c, s = math.cos(a), math.sin(a)
    return LabBasis(c * basis.v1 - s * basis.v2, s * basis.v1 + c * basis.v2)


def rotate_function_basis(basis: FunctionBasis, b: float) -> FunctionBasis:
    """Rotate a function-space basis by angle ``b``."""
    c, s = math.cos(b), math.sin(b)
    return FunctionBasis(c * basis.g1 - s * basis.g2, s * basis.g1 + c * basis.g2)


def polarizer_axis(basis: LabBasis, angle: float) -> np.ndarray:
    """Transmission axis of a polarizer at ``angle`` relative to ``basis``."""
    return rotate_lab_basis(basis, angle).v1


def _orthogonal_axis(axis: np.ndarray) -> np.ndarray:
    return np.array([-axis[1].conjugate(), axis[0].conjugate()], dtype=np.complex128)


def polarizer_matrix(axis: np.ndarray, extinction_ratio: float = 0.0) -> np.ndarray:
    """2x2 Jones matrix of a polarizer: projector onto ``axis`` plus, for an
    imperfect element, sqrt(extinction_ratio) times the projector onto the
    blocked axis (extinction_ratio is the leaked power fraction)."""
    axis = np.asarray(axis, dtype=np.complex128)
    if axis.shape != (2,) or abs(np.vdot(axis, axis) - 1.0) > 1e-9:
        raise DomainError("polarizer axis must be a 2-component unit vector")
    if extinction_ratio < 0.0 or not math.isfinite(extinction_ratio):
        raise DomainError("extinction ratio must be finite and >= 0")
    m = np.outer(axis, axis.conj())
    if extinction_ratio > 0.0:
        perp = _orthogonal_axis(axis)
        m = m + math.sqrt(extinction_ratio) * np.outer(perp, perp.conj())
    return m


def reduce_polarizer_angle(angle: float) -> float:
    """Reduce an axis angle to the principal interval (-pi/2, pi/2]."""
    r = math.remainder(angle, math.pi)
    if r <= -math.pi / 2.0:
        r += math.pi
    return r


def _check_kappas(kappa1: float, kappa2: float) -> None:
    if kappa1 < 0 or kappa2 < 0:
        raise DomainError("Schmidt weights must be nonnegative")
    if abs(kappa1**2 + kappa2**2 - 1.0) > 1e-2:
        raise DomainError("kappa1^2 + kappa2^2 must be close to 1")
    if kappa2 <= 1e-12:
        raise DegenerateFieldError(
            "stripping is undefined for a fully polarized field (kappa2 = 0)"
        )


def stripping_angle(kappa1: float, kappa2: float, b: float) -> float:
    """Polarizer angle that removes the rotated second function component.

    For a field in Schmidt form, rewriting the function space in the basis
    rotated by ``b`` attaches the polarization component
    kappa1 sin(b) u1 + kappa2 cos(b) u2 to the second function vector.  A
    polarizer whose axis is the basis rotated by s with
    tan(s) = (kappa1/kappa2) tan(b) blocks exactly that component, so the
    transmitted beam contains only the first rotated function vector.

    Returns the angle reduced to (-pi/2, pi/2].
    """
    _check_kappas(kappa1, kappa2)
    s = math.atan2(kappa1 * math.sin(b), kappa2 * math.cos(b))
    return reduce_polarizer_angle(s)


def stripping_angle_orthogonal(kappa1: float, kappa2: float, b: float) -> float:
    """Polarizer angle that removes the rotated first function component.

    Counterpart of :func:`stripping_angle`: the transmitted beam retains only
    the second rotated function vector.  Satisfies
    tan(s') = -(kappa1/kappa2) cot(b), reduced to (-pi/2, pi/2].
    """
    _check_kappas(kappa1, kappa2)
    s = math.atan2(-kappa1 * math.cos(b), kappa2 * math.sin(b))
    return reduce_polarizer_angle(s)


def beamsplitter_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """50:50 split into (transmitted, reflected) = (x/sqrt2, i x/sqrt2)."""
    return x / _RT2, 1j * x / _RT2


def beamsplitter_combine(aux: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Recombine two beams on a 50:50 splitter: out = (aux + i test)/sqrt2."""
    if aux.shape != test.shape:
        raise DomainError(f"cannot combine beams of shapes {aux.shape} and {test.shape}")
    return (aux + 1j * test) / _RT2


_RETARDANCE = {"half": math.pi, "quarter": math.pi / 2.0}


def waveplate_matrix(kind: str, fast_axis_angle: float) -> np.ndarray:
    """Jones matrix of a half- or quarter-wave retarder with the given fast axis.

    R(t) diag(exp(-i d/2), exp(+i d/2)) R(-t) with d = pi for ``half`` and
    pi/2 for ``quarter``; unitary, so intensity is conserved.
    """
    if kind not in _RETARDANCE:
        raise DomainError(f"waveplate kind must be 'half' or 'quarter', got {kind!r}")
    d = _RETARDANCE[kind]
    c, s = math.cos(fast_axis_angle), math.sin(fast_axis_angle)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)
    ret = np.diag([np.exp(-0.5j * d), np.exp(0.5j * d)])
    return rot @ ret @ rot.conj().T


def apply(m: np.ndarray, ensemble: FieldEnsemble) -> FieldEnsemble:
    """Pass every realization through the Jones matrix ``m``: E -> m E."""
    return FieldEnsemble(ensemble.realizations @ m.T, seed=None)


def chain_power(m: np.ndarray, moments: np.ndarray) -> float:
    """Ensemble-mean power behind the Jones matrix ``m``, from the sample
    second moments J_pq = <Ep* Eq>: mean ||m E||^2 = sum_pq (m+ m)_pq J_pq."""
    return float(np.sum((m.conj().T @ m) * moments).real)
