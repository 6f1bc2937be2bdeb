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

from .ensemble import _NORM_TOL, FieldEnsemble, _check_kappas, _check_orthonormal, inner
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
        _check_orthonormal(v1, v2)
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
        _check_orthonormal(g1, g2, inner)
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


def polarizer_axis(basis: LabBasis, angle: float | np.ndarray) -> np.ndarray:
    """Transmission axis of a polarizer at ``angle`` relative to ``basis``: the
    first vector of the basis rotated by ``angle``.  An array of angles gives
    one axis per angle, shape ``angle.shape + (2,)``."""
    angle = np.asarray(angle, dtype=float)[..., None]
    return np.cos(angle) * basis.v1 - np.sin(angle) * basis.v2


def polarizer_matrix(axis: np.ndarray, extinction_ratio: float = 0.0) -> np.ndarray:
    """2x2 Jones matrix of a polarizer: projector onto ``axis``, a unit vector to
    1e-12, plus sqrt(extinction_ratio) times the projector onto the blocked axis
    (extinction_ratio, in [0, 1], is the leaked power fraction).  A stack
    of axes, shape (..., 2), gives a stack of matrices, shape (..., 2, 2)."""
    axis = np.atleast_1d(np.asarray(axis, dtype=np.complex128))
    off = np.max(np.abs((axis.real**2 + axis.imag**2).sum(-1) - 1.0), initial=0.0)  # keeps a NaN
    if axis.shape[-1:] != (2,) or not off <= _NORM_TOL:
        raise DomainError(f"need 2-component unit polarizer axes, got |<axis|axis> - 1| = {off}")
    _check_extinction(extinction_ratio)
    m = axis[..., :, None] * axis.conj()[..., None, :]
    if extinction_ratio > 0.0:
        perp = np.stack([-axis[..., 1].conj(), axis[..., 0].conj()], axis=-1)
        m = m + math.sqrt(extinction_ratio) * (perp[..., :, None] * perp.conj()[..., None, :])
    return m


def reduce_polarizer_angle(angle: float) -> float:
    """Reduce an axis angle to the principal interval (-pi/2, pi/2]."""
    r = math.remainder(angle, math.pi)
    if r <= -math.pi / 2.0:
        r += math.pi
    return r


def _check_extinction(extinction_ratio: float) -> None:
    if not 0.0 <= extinction_ratio <= 1.0:  # a NaN fails too
        raise DomainError(f"extinction_ratio must lie in [0, 1], got {extinction_ratio}")


def _check_strippable(kappa1: float, kappa2: float) -> None:
    _check_kappas(kappa1, kappa2)
    if kappa2 <= 1e-12:
        raise DegenerateFieldError(
            "stripping is undefined for a fully polarized field (kappa2 = 0)")


def stripping_angle(kappa1: float, kappa2: float, b: float) -> float:
    """Polarizer angle that removes the rotated second function component.

    For a field in Schmidt form, rewriting the function space in the basis
    rotated by ``b`` attaches the polarization component
    kappa1 sin(b) u1 + kappa2 cos(b) u2 to the second function vector.  A
    polarizer whose axis is the basis rotated by s with
    tan(s) = (kappa1/kappa2) tan(b) blocks exactly that component, so the
    transmitted beam contains only the first rotated function vector.

    Returns the angle reduced to (-pi/2, pi/2].  Needs kappa1^2 + kappa2^2 = 1
    to 1e-12 with kappa1, kappa2 >= 0 (else DomainError) and kappa2 > 1e-12.
    """
    _check_strippable(kappa1, kappa2)
    s = math.atan2(kappa1 * math.sin(b), kappa2 * math.cos(b))
    return reduce_polarizer_angle(s)


def stripping_angle_orthogonal(kappa1: float, kappa2: float, b: float) -> float:
    """Polarizer angle that removes the rotated first function component.

    Counterpart of :func:`stripping_angle`: the transmitted beam retains only
    the second rotated function vector.  Satisfies
    tan(s') = -(kappa1/kappa2) cot(b), reduced to (-pi/2, pi/2].
    """
    _check_strippable(kappa1, kappa2)
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


def chain_power(m: np.ndarray, moments: np.ndarray) -> float | np.ndarray:
    """Ensemble-mean power behind the Jones matrix ``m``, from the sample
    second moments J_pq = <Ep* Eq>: mean ||m E||^2 = sum_pq (m+ m)_pq J_pq.

    Stacks of chains (..., 2, 2) and of moment matrices broadcast against
    each other and give an array of powers; one chain and one J give a float.
    """
    power = _entry_sum((m.conj().swapaxes(-1, -2) @ m) * moments).real
    return float(power) if power.ndim == 0 else power


def _entry_sum(x: np.ndarray) -> np.ndarray:
    # sum of the trailing 2x2 entries in the order np.sum takes for one 2x2
    return (x[..., 0, 0] + x[..., 0, 1]) + (x[..., 1, 0] + x[..., 1, 1])
