"""Optical elements as 2x2 Jones matrices.

Every element is a constructor returning its Jones matrix; a chain of
elements is the matrix product, applied to an ensemble with :func:`apply`
or turned into an ensemble-mean power with :func:`chain_power`.  The beam
splitter functions act on plain arrays, so the same function splits an
(n, 2) realization array or a 2x2 chain matrix.

A basis rotation, in lab (polarization) space or in the N-dimensional
function space, has one convention: rotating (v1, v2) by angle t gives the
first vector cos t v1 - sin t v2 (``_axis``), and the second is the first
vector of (v2, -v1) rotated by t.

A polarizer is an axis device with period pi; all polarizer angles are
reduced to (-pi/2, pi/2].  The beam splitters use the convention
transmit -> 1/sqrt(2), reflect -> i/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import (_NORM_TOL, FieldEnsemble, _check_kappas, _check_orthonormal, _check_real,
                       _complex_array, _real_array)
from .errors import DegenerateFieldError, DomainError

__all__ = [
    "LabBasis",
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
        v1, v2 = _complex_array("v1", self.v1), _complex_array("v2", self.v2)
        _check_orthonormal(v1, v2)
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)


def _check_angles(*angles) -> None:
    """Raise DomainError unless every angle, a real number or an array of them, is finite."""
    # through float, as an integer past int64 has no isfinite of its own
    if not all(np.isfinite(_real_array("angles", a)).all() for a in angles):
        raise DomainError("angles must be finite")


def _check_angle(angle) -> None:
    _check_real("angle", angle)
    _check_angles(angle)


def _axis(v1: np.ndarray, v2: np.ndarray, angle) -> np.ndarray:
    """First vector of the basis (v1, v2) rotated by ``angle``,
    cos(angle) v1 - sin(angle) v2; an array of angles gives one vector per
    angle, shape ``angle.shape + v1.shape``."""
    _check_angles(angle)
    angle = np.asarray(angle, dtype=float)[..., None]
    return np.cos(angle) * v1 - np.sin(angle) * v2


def polarizer_axis(basis: LabBasis, angle: float | np.ndarray) -> np.ndarray:
    """Transmission axis of a polarizer at ``angle`` relative to ``basis``: the
    first vector of the basis rotated by ``angle``.  An array of angles gives
    one axis per angle, shape ``angle.shape + (2,)``."""
    return _axis(basis.v1, basis.v2, angle)


def polarizer_matrix(axis: np.ndarray, extinction_ratio: float = 0.0) -> np.ndarray:
    """2x2 Jones matrix of a polarizer: projector onto ``axis``, a unit vector to
    1e-12, plus sqrt(extinction_ratio) times the projector onto the blocked axis
    (extinction_ratio, in [0, 1], is the leaked power fraction).  A stack
    of axes, shape (..., 2), gives a stack of matrices, shape (..., 2, 2)."""
    axis = np.atleast_1d(_complex_array("axis", axis))
    # max keeps a NaN, and an overflowed norm is inf: each fails the check
    with np.errstate(over="ignore"):
        off = np.max(np.abs((axis.real**2 + axis.imag**2).sum(-1) - 1.0), initial=0.0)
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
    _check_angle(angle)
    r = math.remainder(angle, math.pi)
    if r <= -math.pi / 2.0:
        r += math.pi
    return r


def _check_extinction(extinction_ratio: float) -> None:
    _check_real("extinction_ratio", extinction_ratio)
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
    _check_angle(b)
    s = math.atan2(kappa1 * math.sin(b), kappa2 * math.cos(b))
    return reduce_polarizer_angle(s)


def stripping_angle_orthogonal(kappa1: float, kappa2: float, b: float) -> float:
    """Polarizer angle that removes the rotated first function component.

    Counterpart of :func:`stripping_angle`: the transmitted beam retains only
    the second rotated function vector.  Satisfies
    tan(s') = -(kappa1/kappa2) cot(b), reduced to (-pi/2, pi/2].
    """
    _check_strippable(kappa1, kappa2)
    _check_angle(b)
    s = math.atan2(-kappa1 * math.cos(b), kappa2 * math.sin(b))
    return reduce_polarizer_angle(s)


def beamsplitter_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """50:50 split of a finite complex beam into (transmitted, reflected) =
    (x/sqrt2, i x/sqrt2)."""
    x = _complex_array("the beam to split", x)
    if not np.isfinite(x).all():
        raise DomainError("the beam to split must be finite")
    return x / _RT2, 1j * x / _RT2


def beamsplitter_combine(aux: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Recombine two beams of one shape on a 50:50 splitter: out = (aux + i test)/sqrt2,
    which must be finite."""
    aux, test = _complex_array("aux", aux), _complex_array("test", test)
    if aux.shape != test.shape:
        raise DomainError(f"cannot combine beams of shapes {aux.shape} and {test.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (aux + 1j * test) / _RT2
    if not np.isfinite(out).all():
        raise DomainError("the recombined beam is not finite: an input is not, or the sum "
                          "overflows")
    return out


_RETARDANCE = {"half": math.pi, "quarter": math.pi / 2.0}


def waveplate_matrix(kind: str, fast_axis_angle: float) -> np.ndarray:
    """Jones matrix of a half- or quarter-wave retarder with the given fast axis.

    R(t) diag(exp(-i d/2), exp(+i d/2)) R(-t) with d = pi for ``half`` and
    pi/2 for ``quarter``; unitary, so intensity is conserved.
    """
    if kind not in _RETARDANCE:
        raise DomainError(f"waveplate kind must be 'half' or 'quarter', got {kind!r}")
    _check_angle(fast_axis_angle)
    d = _RETARDANCE[kind]
    c, s = math.cos(fast_axis_angle), math.sin(fast_axis_angle)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)
    ret = np.diag([np.exp(-0.5j * d), np.exp(0.5j * d)])
    return rot @ ret @ rot.conj().T


def apply(m: np.ndarray, ensemble: FieldEnsemble) -> FieldEnsemble:
    """Pass every realization through the 2x2 Jones matrix ``m``: E -> m E."""
    m = _complex_array("m", m)
    if m.shape != (2, 2):
        raise DomainError(f"need a 2x2 Jones matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # FieldEnsemble refuses the inf or NaN
        return FieldEnsemble(ensemble.realizations @ m.T)


def chain_power(m: np.ndarray, moments: np.ndarray) -> float | np.ndarray:
    """Ensemble-mean power behind the Jones matrix ``m``, from the sample
    second moments J_pq = <Ep* Eq>: mean ||m E||^2 = sum_pq (m+ m)_pq J_pq.

    Stacks of chains (..., 2, 2) and of moment matrices broadcast against
    each other and give an array of powers; one chain and one J give a float.
    Other shapes raise DomainError.
    """
    m, moments = _complex_array("m", m), _complex_array("moments", moments)
    shapes = m.shape, moments.shape
    try:
        np.broadcast_shapes(*shapes)
        fits = all(x[-2:] == (2, 2) for x in shapes)
    except ValueError:
        fits = False
    if not fits:
        raise DomainError(f"need 2x2 chains and moments, or stacks of them that broadcast, "
                          f"got shapes {shapes[0]} and {shapes[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = (m.conj().swapaxes(-1, -2) @ m) * moments
        # the trailing 2x2 entries summed in the order np.sum takes for one 2x2
        power = ((x[..., 0, 0] + x[..., 0, 1]) + (x[..., 1, 0] + x[..., 1, 1])).real
    if not np.isfinite(power).all():
        raise DomainError("the power behind the chain is not finite: an entry is not, or the "
                          "power overflows")
    return float(power) if power.ndim == 0 else power
