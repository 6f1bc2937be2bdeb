"""The library keeps the CLI's contract: finite outputs or one domain error.

One property per module, over its ``__all__``: every public name of
``wavebell.ensemble`` and ``wavebell.optics``, called with in-range values,
scalars from the CLI fuzz alphabet (0, negatives, NaN, +-inf, 1e+-300,
subnormals, huge integers up to 10**400, past the float range) and arrays of
the wrong shape, returns finite values of its documented shape, or raises one
``WavebellError`` subclass with a one-line message.  Tier-1 runs with warnings as errors, so a RuntimeWarning
that escapes fails too.  Arguments of another type (a string or None for an
array, a float for an ensemble) are outside the contract, so no draw makes
one.  Realization counts are capped at 10**5, so no draw allocates more than a
few MB.
"""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis import settings as hypothesis_settings

from wavebell import (FieldEnsemble, LabBasis, SchmidtDecomposition, StokesVector, WavebellError,
                      ensemble, optics, schmidt, stokes, synthesize_partially_polarized,
                      synthesize_schmidt_form)

_SUBNORMALS = [5e-324, 1e-310, -2.5e-320]
_SCALARS = [0, 0.0, -1, -0.3, 1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf, -math.inf,
            2**53 + 1, 2**64, -(2**64), 10**400, -(10**400), *_SUBNORMALS]


def _noise(shape, scale=1.0):
    """Complex normal arrays of ``shape`` times ``scale``, from one of four seeds."""
    return st.integers(0, 3).map(lambda seed: scale * (
        np.random.default_rng(seed).standard_normal(shape)
        + 1j * np.random.default_rng(seed + 4).standard_normal(shape)))


def _entry_type(value, number_type):
    # numpy holds an integer past the float range only in an object array
    return number_type if abs(value) < 2**1024 else object


def _spiked(noise, value):
    out = np.array(noise, dtype=_entry_type(value, complex))
    out.reshape(-1)[:1] = value
    return out


def _arrays(shape):
    """Arrays of ``shape``: normal entries, one alphabet scalar everywhere, or normal
    entries with one alphabet scalar in the first place."""
    full = st.sampled_from([0.3, *_SCALARS]).map(
        lambda v: np.full(shape, v, dtype=_entry_type(v, float)))
    spiked = st.tuples(_noise(shape), st.sampled_from(_SCALARS)).map(lambda pair: _spiked(*pair))
    return _noise(shape) | full | spiked


# Wrong shapes for every array parameter: empty, scalar, 3-vector, 3x3, a stack of vectors.
_WRONG_SHAPES = st.sampled_from([(0,), (), (3,), (1,), (3, 3), (2, 2, 2), (4, 3), (1, 2), (0, 2)])
_WRONG = st.sampled_from(_SCALARS) | _WRONG_SHAPES.flatmap(_arrays)


_SCALES = [1.0, 1e-75, 1e75, 1e-160, 1e160]
_ENSEMBLES = [
    synthesize_partially_polarized(0.3, 1.0, 16, 0),
    synthesize_partially_polarized(0.9, 1e-100, 5, 1),
    synthesize_partially_polarized(0.0, 1e100, 2, 2),
    synthesize_schmidt_form(1.0, 0.0, 1.0, 8, 3, np.array([0.6, 0.8j]), np.array([0.8, -0.6j])),
    FieldEnsemble(np.zeros((3, 2))),  # no power
    FieldEnsemble(np.full((4, 2), 1e160)),  # J overflows
    FieldEnsemble(np.array([[1.2e154 + 1.2e154j] * 2, [0, 0]])),  # J is finite, tr J is not
    FieldEnsemble(np.full((4, 2), 1e-160)),  # tr J below the trace range
    FieldEnsemble(np.array([[5e-324, 0.0], [0.0, 1e-310]])),
]
_BASES = [LabBasis(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
          LabBasis(np.array([0.6, 0.8j]), np.array([0.8, -0.6j]))]
_DECOMPOSITIONS = [schmidt(e) for e in _ENSEMBLES[:4]] + [
    SchmidtDecomposition(1.0, 0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)]
_STOKES = [stokes(e.second_moments) for e in _ENSEMBLES[:5]] + [StokesVector(1e-300, 0, 0, 0)]

_KAPPAS = [1.0, 0.0, math.sqrt(0.5), math.sqrt(0.8), math.sqrt(0.2)]
_ANGLES = [0.0, 0.3, -1.2, math.pi / 2, 7.0, 1e15]
_UNIT = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8j]),
         np.array([0.8, -0.6j]), np.array([1.0, 1.0]) / math.sqrt(2.0)]
_MATRICES = [np.eye(2), np.array([[1.0, 0.5j], [-0.5j, 0.25]]), np.zeros((2, 2)),
             np.array([[0.6, 0.8], [0.3, 0.4]]), np.array([[1e300, 0.0], [0.0, 1.0]]),
             np.array([[1e308, 1e308], [1e308, 1e308]])]

# In-range values of each parameter, by name; counts of realizations at most 10**5.
_GOOD = {
    "realizations": st.sampled_from([(2, 2), (3, 2), (64, 2)]).flatmap(
        lambda shape: st.sampled_from(_SCALES).flatmap(lambda s: _noise(shape, s))
        | _arrays(shape)),
    "s0": [1.0, 2.0, 1e-300, 1e300, 0.0],
    "s1": [0.0, 0.5, -1.0, 1e-300],
    "s2": [0.0, 0.3, -0.5],
    "s3": [0.0, -0.2, 0.6],
    "kappa1": _KAPPAS,
    "kappa2": _KAPPAS,
    "u1": _UNIT,
    "u2": _UNIT,
    "v1": _UNIT,
    "v2": _UNIT,
    "axis": st.sampled_from(_UNIT) | st.just(np.stack(_UNIT)) | st.just(np.array(_UNIT[2:4])),
    "intensity": [1.0, 1e-100, 1e100, 0.5],
    "f": st.sampled_from([2, 5]).flatmap(lambda n: _arrays((n,))),
    "g": st.sampled_from([2, 5]).flatmap(lambda n: _arrays((n,))),
    "x": st.sampled_from(_MATRICES) | st.sampled_from([(5, 2), (2,)]).flatmap(_arrays),
    "aux": st.sampled_from(_MATRICES),
    "test": st.sampled_from(_MATRICES),
    "n": [2, 3, 64, 10**5],
    "seed": [0, 1, 7, (0, 3)],
    "dop": [0.0, 0.3, 1.0, 1.0 - 1e-13],
    "j": st.sampled_from(_MATRICES) | st.sampled_from([e.second_moments for e in _ENSEMBLES[:4]]),
    "moments": st.sampled_from(_MATRICES) | st.just(np.stack(_MATRICES[:3])),
    "m": st.sampled_from(_MATRICES) | st.just(np.stack(_MATRICES[:2])),
    "extinction_ratio": [0.0, 1e-3, 1.0],
    "fast_axis_angle": _ANGLES,
    "b": _ANGLES,
    "angle": st.sampled_from(_ANGLES) | st.just(np.array(_ANGLES)),
}
# Parameters that take one of the package's records or a string: valid records, and
# strings, only.
_TYPED = {
    "kind": st.sampled_from(["half", "quarter", "full", ""]),
    "ensemble": st.sampled_from(_ENSEMBLES),
    "sd": st.sampled_from(_DECOMPOSITIONS),
    "s": st.sampled_from(_STOKES),
    "basis": st.sampled_from(_BASES),
}


def _strategy(name):
    """Mostly in-range values, so calls go deep, else the alphabet and wrong shapes."""
    if name in _TYPED:
        return _TYPED[name]
    good = _GOOD[name]
    good = st.sampled_from(good) if isinstance(good, list) else good
    return st.one_of(good, good, good, _WRONG)


def _finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    # through complex, as an integer past int64 has no isfinite of its own
    return bool(np.isfinite(np.asarray(value, dtype=complex)).all())


def _in_half_turn(r, _):
    return isinstance(r, float) and -math.pi / 2 < r <= math.pi / 2


# The documented shape of each public name's result, given its arguments.
_SHAPES = {
    "FieldEnsemble": lambda r, a: r.realizations.shape[1:] == (2,)
    and r.second_moments.shape == (2, 2) and _finite(r.second_moments),
    "StokesVector": lambda r, a: all(isinstance(v, (int, float)) for v in vars(r).values()),
    "SchmidtDecomposition": lambda r, a: r.u1.shape == r.u2.shape == (2,)
    and r.intensity > 0,
    "inner": lambda r, a: isinstance(r, complex),
    "synthesize_partially_polarized": lambda r, a: r.n == a["n"],
    "synthesize_schmidt_form": lambda r, a: r.n == a.get("n", 1024),
    "stokes": lambda r, a: isinstance(r, StokesVector),
    "dop": lambda r, a: 0.0 <= r <= 1.0,
    "kappa_from_dop": lambda r, a: len(r) == 2,
    "schmidt": lambda r, a: isinstance(r, SchmidtDecomposition),
    "schmidt_functions": lambda r, a: r[0].shape == r[1].shape == (a["ensemble"].n,),
    "tomography": lambda r, a: isinstance(r, StokesVector),
    "polarization_report": lambda r, a: bool(json.dumps(r, allow_nan=False)),
    "LabBasis": lambda r, a: r.v1.shape == r.v2.shape == (2,),
    "polarizer_axis": lambda r, a: r.shape == np.shape(a["angle"]) + (2,),
    "polarizer_matrix": lambda r, a: r.shape == np.shape(a["axis"])[:-1] + (2, 2),
    "waveplate_matrix": lambda r, a: r.shape == (2, 2),
    "apply": lambda r, a: r.n == a["ensemble"].n,
    "chain_power": lambda r, a: np.shape(r) == np.broadcast_shapes(
        np.shape(a["m"]), np.shape(a["moments"]))[:-2],
    "reduce_polarizer_angle": _in_half_turn,
    "stripping_angle": _in_half_turn,
    "stripping_angle_orthogonal": _in_half_turn,
    "beamsplitter_split": lambda r, a: np.shape(r[0]) == np.shape(r[1]) == np.shape(a["x"]),
    "beamsplitter_combine": lambda r, a: np.shape(r) == np.shape(a["aux"]),
}


@st.composite
def _calls(draw, module):
    """A public name of ``module`` and keyword arguments for it; an optional
    parameter is left at its default about a third of the time."""
    name = draw(st.sampled_from(module.__all__))
    kwargs = {}
    for p in inspect.signature(getattr(module, name)).parameters.values():
        if p.default is p.empty or draw(st.integers(0, 2)):
            kwargs[p.name] = draw(_strategy(p.name))
    return name, kwargs


def _keeps_the_contract(module, name, kwargs):
    try:
        result = getattr(module, name)(**kwargs)
        ok = _finite(result) and _SHAPES[name](result, kwargs)
    except WavebellError as exc:
        message = str(exc)
        assert message and "\n" not in message, (name, kwargs, message)
        return
    assert ok, (name, kwargs, result)


def test_every_public_name_has_a_shape_rule():
    assert set(_SHAPES) == set(ensemble.__all__) | set(optics.__all__)
    for module in (ensemble, optics):
        for name in module.__all__:
            params = inspect.signature(getattr(module, name)).parameters
            assert set(params) <= set(_GOOD) | set(_TYPED), name


# derandomized, as the CLI fuzz property is, so tier-1 reads the same examples every run
@hypothesis_settings(max_examples=400, deadline=None, derandomize=True)
@given(_calls(ensemble))
def test_ensemble_keeps_the_contract(call):
    _keeps_the_contract(ensemble, *call)


@hypothesis_settings(max_examples=400, deadline=None, derandomize=True)
@given(_calls(optics))
def test_optics_keeps_the_contract(call):
    _keeps_the_contract(optics, *call)


_UNIT_X, _UNIT_Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
_RECORD_1 = SchmidtDecomposition(1.0, 0.0, _UNIT_X, _UNIT_Y, 1.0)
# Inputs on which each module broke the contract before it was mended: a numpy error, a
# RuntimeWarning, a non-finite or misshapen result, or a message of many lines.
FOUND = [
    (ensemble, "kappa_from_dop", {"dop": np.array([0.1, 0.2])}),
    (ensemble, "synthesize_partially_polarized",
     {"dop": np.array([0.0]), "intensity": 1.0, "n": 64, "seed": 0}),
    (ensemble, "synthesize_partially_polarized",
     {"dop": 0.3, "intensity": 1.0, "n": np.zeros((3, 3)), "seed": 0}),
    (ensemble, "synthesize_schmidt_form", {"kappa1": np.array([]), "kappa2": 1.0}),
    (ensemble, "synthesize_schmidt_form",
     {"kappa1": 1.0, "kappa2": 0.0, "u1": _UNIT_Y, "u2": np.array([])}),
    (ensemble, "StokesVector", {"s0": np.array([1.0, 2.0]), "s1": 0, "s2": 0, "s3": 0}),
    (ensemble, "StokesVector", {"s0": 1.0, "s1": 0.5j, "s2": 0, "s3": 0}),
    (ensemble, "StokesVector", {"s0": 10**400, "s1": 0, "s2": 0, "s3": 0}),
    (ensemble, "FieldEnsemble", {"realizations": 10**400}),
    (ensemble, "stokes", {"j": 10**400}),
    (ensemble, "synthesize_schmidt_form", {"kappa1": 1.0, "kappa2": 0.0, "u1": 10**400,
                                           "u2": _UNIT_Y}),
    (ensemble, "SchmidtDecomposition", {"kappa1": 1.0, "kappa2": 0.0, "u1": [1, 0, 0],
                                        "u2": [0, 1, 0], "intensity": 1.0}),
    (ensemble, "SchmidtDecomposition", {"kappa1": 1.0, "kappa2": 0.0, "u1": _UNIT_X,
                                        "u2": _UNIT_Y, "intensity": math.nan}),
    (ensemble, "inner", {"f": np.array([]), "g": np.array([])}),
    (ensemble, "inner", {"f": 0.3, "g": 0.3}),
    (ensemble, "inner", {"f": np.array([math.nan, 1.0]), "g": np.ones(2)}),
    (ensemble, "inner", {"f": [10**400, 1], "g": [1, 1]}),
    (ensemble, "schmidt_functions", {"ensemble": _ENSEMBLES[5], "sd": _RECORD_1}),
    (ensemble, "schmidt", {"ensemble": _ENSEMBLES[6]}),
    (ensemble, "tomography", {"ensemble": _ENSEMBLES[6]}),
    (ensemble, "stokes", {"j": np.full((2, 2), 1e308)}),
    (optics, "reduce_polarizer_angle", {"angle": np.array([0.1, 0.2])}),
    (optics, "reduce_polarizer_angle", {"angle": 0.1 + 0.2j}),
    (optics, "reduce_polarizer_angle", {"angle": -(2**64)}),
    (optics, "reduce_polarizer_angle", {"angle": 10**400}),
    (optics, "polarizer_axis", {"basis": _BASES[0], "angle": 10**400}),
    (optics, "waveplate_matrix", {"kind": "quarter", "fast_axis_angle": -(10**400)}),
    (optics, "polarizer_matrix", {"axis": 10**400}),
    (optics, "LabBasis", {"v1": [10**400, 0], "v2": _UNIT_Y}),
    (optics, "beamsplitter_split", {"x": 10**400}),
    (optics, "beamsplitter_combine", {"aux": 10**400, "test": 0.3}),
    (optics, "polarizer_axis", {"basis": _BASES[0], "angle": np.complex128(0.3 + 0.1j)}),
    (optics, "polarizer_matrix", {"axis": np.array([1e300, 0.0])}),
    (optics, "polarizer_matrix", {"axis": _UNIT_X, "extinction_ratio": np.array([0.1, 0.2])}),
    (optics, "waveplate_matrix", {"kind": "half", "fast_axis_angle": np.array([0.1, 0.2])}),
    (optics, "stripping_angle", {"kappa1": np.array([0.8, 0.6]), "kappa2": 0.6, "b": 0.3}),
    (optics, "stripping_angle_orthogonal", {"kappa1": 0.8, "kappa2": 0.6,
                                            "b": np.array([0.3])}),
    (optics, "beamsplitter_split", {"x": np.array([math.nan])}),
    (optics, "beamsplitter_combine", {"aux": 0.3, "test": 0.3}),
    (optics, "beamsplitter_combine", {"aux": np.array([1e308]), "test": np.array([-1e308j])}),
    (optics, "apply", {"m": np.full((2, 2), 1e308), "ensemble": _ENSEMBLES[0]}),
    (optics, "chain_power", {"m": np.full((2, 2), 1e300), "moments": np.eye(2)}),
    (optics, "chain_power", {"m": np.full((2, 2), math.nan), "moments": np.eye(2)}),
    (optics, "apply", {"m": np.full((2, 2), 10**400, dtype=object), "ensemble": _ENSEMBLES[0]}),
    (optics, "chain_power", {"m": [[10**400, 0], [0, 1]], "moments": np.eye(2)}),
    (optics, "chain_power", {"m": np.eye(2), "moments": np.full((2, 2), -(10**400), dtype=object)}),
]


@pytest.mark.parametrize("module, name, kwargs", FOUND,
                         ids=[f"{name}-{i}" for i, (_, name, _) in enumerate(FOUND)])
def test_found_inputs_keep_the_contract(module, name, kwargs):
    _keeps_the_contract(module, name, kwargs)
