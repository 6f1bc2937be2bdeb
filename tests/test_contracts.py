"""The library keeps the CLI's contract: finite outputs or one domain error.

One property per module, over its ``__all__``: every public name of
``wavebell.ensemble``, ``wavebell.optics`` and ``wavebell.interferometer``,
called with in-range values,
scalars from the CLI fuzz alphabet (0, negatives, NaN, +-inf, 1e+-300,
subnormals, huge integers up to 10**400, past the float range) and arrays of
the wrong shape, returns finite values of its documented shape, or raises one
``WavebellError`` subclass with a one-line message.  Tier-1 runs with warnings as errors, so a RuntimeWarning
that escapes fails too.  Arguments of another type (a string or None for an
array, a float for an ensemble) are outside the contract, so no draw makes
one.  Realization counts are capped at 10**5, resamples at 100 and grids at 100
points, so no draw allocates more than a few MB.  The result records
``SettingResult``, ``CorrelationCurve`` and ``BellReport`` hold what they are
given and check nothing: the functions that return them check their inputs.
"""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis import settings as hypothesis_settings

from wavebell import (AngleSettings, FieldEnsemble, LabBasis, NoiseModel, ProtocolConfig,
                      SchmidtDecomposition, SettingResult, StokesVector, WavebellError, ensemble,
                      interferometer, optics, schmidt, stokes, synthesize_partially_polarized,
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

_NOISES = [NoiseModel(), NoiseModel(extinction_ratio=1e-3), NoiseModel(detector_noise=1e-4),
           NoiseModel(phase_jitter=0.3), NoiseModel(1.0, 1e6, 1e6)]
_SETTINGS = [AngleSettings(0.1, 0.7, 0.3, 1.2), AngleSettings(0.0, 0.0, 0.0, 0.0)]
# one kernel reading of four outcomes at DOP 0.3, b = 0.3, a = 0.2, and a pair with a stripped
# outcome
_TRIPLES = [np.array([[1.2484, 0.6209, 0.6203], [0.5054, 0.6209, 0.3729],
                      [0.0017, 0.3791, 0.3796], [0.3781, 0.3791, 0.6271]]),
            np.array([[0.5, 1.0, 0.0], [0.5, 1.0, 0.5], [0.25, 0.0, 1.0], [0.5, 0.0, 1.0]])]
# The interferometer's own parameters, where a name means something else there; grids of at
# most 100 points and at most 100 resamples.
_INTERFEROMETER_GOOD = {
    "a": _ANGLES,
    "s": _ANGLES,
    "a_grid": st.sampled_from([[0.3], _ANGLES, np.linspace(0.0, math.pi, 100)])
    | st.sampled_from([(1,), (7,), (100,)]).flatmap(_arrays),
    "triples": st.sampled_from(_TRIPLES) | st.just(np.stack(_TRIPLES))
    | st.sampled_from([(4, 3), (2, 4, 3)]).flatmap(_arrays),
    "beam": st.sampled_from([0.5, 1.0, 1e-300, 1e300, np.array([0.5, 1.0])]),
    "resamples": [0, 10, 100],
    "detector_noise": [0.0, 1e-4, 0.3, 1e6],
    "phase_jitter": [0.0, 0.05, 1.0, 1e6],
    **{name: [0.0, 0.25, 1.0] for name in ("p11", "p12", "p21", "p22", "c", "c_err", "chsh",
                                          "chsh_err")},
}
_INTERFEROMETER_TYPED = {
    "noise": st.sampled_from(_NOISES),
    "settings": st.sampled_from([None, *_SETTINGS]),
    "config": st.builds(ProtocolConfig, dop=st.sampled_from([0.0, 0.3, 1.0 - 1e-6, 1.0]),
                        n=st.sampled_from([2, 1000, 10**5]), seed=st.integers(0, 3),
                        settings=st.sampled_from([None, *_SETTINGS]),
                        noise=st.sampled_from(_NOISES), resamples=st.sampled_from([0, 10, 100])),
    "probabilities": st.just((SettingResult(0.1, 0.3, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0),) * 4),
    "method": st.sampled_from(["interferometer", "closed-form"]),
}


def _strategy(name, module=None):
    """Mostly in-range values, so calls go deep, else the alphabet and wrong shapes."""
    own = module is interferometer and name in _INTERFEROMETER_GOOD
    if module is interferometer and name in _INTERFEROMETER_TYPED:
        return _INTERFEROMETER_TYPED[name]
    if name in _TYPED and not own:
        return _TYPED[name]
    good = (_INTERFEROMETER_GOOD if own else _GOOD)[name]
    good = st.sampled_from(good) if isinstance(good, list) else good
    return st.one_of(good, good, good, _WRONG)


def _finite(value) -> bool:
    # an integer is finite, a seed past the float range included
    if isinstance(value, (str, int)) or value is None:
        return True
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
    "NoiseModel": lambda r, a: isinstance(r, NoiseModel),
    "ProtocolConfig": lambda r, a: isinstance(r, ProtocolConfig),
    "measure_intensities": lambda r, a: len(r) == 3 and all(type(v) is float for v in r),
    "probabilities_from_triples": lambda r, a: r.shape == np.shape(a["triples"])[:-1],
    "scan_correlation": lambda r, a: r.c.shape == r.c_err.shape == np.shape(a["a_grid"])
    and r.method in ("interferometer", "closed-form"),
    "run_bell_protocol": lambda r, a: len(r.probabilities) == 4
    and r.method in ("interferometer", "closed-form"),
}
# The result records hold what they are given.
_RECORDS = {"SettingResult", "CorrelationCurve", "BellReport"}
_SHAPES.update({name: lambda r, a: all(getattr(r, k) is v for k, v in a.items())
                for name in _RECORDS})


@st.composite
def _calls(draw, module):
    """A public name of ``module`` and keyword arguments for it; an optional
    parameter is left at its default about a third of the time."""
    name = draw(st.sampled_from(module.__all__))
    kwargs = {}
    for p in inspect.signature(getattr(module, name)).parameters.values():
        if p.default is p.empty or draw(st.integers(0, 2)):
            kwargs[p.name] = draw(_strategy(p.name, module))
    return name, kwargs


def _keeps_the_contract(module, name, kwargs):
    try:
        result = getattr(module, name)(**kwargs)
        ok = (name in _RECORDS or _finite(result)) and _SHAPES[name](result, kwargs)
    except WavebellError as exc:
        message = str(exc)
        assert message and "\n" not in message, (name, kwargs, message)
        return
    assert ok, (name, kwargs, result)


def test_every_public_name_has_a_shape_rule():
    modules = (ensemble, optics, interferometer)
    assert set(_SHAPES) == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            params = inspect.signature(getattr(module, name)).parameters
            assert set(params) <= set(_GOOD) | set(_TYPED) | set(_INTERFEROMETER_GOOD) \
                | set(_INTERFEROMETER_TYPED), name


# derandomized, as the CLI fuzz property is, so tier-1 reads the same examples every run
@hypothesis_settings(max_examples=400, deadline=None, derandomize=True)
@given(_calls(ensemble))
def test_ensemble_keeps_the_contract(call):
    _keeps_the_contract(ensemble, *call)


@hypothesis_settings(max_examples=400, deadline=None, derandomize=True)
@given(_calls(optics))
def test_optics_keeps_the_contract(call):
    _keeps_the_contract(optics, *call)


@hypothesis_settings(max_examples=400, deadline=None, derandomize=True)
@given(_calls(interferometer))
def test_interferometer_keeps_the_contract(call):
    _keeps_the_contract(interferometer, *call)


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
    (optics, "polarizer_axis", {"basis": _BASES[0], "angle": np.array([0.1, 0.2j], dtype=object)}),
    (interferometer, "NoiseModel", {"detector_noise": np.array([0.1, 0.2])}),
    (interferometer, "NoiseModel", {"phase_jitter": 0.1 + 0.2j}),
    (interferometer, "NoiseModel", {"detector_noise": np.array([])}),
    (interferometer, "probabilities_from_triples", {"triples": _TRIPLES[0] + 0.1j, "beam": 1.0}),
    (interferometer, "probabilities_from_triples",
     {"triples": np.full((4, 3), 10**400, dtype=object), "beam": 1.0}),
    (interferometer, "probabilities_from_triples",
     {"triples": _TRIPLES[1], "beam": np.array([1.0, 0.5j], dtype=object)}),
    (interferometer, "scan_correlation", {"ensemble": _ENSEMBLES[0], "sd": _DECOMPOSITIONS[0],
                                          "b": 0.3 + 0.1j, "a_grid": [0.1]}),
    (interferometer, "scan_correlation", {"ensemble": _ENSEMBLES[0], "sd": _DECOMPOSITIONS[0],
                                          "b": np.array([0.1, 0.2]), "a_grid": [0.1]}),
    (interferometer, "scan_correlation", {"ensemble": _ENSEMBLES[0], "sd": _DECOMPOSITIONS[0],
                                          "b": 10**400, "a_grid": [0.1]}),
    (interferometer, "scan_correlation", {"ensemble": _ENSEMBLES[0], "sd": _DECOMPOSITIONS[0],
                                          "b": 0.3, "a_grid": [0.1, 0.2j]}),
    (interferometer, "scan_correlation", {"ensemble": _ENSEMBLES[0], "sd": _DECOMPOSITIONS[0],
                                          "b": 0.3, "a_grid": [0.1, 10**400]}),
    (interferometer, "measure_intensities", {"ensemble": _ENSEMBLES[0], "a": np.zeros(3),
                                             "s": 0.3, "basis": _BASES[0]}),
]


@pytest.mark.parametrize("module, name, kwargs", FOUND,
                         ids=[f"{name}-{i}" for i, (_, name, _) in enumerate(FOUND)])
def test_found_inputs_keep_the_contract(module, name, kwargs):
    _keeps_the_contract(module, name, kwargs)
