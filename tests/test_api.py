import dataclasses
import importlib

import pytest

import wavebell

MODULES = ["ensemble", "optics", "bell", "interferometer"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"wavebell.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"wavebell.{name}.__all__ lists missing names {missing}"


def test_package_names_resolve_to_module_exports():
    # everything the package re-exports from a layer module is a listed,
    # existing export of that module
    for name, value in vars(wavebell).items():
        home = getattr(value, "__module__", "")
        if name.startswith("_") or home.removeprefix("wavebell.") not in MODULES:
            continue
        module = importlib.import_module(home)
        assert name in module.__all__, f"wavebell.{name} is not in {home}.__all__"
        assert getattr(module, name) is value


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_package_names(name):
    # the reverse: every export of a layer module is re-exported by the package
    module = importlib.import_module(f"wavebell.{name}")
    missing = [e for e in module.__all__ if getattr(wavebell, e, None) is not getattr(module, e)]
    assert not missing, f"wavebell.{name}.__all__ names {missing}, which wavebell does not export"


def test_duplicate_names_stay_removed():
    # the basis rotation is optics._axis, the CSV writer is the CLI's and the calibration is
    # schmidt: no second copy
    for owner, name in [(wavebell, "FunctionBasis"), (wavebell, "rotate_lab_basis"),
                        (wavebell, "rotate_function_basis"), (wavebell, "CURVE_CSV_HEADER"),
                        (wavebell.interferometer, "CURVE_CSV_HEADER"),
                        (wavebell.CorrelationCurve, "to_csv"),
                        (wavebell.SchmidtDecomposition, "dop"),
                        (wavebell, "measured_schmidt"), (wavebell.ensemble, "measured_schmidt")]:
        assert not hasattr(owner, name), name
    assert "seed" not in {f.name for f in dataclasses.fields(wavebell.FieldEnsemble)}
