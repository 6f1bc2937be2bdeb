"""Golden outputs: the CLI matrix of tests/golden/rewrite.py against its manifest.

Floats compare exactly where numpy's version and CPU dispatch are those the
manifest records, and to rtol 1e-12 elsewhere.  A change that moves outputs
on purpose rewrites the manifest with ``PYTHONPATH=src python
tests/golden/rewrite.py --write`` and records the table it prints.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wavebell import (NoiseModel, ensemble, interferometer, measure_intensities, schmidt,
                      synthesize_partially_polarized)
from wavebell.optics import LabBasis

_SPEC = importlib.util.spec_from_file_location(
    "golden_rewrite", Path(__file__).parent / "golden" / "rewrite.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_cli_outputs_match_the_manifest():
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    old = manifest["entries"]
    assert [(e["name"], e["argv"]) for e in old] == \
        [(e["name"], e["argv"]) for e in golden.matrix()]
    exact = manifest["environment"] == golden.environment()
    problems = [p for entry, fresh in zip(old, golden.run_matrix())
                for p in golden.mismatches(entry, fresh, exact)]
    assert not problems, "\n".join(problems[:20])


def test_mismatches_name_each_moved_value():
    entry = {"name": "e", "argv": ["chsh"], "exit": 0, "stderr": "",
             "outputs": {"stdout": {"chsh": [2.5], "config.fmt": ["json"]}}}
    moved = {**entry, "outputs": {"stdout": {"chsh": [2.5 + 2.5e-13], "config.fmt": ["json"]}}}
    assert golden.mismatches(entry, entry, exact=True) == []
    assert golden.mismatches(entry, moved, exact=True) == [
        f"e stdout chsh: [2.5] -> [{2.5 + 2.5e-13!r}]"]
    assert golden.mismatches(entry, moved, exact=False) == []
    far = {**entry, "outputs": {"stdout": {"chsh": [2.6], "config.fmt": ["json"]}}}
    assert len(golden.mismatches(entry, far, exact=False)) == 1


# measure_intensities(e, 0.3, 0.8, noise, (5, 2)) of a 300-realization source
# (DOP 0.4, seed 12) in its Schmidt basis, as float.hex: one reading, whose
# stream default_rng((5, 2)) gives 8 normals for K, then 3 detector offsets
PINNED_TRIPLES = {
    NoiseModel(): ("0x1.fd71cf252342ep-2", "0x1.562e893a99fddp-2", "0x1.8ac924fcd74d6p-3"),
    NoiseModel(extinction_ratio=1e-3):
        ("0x1.01187f65216a6p-1", "0x1.565baae984abbp-2", "0x1.905d7d177f3e1p-3"),
    NoiseModel(detector_noise=1e-3):
        ("0x1.ff787aeadcdb1p-2", "0x1.5542d5621dde4p-2", "0x1.9142a41737968p-3"),
    NoiseModel(phase_jitter=0.1):
        ("0x1.fc2e46983a304p-2", "0x1.562e893a99fddp-2", "0x1.8ac924fcd74d6p-3"),
    NoiseModel(1e-3, 1e-3, 0.1):
        ("0x1.007f16a4d719ap-1", "0x1.53e7bf1871d5bp-2", "0x1.90524c51729a5p-3"),
}


@pytest.mark.parametrize("noise", PINNED_TRIPLES, ids=["ideal", "extinction", "detector",
                                                       "jitter", "all"])
def test_measure_intensities_is_pinned(noise):
    e = synthesize_partially_polarized(0.4, 1.0, 300, 12)
    sd = schmidt(e)
    triple = measure_intensities(e, 0.3, 0.8, noise, (5, 2), basis=LabBasis(sd.u1, sd.u2))
    expected = tuple(map(float.fromhex, PINNED_TRIPLES[noise]))
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    if manifest["environment"] == golden.environment():
        assert triple == expected
    else:
        assert triple == pytest.approx(expected, rel=golden.RTOL, abs=golden.RTOL)


def _bartlett_gammas_swapped(rng, n, size):
    # ensemble._bartlett with its two standard_gamma calls in the other order
    t = np.zeros((size, 2, 2), dtype=np.complex128)
    t[:, 1, 1] = np.sqrt(rng.standard_gamma(n - 1, size))
    t[:, 0, 0] = np.sqrt(rng.standard_gamma(n, size))
    re, im = rng.standard_normal((2, size)) / math.sqrt(2.0)
    t[:, 1, 0] = re + 1j * im
    return t


def _swap_bartlett_gammas(monkeypatch):
    monkeypatch.setattr(ensemble, "_bartlett", _bartlett_gammas_swapped)
    monkeypatch.setattr(interferometer, "_bartlett", _bartlett_gammas_swapped)


def _reverse_run0_offsets(monkeypatch):
    # run 0's detector offsets, one row per reading, in reverse reading order
    stacks = interferometer._moment_stacks

    def mutated(*args):
        j, k, offsets = stacks(*args)
        return j, k, np.concatenate([offsets[:1, ::-1], offsets[1:]])

    monkeypatch.setattr(interferometer, "_moment_stacks", mutated)


# Each mutation with the prefixes of the entries it must move: every source or
# resample drawn by Bartlett (every entry: source and scan draw their source as
# chsh and validate do), and every run under detector noise.
MUTATIONS = {
    "bartlett-gammas-swapped": (_swap_bartlett_gammas, ("chsh-", "validate-", "scan-", "source-")),
    "run0-offsets-reversed": (_reverse_run0_offsets, ("chsh-detector-", "scan-detector-")),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_manifest_catches_a_mutation(mutation, monkeypatch, tmp_path):
    apply, prefixes = MUTATIONS[mutation]
    apply(monkeypatch)
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    exact = manifest["environment"] == golden.environment()
    entries = [e for e in manifest["entries"] if e["name"].startswith(prefixes)]
    assert entries
    for i, entry in enumerate(entries):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        fresh = {**entry, **golden.run(entry["argv"], workdir)}
        assert golden.mismatches(entry, fresh, exact), f"{mutation} left {entry['name']} unmoved"
