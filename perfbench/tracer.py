"""Outside-in tracer: spans around every public wavebell function.

The tracer wraps each public function of the layer modules in every
``wavebell`` namespace that binds it (``interferometer`` and ``cli`` import
names with ``from ... import``, so patching only the defining module would
miss their calls), plus the function behind the ``FieldEnsemble.second_moments``
cached property.  Each call records a span (name, start, end, parent) in
flat arrays; self times and the per-layer metrics are derived from the
spans after the traced call has returned.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter

LAYERS = ("ensemble", "optics", "bell", "interferometer", "cli")

MOMENTS = "ensemble.FieldEnsemble.second_moments"


def _moments_probe(counters, args, kwargs):
    # one pass reads the (n, 2) complex128 realizations: n * 32 bytes
    counters["moments_bytes"] += args[0].n * 32


def _measure_probe(counters, args, kwargs):
    noise = args[3] if len(args) > 3 else kwargs.get("noise")
    if noise is not None and noise.phase_jitter > 0.0:
        counters["field_calls"] += 1
        counters["field_bytes"] += args[0].realizations.nbytes


_PROBES = {
    MOMENTS: _moments_probe,
    "interferometer.measure_intensities": _measure_probe,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    """Records one span per wrapped call while installed (a context manager).

    Spans are stored in preorder: a span's parent always has a smaller
    index, and -1 marks a span with no traced parent.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = _PROBES.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        @wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(counters, args, kwargs)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        import wavebell.ensemble

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "wavebell" or key.startswith("wavebell."))]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"wavebell.{layer}"]
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)][1])

        prop = vars(wavebell.ensemble.FieldEnsemble)["second_moments"]
        self._restore.append((prop, "func", prop.func))
        prop.func = self._wrap(MOMENTS, prop.func)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON: names, and per span its name index,
        parent index, start and end (seconds, perf_counter clock)."""
        payload = {
            "names": self.names,
            "spans": {
                "name": self.name_of.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
            "errors": {str(k): v for k, v in self.errors.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the traced call.

        ``*.s`` figures are inclusive times of the outermost spans of the
        named functions; ``*.self_s`` figures subtract the time of traced
        child spans.  Byte figures are computed from array shapes, not
        measured.
        """
        names, name_of, parent = self.names, self.name_of, self.parent
        n = len(name_of)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]

        def selected(pred):
            chosen = [pred(nm) for nm in names]
            return [chosen[k] for k in name_of]

        def calls(pred):
            return sum(selected(pred))

        def outer_s(pred):
            # time of spans in the set that have no ancestor in the set
            inside = selected(pred)
            covered = [False] * n
            total = 0.0
            for i in range(n):
                p = parent[i]
                above = p >= 0 and (inside[p] or covered[p])
                covered[i] = above
                if inside[i] and not above:
                    total += dur[i]
            return total

        def self_s(pred):
            inside = selected(pred)
            return sum(dur[i] - child[i] for i in range(n) if inside[i])

        def named(*full):
            return lambda nm: nm in full

        def layer(prefix):
            return lambda nm: nm.startswith(prefix + ".")

        extract = named("interferometer.extract_probability")
        extract_calls = calls(extract)
        stripped = sum(
            1 for i, err in self.errors.items()
            if err == "StrippedBeamError" and names[name_of[i]] == "interferometer.extract_probability"
        )
        synth = named("ensemble.synthesize_partially_polarized", "ensemble.synthesize_schmidt_form")
        lhv = named("bell.lhv_chsh", "bell.lhv_correlation")
        measure = named("interferometer.measure_intensities")
        return {
            "ensemble.moments.calls": calls(named(MOMENTS)),
            "ensemble.moments.s": outer_s(named(MOMENTS)),
            "ensemble.moments.bytes": self.counters["moments_bytes"],
            "ensemble.synthesize.calls": calls(synth),
            "ensemble.synthesize.s": outer_s(synth),
            "ensemble.tomography.s": outer_s(named("ensemble.tomography")),
            "ensemble.schmidt.calls": calls(named("ensemble.schmidt")),
            "ensemble.schmidt.s": outer_s(named("ensemble.schmidt")),
            "interferometer.measure.calls": calls(measure),
            "interferometer.measure.s": outer_s(measure),
            "interferometer.measure.field_calls": self.counters["field_calls"],
            "interferometer.measure.field_bytes": self.counters["field_bytes"],
            "interferometer.extract.calls": extract_calls,
            "interferometer.extract.stripped": stripped,
            "interferometer.extract.useful_ratio":
                (extract_calls - stripped) / extract_calls if extract_calls else 0.0,
            "interferometer.self_s": self_s(
                named("interferometer.run_bell_protocol", "interferometer.scan_correlation")),
            "optics.calls": calls(layer("optics")),
            "optics.s": outer_s(layer("optics")),
            "bell.max_chsh.s": outer_s(named("bell.max_chsh")),
            "bell.lhv.calls": calls(named("bell.lhv_correlation")),
            "bell.lhv.s": outer_s(lhv),
            "bell.projected.calls": calls(named("bell.joint_probability_projected")),
            "cli.self_s": self_s(layer("cli")),
        }
