"""Golden outputs of a small CLI matrix: run it, compare it, rewrite it.

The matrix runs every command in-process on small inputs: ``source`` and
``validate``, and ``chsh`` and ``scan`` ideal (with resamples), under each
noise model alone, under phase jitter with resamples, and ``chsh`` of a
source so nearly fully polarized that it takes the closed-form fallback; each
at seeds 0 and 1, in csv and json.  Every output (stdout and each file
written) is stored in ``manifest.json`` as fields: a JSON output by key path
(list indices dropped), a CSV by column, a ``validate`` line by its check,
with the numbers of its detail.  Values keep their order, so equal fields
mean equal outputs, token for token.

``tests/test_golden.py`` reruns the matrix against the manifest.  This script
prints, per command and field, how far the outputs of the code as it stands
moved from the manifest (entries moved, largest |old - new| and largest
|old - new| / |old|), and with
``--write`` it rewrites the manifest.  A change that moves outputs on purpose
rewrites the manifest and records the table.

    PYTHONPATH=src python tests/golden/rewrite.py [--write]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("manifest.json")

# Off the exact path (another numpy or CPU dispatch), floats agree to this
# relative tolerance, and absolutely for rounding residues such as validate's
# max |measured - oracle| of about 1e-16.
RTOL = 1e-12

_NOISE = {
    "ideal": ["--resamples", "10"],
    "extinction": ["--noise-extinction", "1e-3", "--resamples", "0"],
    "detector": ["--noise-detector", "1e-4", "--resamples", "0"],
    "jitter": ["--noise-phase", "0.05", "--resamples", "0"],
    "jitter-resampled": ["--noise-phase", "0.05", "--resamples", "10"],
}
_SCAN_GRID = ["--dop", "0.3", "--b-list", "0,0.6", "--a-start", "0", "--a-stop", "1.5",
              "--a-step", "0.5"]


def matrix() -> list[dict]:
    """Entries {name, argv}; ``<out>`` in an argument stands for a fresh output path."""
    entries = []
    for seed in ("0", "1"):
        for fmt in ("csv", "json"):
            entries.append({"name": f"source-{fmt}-s{seed}",
                            "argv": ["source", "--n", "3000", "--seed", seed, "--format", fmt]})
        entries.append({"name": f"validate-s{seed}",
                        "argv": ["validate", "--n", "2000", "--tuples", "3", "--lhv-samples",
                                 "5000", "--seed", seed, "--out", "<out>.json"]})
        for noise, flags in _NOISE.items():
            for fmt in ("csv", "json"):
                entries.append({"name": f"chsh-{noise}-{fmt}-s{seed}",
                                "argv": ["chsh", "--n", "3000", "--seed", seed, "--format", fmt,
                                         *flags]})
                out = ["--out", "<out>"] if fmt == "csv" else []  # a csv scan writes a directory
                entries.append({"name": f"scan-{noise}-{fmt}-s{seed}",
                                "argv": ["scan", "--n", "3000", "--seed", seed, "--format", fmt,
                                         *_SCAN_GRID, *flags, *out]})
        for fmt in ("csv", "json"):  # kappa2 ~ 2.2e-7: below the floor, so method "closed-form"
            entries.append({"name": f"chsh-closed-form-{fmt}-s{seed}",
                            "argv": ["chsh", "--n", "3000", "--seed", seed, "--format", fmt,
                                     "--dop", "0.9999999999999"]})
    return entries


def environment() -> dict:
    """The numpy version and the CPU features its dispatch found: SIMD kernels
    (such as float64 tan) may round differently elsewhere."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "cpu": sorted(k for k, v in __cpu_features__.items() if v)}


def _json_fields(value, path, fields):
    if isinstance(value, dict):
        for key, item in value.items():
            _json_fields(item, f"{path}.{key}" if path else key, fields)
    elif isinstance(value, list):
        for item in value:
            _json_fields(item, path, fields)
    else:
        fields.setdefault(path, []).append(value)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def fields(command: str, name: str, text: str) -> dict:
    """An output's values by field, in order of appearance."""
    out: dict = {}
    if name.endswith(".json") or name == "stdout" and text.startswith("{"):
        _json_fields(json.loads(text), "", out)
    elif name.endswith(".csv") or name == "stdout" and command != "validate":
        header, *rows = text.splitlines()
        for row in rows:
            for column, value in zip(header.split(","), row.split(",")):
                out.setdefault(column, []).append(float(value))
    else:  # validate: "PASS check: detail"
        for line in text.splitlines():
            check, _, detail = line.partition(": ")
            out[check] = [_NUMBER.sub("#", detail), *map(float, _NUMBER.findall(detail))]
    return out


def run(argv: list[str], workdir: Path) -> dict:
    """Run one entry in-process: its exit code, stderr, and every output's fields."""
    from wavebell import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([a.replace("<out>", str(workdir / "out")) for a in argv])
    texts = {"stdout": stdout.getvalue()} if stdout.getvalue() else {}
    texts.update((f.name, f.read_text(encoding="utf-8"))
                 for f in sorted(workdir.rglob("*")) if f.is_file())
    return {"exit": code, "stderr": stderr.getvalue(),
            "outputs": {name: fields(argv[0], name, text) for name, text in texts.items()}}


def run_matrix() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for i, entry in enumerate(matrix()):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            results.append({**entry, **run(entry["argv"], workdir)})
        return results


def _close(old, new, exact: bool) -> bool:
    if isinstance(old, float) and isinstance(new, float) and not exact:
        return math.isclose(old, new, rel_tol=RTOL, abs_tol=RTOL)
    return type(old) is type(new) and old == new


def mismatches(old: dict, new: dict, exact: bool) -> list[str]:
    """Where a rerun entry departs from its manifest entry."""
    name = old["name"]
    problems = [f"{name}: {key} {old[key]!r} -> {new[key]!r}"
                for key in ("argv", "exit", "stderr") if old[key] != new[key]]
    if list(old["outputs"]) != list(new["outputs"]):
        return problems + [f"{name}: outputs {list(old['outputs'])} -> {list(new['outputs'])}"]
    for output, old_fields in old["outputs"].items():
        new_fields = new["outputs"][output]
        if list(old_fields) != list(new_fields):
            problems.append(f"{name} {output}: fields {list(old_fields)} -> {list(new_fields)}")
            continue
        for field, values in old_fields.items():
            fresh = new_fields[field]
            if len(values) != len(fresh) or not all(_close(a, b, exact)
                                                    for a, b in zip(values, fresh)):
                problems.append(f"{name} {output} {field}: {values} -> {fresh}")
    return problems


def _difference(a, b) -> float:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return abs(a - b)
    return 0.0 if a == b else math.inf


def _relative(a, b) -> float:
    # a move of a value that was 0, or of text, is infinitely large
    d = _difference(a, b)
    return d / abs(a) if d and math.isfinite(d) and a != 0 else (0.0 if d == 0 else math.inf)


def table(old_entries: list[dict], new_entries: list[dict]) -> str:
    """Per command and field: the entries whose values moved, out of those
    that carry the field, the largest |old - new| and the largest
    |old - new| / |old| (inf: text, shape, or a move away from 0)."""
    rows: dict = {}
    for old, new in zip(old_entries, new_entries):
        command = old["argv"][0]
        for output in old["outputs"].keys() | new["outputs"].keys():
            old_fields = old["outputs"].get(output, {})
            new_fields = new["outputs"].get(output, {})
            for field in {**old_fields, **new_fields}:
                a, b = old_fields.get(field, []), new_fields.get(field, [])
                same = len(a) == len(b)
                worst = max(map(_difference, a, b), default=0.0) if same else math.inf
                relative = max(map(_relative, a, b), default=0.0) if same else math.inf
                row = rows.setdefault((command, field), [0, 0, 0.0, 0.0, set()])
                row[1] += 1
                if worst > 0.0:
                    row[0] += 1
                    row[2] = max(row[2], worst)
                    row[3] = max(row[3], relative)
                    row[4].add(old["name"].rsplit("-", 1)[0])
    lines = ["| command | field | moved / entries | max abs diff | max rel diff | moved in |",
             "|---|---|---|---|---|---|"]
    for (command, field), (moved, total, worst, relative, where) in sorted(rows.items()):
        if moved:
            lines.append(f"| {command} | {field} | {moved} / {total} | {worst:.3g} | "
                         f"{relative:.3g} | {', '.join(sorted(where))} |")
    still = sum(1 for row in rows.values() if not row[0])
    lines.append(f"\n{still} of {len(rows)} (command, field) pairs did not move in any entry.")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite manifest.json")
    args = parser.parse_args(argv)
    new = run_matrix()
    if MANIFEST.exists():
        old = json.loads(MANIFEST.read_text(encoding="utf-8"))
        if [e["argv"] for e in old["entries"]] == [e["argv"] for e in new]:
            print(table(old["entries"], new))
        else:
            print("the matrix changed; no table")
    if args.write:
        manifest = {"environment": environment(), "entries": new}
        text = json.dumps(manifest, indent=1)
        # one line per list of scalars (a field's values, an entry's argv); a
        # newline in JSON text is layout only, since strings escape theirs
        text = re.sub(r"\[\n\s*([^\[\]{}]*?)\n\s*\]",
                      lambda m: "[" + re.sub(r"\n\s*", " ", m.group(1)) + "]", text)
        MANIFEST.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
