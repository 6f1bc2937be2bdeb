"""Mutation audit: which one-line faults in the package does tier-1 miss?

Each mutant changes one node of one module.  The checkout's ``src``, ``tests``,
``pyproject.toml`` and ``README.md`` (whose examples a test runs) are copied
once to a temporary directory, where tier-1 must pass unmutated first; for
each mutant the tool writes the mutated module into the copy, runs tier-1
there without ``-x`` (so every failing test is listed), and restores the
module.  Mutants run one at a time, never in parallel.  Operators:

- ``tol``: a float literal written in exponent form (a tolerance or a range
  bound, such as 1e-12 or 1e100), scaled by 1e3 and by 1e-3;
- ``cmp``: one comparison flipped, ``<`` <-> ``<=`` and ``>`` <-> ``>=``;
- ``ddof``: ``ddof=1`` <-> ``ddof=0``;
- ``sign``: one ``+`` <-> ``-`` inside a return statement;
- ``clamp``: one clamp dropped, ``np.clip``, ``np.minimum``, ``np.maximum``,
  ``min`` or ``max`` replaced by its first argument.

Each row gives the file, the span of the mutated node (``line:column-line:column``,
so nested nodes that start at one column are told apart), the mutation, and the
outcome: ``killed``, ``pin-only`` (every failing test only pins outputs: the
golden manifest, a ``*_is_pinned`` test, or validate's sequential copy), ``survived``, or
``equivalent`` (survived, and listed in ``tools/mutants_equivalent.txt`` with
its reason), then the failing tests.  A listed mutant that is killed is
marked ``killed (listed as equivalent)``.  Run from the root of a checkout:

    python3 tools/mutants.py src/wavebell/ensemble.py src/wavebell/optics.py

Each mutant takes one tier-1 run, about 35 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENTS = ROOT / "tools" / "mutants_equivalent.txt"
PINS = re.compile(r"^tests/test_golden\.py::|_is_pinned\b|::test_matches_sequential_reference\b")
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
CLAMPS = {"np.clip", "np.minimum", "np.maximum", "min", "max"}
TIMEOUT = 600


def _in_fstring(tree: ast.AST) -> set[int]:
    return {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}


def mutations(source: str):
    """(node, replacement node, operator, description) for every mutant of ``source``."""
    tree = ast.parse(source)
    skip = _in_fstring(tree)
    returns = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Return) for n in ast.walk(r)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and "e" in ast.get_source_segment(source, node).lower()):
            for factor in (1e3, 1e-3):
                yield (node, ast.Constant(node.value * factor), "tol",
                       f"{ast.get_source_segment(source, node)} -> {node.value * factor:.3g}")
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    new = copy.deepcopy(node)
                    new.ops[i] = FLIPS[type(op)]()
                    yield node, new, "cmp", f"{_op(op)} -> {_op(new.ops[i])} (op {i + 1})"
        elif isinstance(node, ast.keyword) and node.arg == "ddof":
            if isinstance(node.value, ast.Constant) and node.value.value in (0, 1):
                yield (node.value, ast.Constant(1 - node.value.value), "ddof",
                       f"ddof={node.value.value} -> ddof={1 - node.value.value}")
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
              and id(node) in returns):
            new = copy.deepcopy(node)
            new.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
            yield node, new, "sign", f"{_op(node.op)} -> {_op(new.op)}"
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) in CLAMPS
              and len(node.args) >= 2):
            yield node, node.args[0], "clamp", f"drop {ast.unparse(node.func)}"


def _op(op: ast.AST) -> str:
    return {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Add: "+",
            ast.Sub: "-"}[type(op)]


def mutate(source: str, node: ast.AST, new: ast.AST) -> str:
    """``source`` with the text of ``node`` replaced by ``new``, in parentheses; every
    other byte is kept."""
    lines = source.splitlines(keepends=True)
    start = sum(len(line) for line in lines[:node.lineno - 1]) + _bytes_to_chars(
        lines[node.lineno - 1], node.col_offset)
    end = sum(len(line) for line in lines[:node.end_lineno - 1]) + _bytes_to_chars(
        lines[node.end_lineno - 1], node.end_col_offset)
    return source[:start] + "(" + ast.unparse(new) + ")" + source[end:]


def _bytes_to_chars(line: str, offset: int) -> int:
    # ast column offsets count UTF-8 bytes
    return len(line.encode("utf-8")[:offset].decode("utf-8"))


def tier1(copy_root: Path) -> tuple[int, list[str]]:
    """Return code and failing test ids of one tier-1 run in ``copy_root``."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy_root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return -1, ["(timeout)"]
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed


def outcome(code: int, failed: list[str], listed: bool) -> str:
    if code == 0:
        return "equivalent" if listed else "survived"
    kind = "pin-only" if failed and all(PINS.search(t) for t in failed) else "killed"
    return f"{kind} (listed as equivalent)" if listed else kind


def equivalents() -> dict[str, str]:
    """``path:line:column-line:column: mutation`` -> reason, from the tracked list."""
    listed = {}
    if EQUIVALENTS.exists():
        for line in EQUIVALENTS.read_text("utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                key, _, reason = line.partition(" # ")
                listed[key.strip()] = reason.strip()
    return listed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module paths, relative to the checkout")
    args = parser.parse_args(argv)
    rows = []
    for module in args.modules:
        source = (ROOT / module).read_text("utf-8")
        for node, new, op, text in mutations(source):
            span = f"{node.lineno}:{node.col_offset}-{node.end_lineno}:{node.end_col_offset}"
            rows.append((module, node.lineno, node.col_offset, f"{module}:{span}: {text}", op,
                         mutate(source, node, new)))
    rows.sort(key=lambda r: r[:3])
    listed = equivalents()
    totals: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "checkout"
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, work)
        code, failed = tier1(work)
        if code != 0:
            print("tier-1 fails without a mutant:", " ".join(failed) or f"exit {code}")
            return 1
        for number, (module, _, _, key, op, mutated) in enumerate(rows, 1):
            target = work / module
            original = target.read_text("utf-8")
            target.write_text(mutated, "utf-8")
            try:
                code, failed = tier1(work)
            finally:
                target.write_text(original, "utf-8")
            result = outcome(code, failed, key in listed)
            totals[result.split()[0]] = totals.get(result.split()[0], 0) + 1
            print(f"{number:4d}  {key}  [{op}]  {result}  {len(failed)} failed  {' '.join(failed)}",
                  flush=True)
    print("totals:", sum(totals.values()), totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
