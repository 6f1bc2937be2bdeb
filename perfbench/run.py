"""wavebell benchmark: one CLI workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chsh-ideal --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

Each invocation drives ``wavebell.cli.main(argv)`` in this process, one
workload at a time, for ``--seconds`` seconds (a closed loop: the next
call starts when the previous one returns; the first call of a loop is a
warm-up and is not timed).  Every
call's output is checked.  The workload seed reaches the program only as
``--seed``.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
call, the median time from a fresh interpreter to ``import wavebell.cli``
returning, and the peak RSS of this process.  ``--trace 1`` times untraced
calls for half the run and traced calls for the other half, and reports
per-layer counts and times from the spans (see ``tracer.py``) plus the
tracing overhead.  ``--workload all`` runs every workload in its own
process and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the run environment and the sample details.  Files go to
``.perfbench/`` in the checkout; the spans of the last traced call stay
there as ``spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_CALLS = 4
MIN_TRACE_CALLS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def require_sources() -> None:
    if not (SRC / "wavebell" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no wavebell sources under {SRC}; run from a checkout")


def import_cli():
    """Import ``wavebell.cli`` from this checkout's ``src``, never from
    anywhere else on the path."""
    require_sources()
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import wavebell
    import wavebell.cli

    if Path(wavebell.__file__).resolve().parent != (SRC / "wavebell").resolve():
        raise SystemExit(f"perfbench: imported wavebell from {wavebell.__file__}, not {SRC}")
    return wavebell.cli


def setup_times(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters that import ``wavebell.cli``, run
    after this process imported it and so wrote the bytecode cache, as an
    installed package has."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import wavebell.cli"]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def run_call(cli, workload, seed: int, tracer: Tracer | None = None) -> dict:
    """One checked ``cli.main`` call; ``reason`` is None when it succeeded."""
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = workload.argv(seed, out)
    stdout = io.StringIO()
    reason = None
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(stdout):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            rc, reason = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
    text = stdout.getvalue()
    if reason is None and rc != 0:
        reason = f"exit code {rc}"
    if reason is None:
        try:
            reason = workload.check(seed, out, text)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    out_bytes = len(text.encode()) + sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"wall": wall, "reason": reason, "out_bytes": out_bytes, "tracer": tracer}


def run_loop(cli, workload, seed: int, seconds: float, min_calls: int, traced: bool) -> list[dict]:
    """Calls until the next one would end after ``seconds``, at least
    ``min_calls``.  The first call warms caches and lazy set-up; callers
    time the rest."""
    calls = []
    begin = perf_counter()
    while True:
        calls.append(run_call(cli, workload, seed, Tracer() if traced else None))
        elapsed = perf_counter() - begin
        if len(calls) >= min_calls and elapsed + calls[-1]["wall"] > seconds:
            return calls


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("bytes"):
        return "B"
    return "ratio" if last.endswith("ratio") else "count"


def trace_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics: counts from the traced calls (which must repeat
    exactly), times as medians over them."""
    per_call = [c["tracer"].layer_metrics() for c in traced]
    for m, c in zip(per_call, traced):
        m["cli.out_bytes"] = c["out_bytes"]
    metrics, repeat = {}, True
    for name in per_call[0]:
        values = [m[name] for m in per_call]
        if unit_of(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            repeat &= all(v == values[0] for v in values)
            metrics[name] = values[0]
    metrics["trace.overhead_s"] = (statistics.median(c["wall"] for c in traced)
                                   - statistics.median(c["wall"] for c in untraced))
    return metrics, repeat


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _l3_bytes() -> int | None:
    units = {"K": 1024, "M": 1024**2}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            if Path(index, "level").read_text().strip() == "3":
                size = Path(index, "size").read_text().strip()
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            return None
    return None


def environment(workload) -> dict:
    import numpy

    largest = max(workload.array_bytes.values())
    l3 = _l3_bytes()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "l3_bytes": l3,
        "array_bytes_computed": workload.array_bytes,
        "note": (f"array bytes are computed from shapes; the largest ({largest} B) is "
                 f"{'below' if l3 and largest < l3 else 'not known to be below'} L3, "
                 "and no figure here is a bandwidth figure"),
    }


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    cli = import_cli()
    print(json.dumps({"env": environment(workload)}))
    if trace:
        untraced = run_loop(cli, workload, seed, seconds / 2, MIN_TRACE_CALLS, traced=False)
        traced = run_loop(cli, workload, seed, seconds / 2, MIN_TRACE_CALLS, traced=True)
        calls = untraced + traced
        raw, repeat = trace_metrics(untraced[1:], traced[1:])
        WORK.mkdir(exist_ok=True)
        traced[-1]["tracer"].dump(WORK / f"spans-{name}-seed{seed}.json")
        detail = {"untraced_wall_s": summary([c["wall"] for c in untraced[1:]]),
                  "traced_wall_s": summary([c["wall"] for c in traced[1:]]),
                  "counts_repeat": repeat}
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in raw.items()}
    else:
        setup = setup_times()
        calls = run_loop(cli, workload, seed, seconds, MIN_CALLS, traced=False)
        walls = [c["wall"] for c in calls[1:]]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {"wall_s": summary(walls), "setup_s": summary(setup),
                  "wall_samples": walls, "setup_samples": setup}
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    shutil.rmtree(WORK / "out", ignore_errors=True)
    failures = [c["reason"] for c in calls if c["reason"] is not None]
    detail.update(workload=name, seed=seed, failed_ratio=len(failures) / len(calls),
                  failures=failures[:5])
    print(json.dumps({"detail": detail}))
    return {"correct": not failures, "attempted": len(calls), "failed": len(failures),
            "metrics": metrics}


def bench_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        result["metrics"]["failed_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
            rows.append(f"{name:<12} {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print("\n".join(rows))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    require_sources()
    if args.workload == "all":
        result = bench_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
