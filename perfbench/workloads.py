"""The benchmark's workloads: CLI arguments, output checks and array sizes.

Each workload is one ``wavebell`` CLI invocation.  Its seed reaches the
program only as ``--seed``.  A check reads what the invocation wrote and
returns None when the output is correct, else a one-line reason.  Checks
compare against physics with a statistical tolerance, never against a
stored hash, so a change that moves only the last bits still passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DOP_IDEAL = 0.125
N_CHSH = 1_000_000
N_SCAN = 100_000
N_VALIDATE = 100_000
SCAN_POINTS = 90
SCAN_RESAMPLES = 16
# The default scan has 12 curves and runs for about 15 s, too long for a
# timed run to hold several samples.  The benchmark keeps the first two
# default curves: b = 0 fires the stripped-beam fallback, b = pi/12 does not.
SCAN_BENCH_CURVES = 2
SCAN_DEFAULT_CURVES = 12
# At the DOP and kappa the program measured, the ideal instrument reproduces
# the closed forms up to rounding (about 1e-15 for chsh and 1e-11 for the
# scan's c at the seeds tried), so those comparisons use FLOAT_TOL.  Against
# the requested DOP the gap is statistical: 5/sqrt(n), as ``wavebell
# validate`` uses.
FLOAT_TOL = 1e-9
CHSH_TOL = 5.0 / math.sqrt(N_CHSH)
VALIDATE_CHECKS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]
    check: Callable[[int, Path, str], str | None]
    array_bytes: dict[str, int]


def chsh_bound(dop: float) -> float:
    return 2.0 * math.sqrt(2.0 - dop * dop)


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _chsh_ideal_argv(seed: int, out: Path) -> list[str]:
    return ["chsh", "--dop", str(DOP_IDEAL), "--n", str(N_CHSH), "--optimize",
            "--resamples", "16", "--seed", str(seed), "--out", str(out / "report.json")]


def _chsh_ideal_check(seed: int, out: Path, stdout: str) -> str | None:
    r = _report(out)
    chsh, err = r["chsh"], r["chsh_err"]
    if r["method"] != "interferometer" or r["n"] != N_CHSH:
        return f"unexpected report header: method={r['method']}, n={r['n']}"
    gap = abs(chsh - chsh_bound(r["dop"]))
    if not gap <= FLOAT_TOL:
        return f"chsh {chsh} is {gap:.3e} from 2 sqrt(2 - DOP^2) at the measured DOP"
    gap = abs(chsh - chsh_bound(DOP_IDEAL))
    if not gap <= CHSH_TOL:
        return f"chsh {chsh} is {gap:.3e} from 2 sqrt(2 - DOP^2) (tol {CHSH_TOL:.1e})"
    if not (math.isfinite(err) and err > 0.0):
        return f"chsh_err {err} is not positive"
    return None


def _chsh_noisy_argv(seed: int, out: Path) -> list[str]:
    return ["chsh", "--dop", str(DOP_IDEAL), "--n", str(N_CHSH), "--resamples", "0",
            "--noise-phase", "0.05", "--noise-detector", "1e-4", "--noise-extinction", "1e-3",
            "--seed", str(seed), "--out", str(out / "report.json")]


def _chsh_noisy_check(seed: int, out: Path, stdout: str) -> str | None:
    r = _report(out)
    chsh = r["chsh"]
    upper = chsh_bound(r["dop"]) + CHSH_TOL
    if not (math.isfinite(chsh) and 2.0 < chsh < upper):
        return f"noisy chsh {chsh} outside (2, {upper:.6f})"
    return None


def scan_b_values(curves: int) -> list[float]:
    """The first ``curves`` function-space angles of the default scan."""
    return [i * math.pi / 12.0 for i in range(curves)]


def scan_argv(seed: int, out: Path, curves: int = SCAN_BENCH_CURVES) -> list[str]:
    argv = ["scan", "--dop", "0", "--n", str(N_SCAN), "--resamples", str(SCAN_RESAMPLES),
            "--seed", str(seed), "--out", str(out / "scan")]
    if curves != SCAN_DEFAULT_CURVES:
        argv += ["--b-list", ",".join(repr(b) for b in scan_b_values(curves))]
    return argv


def _measured_kappas(seed: int) -> tuple[float, float]:
    # kappa as the scan itself derives it: tomography of the seeded source
    from wavebell import dop, kappa_from_dop, synthesize_partially_polarized, tomography

    source = synthesize_partially_polarized(0.0, 1.0, N_SCAN, seed)
    return kappa_from_dop(dop(tomography(source)))


def scan_check(seed: int, out: Path, stdout: str, curves: int = SCAN_BENCH_CURVES) -> str | None:
    import numpy as np
    from wavebell import correlation_closed_form

    k1, k2 = _measured_kappas(seed)
    for i, b in enumerate(scan_b_values(curves)):
        path = out / "scan" / f"curve_{i:02d}.csv"
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (SCAN_POINTS, 8):
            return f"{path.name}: shape {table.shape}, expected ({SCAN_POINTS}, 8)"
        a, b_col, p, c, c_err = table[:, 0], table[:, 1], table[:, 2:6], table[:, 6], table[:, 7]
        if np.abs(b_col - b).max() > 1e-9:
            return f"{path.name}: b column is not {b}"
        gap = float(np.abs(c - correlation_closed_form(k1, k2, a, b)).max())
        if not gap <= FLOAT_TOL:
            return f"{path.name}: max |c - closed form| = {gap:.3e} at the measured kappa"
        if np.abs(p.sum(axis=1) - 1.0).max() > FLOAT_TOL:
            return f"{path.name}: probabilities do not sum to 1"
        if not (np.isfinite(c_err).all() and (c_err >= 0.0).all()):
            return f"{path.name}: c_err not finite and >= 0"
    return None


def _validate_argv(seed: int, out: Path) -> list[str]:
    return ["validate", "--seed", str(seed), "--out", str(out / "validate.json")]


def _validate_check(seed: int, out: Path, stdout: str) -> str | None:
    r = json.loads((out / "validate.json").read_text(encoding="utf-8"))
    checks = r["checks"]
    if len(checks) != VALIDATE_CHECKS or r["failed"] or not all(c["pass"] for c in checks):
        return f"validate checks failed: {r['failed'] or len(checks)}"
    if stdout.count("PASS ") != VALIDATE_CHECKS:
        return "validate did not print a PASS line per check"
    return None


_FIELD = 32  # bytes per realization: two complex128 components

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chsh-ideal",
            _chsh_ideal_argv,
            _chsh_ideal_check,
            {"field": N_CHSH * _FIELD, "bootstrap_copy": N_CHSH * _FIELD,
             "bootstrap_index": N_CHSH * 8},
        ),
        Workload(
            "scan-grid",
            scan_argv,
            scan_check,
            {"field": N_SCAN * _FIELD, "bootstrap_copy": N_SCAN * _FIELD,
             "bootstrap_index": N_SCAN * 8},
        ),
        Workload(
            "chsh-noisy",
            _chsh_noisy_argv,
            _chsh_noisy_check,
            {"field": N_CHSH * _FIELD},
        ),
        Workload(
            "validate",
            _validate_argv,
            _validate_check,
            {"field": N_VALIDATE * _FIELD, "analytic_field": 512 * _FIELD,
             "lhv_samples": 100_000 * 8},
        ),
    )
}
