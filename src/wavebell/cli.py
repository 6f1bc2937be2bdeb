"""Command-line interface: reproducible simulation pipelines.

Subcommands
-----------
source    synthesize a beam and report its polarization characterization
scan      measure correlation curves C(a, b) over polarizer-angle grids
chsh      run the full Bell protocol and report the CHSH value
validate  cross-check the three computation paths and the hidden-variable
          bound, exiting nonzero when any tolerance is breached

Every command takes --seed and --n; source, scan and chsh also take --dop
and --format; source takes --intensity; scan and chsh take the --noise-*
flags.

Angles are radians; pass degrees with an explicit suffix, e.g. ``22.5deg``.
A JSON config file may supply any option (key = long option name with
dashes as underscores, ``fmt`` for --format); its values pass through the
same converters as the flags, explicit flags override file values, and the
effective configuration is echoed into every output.

Exit codes: 0 success, 1 usage or configuration error (one
``wavebell: error:`` line on stderr), 2 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bell, interferometer as itf
from .bell import (
    AngleSettings,
    SHIPPED_LHV_MODELS,
    joint_probability_kappa,
    lhv_chsh,
)
from .ensemble import (
    kappa_from_dop,
    measured_schmidt,
    polarization_report,
    schmidt,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
)
from .errors import WavebellError
from .interferometer import (
    NoiseModel,
    ProtocolConfig,
    measure_correlation,
    measure_joint_probability,
    run_bell_protocol,
    scan_correlation,
)

_DEFAULT_N = 100_000
_DEFAULT_B_LIST = ",".join(f"{i * math.pi / 12.0!r}" for i in range(12))
# Largest scan grid: 111 times the default 90 points.
_MAX_A_POINTS = 10_000


def parse_angle(text: str) -> float:
    """Parse an angle: bare number = radians, '<number>deg' = degrees."""
    t = str(text).strip().lower()
    try:
        if t.endswith("deg"):
            value = math.radians(float(t[:-3]))
        elif t.endswith("rad"):
            value = float(t[:-3])
        else:
            value = float(t)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid angle: {text!r}")
    return value


def _angle_list(text: str) -> list[float]:
    angles = [parse_angle(tok) for tok in str(text).split(",") if tok.strip()]
    if not angles:
        raise argparse.ArgumentTypeError(f"no angles in {text!r}")
    return angles


def _checked_text(parse):
    # check a value when the arguments are read, but keep the text so the
    # config echo shows it as given
    def check(text: str) -> str:
        parse(text)
        return text

    return check


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _positive_angle(text: str) -> float:
    value = parse_angle(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -digit and -.digit tokens (-45deg, -.5rad, -0.5,foo) are values: converters check them
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage errors exit 1 (argparse default is 2, reserved here for
    # validation failures) with one line on stderr
    def error(self, message):
        self.exit(1, f"wavebell: error: {message}\n")


# Every option once: config key -> (flag, argparse keywords).
_OPTIONS = {
    "seed": ("--seed", {"type": _int_at_least(0)}),
    "n": ("--n", {"type": _int_at_least(2), "help": f"realization count (default {_DEFAULT_N})"}),
    "dop": ("--dop", {"type": float, "help": "requested degree of polarization"}),
    "intensity": ("--intensity", {"type": float}),
    "noise_extinction": ("--noise-extinction",
                         {"type": float, "help": "polarizer leakage power fraction"}),
    "noise_detector": ("--noise-detector",
                       {"type": float, "help": "detector noise std / source intensity"}),
    "noise_phase": ("--noise-phase",
                    {"type": float, "help": "auxiliary-arm phase jitter std (rad)"}),
    "out": ("--out", {"type": Path, "help": "output path (stdout if omitted)"}),
    "fmt": ("--format", {"choices": ("csv", "json")}),
    "b_list": ("--b-list", {"type": _checked_text(_angle_list),
                            "help": "comma-separated function-space angles"}),
    "a_start": ("--a-start", {"type": parse_angle}),
    "a_stop": ("--a-stop", {"type": parse_angle, "help": "exclusive grid end"}),
    "a_step": ("--a-step", {"type": _positive_angle}),
    "settings": ("--settings", {"type": _checked_text(parse_angle), "nargs": 4,
                                "metavar": ("A", "A_PRIME", "B", "B_PRIME"),
                                "help": "explicit angle settings"}),
    "optimize": ("--optimize", {"action": "store_true", "default": None,
                                "help": "use the closed-form CHSH-maximizing angles (default)"}),
    "resamples": ("--resamples", {"type": int, "help": "bootstrap resamples (0 = none)"}),
    "tuples": ("--tuples", {"type": _int_at_least(1), "help": "random tuples per agreement check"}),
    "lhv_samples": ("--lhv-samples", {"type": _int_at_least(1),
                                      "help": "Monte-Carlo samples per LHV correlation"}),
}
# --optimize and --settings exclude each other
_EXCLUSIVE = ("optimize", "settings")

_BEAM = {"seed": 0, "n": _DEFAULT_N, "dop": 0.125}
_NOISE = {"noise_extinction": 0.0, "noise_detector": 0.0, "noise_phase": 0.0}

# Each command's options with their defaults, in config-echo order.
_DEFAULTS: dict[str, dict] = {
    "source": {**_BEAM, "intensity": 1.0, "out": None, "fmt": "json"},
    "scan": {
        **_BEAM, "dop": 0.0, **_NOISE, "out": None, "fmt": "csv",
        "b_list": _DEFAULT_B_LIST, "a_start": 0.0, "a_stop": math.pi,
        "a_step": math.pi / 90.0, "resamples": 16,
    },
    "chsh": {
        **_BEAM, **_NOISE, "out": None, "fmt": "json",
        "settings": None, "optimize": False, "resamples": 16,
    },
    "validate": {
        "seed": 0, "n": _DEFAULT_N, "out": None,
        "tuples": 20, "lhv_samples": 100_000,
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="wavebell", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, defaults in _DEFAULTS.items():
        p = subs.add_parser(command, help=_COMMANDS[command].__doc__)
        p.add_argument("--config", type=Path, help="JSON config file")
        # an empty exclusive group breaks argparse's usage formatter
        group = p.add_mutually_exclusive_group() if set(_EXCLUSIVE) & set(defaults) else p
        for key in defaults:
            flag, spec = _OPTIONS[key]
            (group if key in _EXCLUSIVE else p).add_argument(flag, dest=key, **spec)
    return parser


def _convert(spec: dict, value):
    if isinstance(value, (dict, list)):
        raise ValueError("expected a single value")
    converted = spec.get("type", str)(str(value))
    if "choices" in spec and converted not in spec["choices"]:
        raise ValueError(f"expected one of {', '.join(spec['choices'])}")
    return converted


def _from_config(key: str, value, default):
    """Pass a config-file value through the converter of its flag."""
    if value is None and default is None:
        return None
    flag, spec = _OPTIONS[key]
    try:
        if spec.get("action") == "store_true":
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            return value
        if "nargs" in spec:
            if not (isinstance(value, list) and len(value) == spec["nargs"]):
                raise ValueError(f"expected a list of {spec['nargs']} values")
            return [_convert(spec, v) for v in value]
        return _convert(spec, value)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise WavebellError(f"config key {key!r} ({flag}): {exc}") from None


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and explicit flags (highest)."""
    command = args.command
    cfg = dict(_DEFAULTS[command])
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise WavebellError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise WavebellError("config file must contain a JSON object")
        unknown = sorted(set(loaded) - set(cfg))
        if unknown:
            raise WavebellError(f"unknown config keys for '{command}': {', '.join(unknown)}")
        for key, value in loaded.items():
            cfg[key] = _from_config(key, value, cfg[key])
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "optimize", None):  # the flag overrides the file's settings
        cfg["settings"] = None
    if cfg.get("optimize") and cfg.get("settings") is not None:
        raise WavebellError("--optimize and --settings exclude each other, in a config file too")
    return cfg


def _noise(cfg: dict) -> NoiseModel:
    return NoiseModel(
        extinction_ratio=float(cfg["noise_extinction"]),
        detector_noise=float(cfg["noise_detector"]),
        phase_jitter=float(cfg["noise_phase"]),
    )


def _echo(cfg: dict) -> dict:
    # the output destination is not part of the computational configuration,
    # and keeping it out makes equal configs yield byte-identical outputs
    return {key: value for key, value in cfg.items() if key != "out"}


def _write_text(cfg: dict, text: str) -> None:
    # text is json.dumps or "\n".join output, so it never ends in a newline
    if cfg["out"] is None:
        sys.stdout.write(text + "\n")
    else:
        Path(cfg["out"]).write_text(text + "\n", encoding="utf-8")


def _flatten_complex_pairs(prefix: str, pairs) -> tuple[list[str], list[float]]:
    names, values = [], []
    for comp, pair in zip(("x", "y"), pairs):
        names += [f"{prefix}_{comp}_re", f"{prefix}_{comp}_im"]
        values += [pair[0], pair[1]]
    return names, values


def cmd_source(cfg: dict) -> int:
    """synthesize and characterize a source beam"""
    ens = synthesize_partially_polarized(
        cfg["dop"], cfg["intensity"], cfg["n"], cfg["seed"]
    )
    report = polarization_report(ens)
    if cfg["fmt"] == "json":
        report["config"] = _echo(cfg)
        _write_text(cfg, json.dumps(report, indent=2))
    else:
        names = ["s0", "s1", "s2", "s3", "dop", "kappa1", "kappa2"]
        values = [report[k] for k in names]
        for key in ("u1", "u2"):
            extra_names, extra_values = _flatten_complex_pairs(key, report[key])
            names += extra_names
            values += extra_values
        lines = [",".join(names), ",".join(f"{v:.12g}" for v in values)]
        _write_text(cfg, "\n".join(lines))
    return 0


def _a_grid(cfg: dict) -> np.ndarray:
    # np.arange gives ceil((stop - start) / step) points; bound that count
    # before allocating, so a tiny step fails at once instead of running for hours
    points = (cfg["a_stop"] - cfg["a_start"]) / cfg["a_step"]
    if points > _MAX_A_POINTS:
        raise WavebellError(
            f"the a grid would have {points:.6g} points, more than the limit of {_MAX_A_POINTS}; "
            "raise --a-step or narrow --a-start/--a-stop"
        )
    grid = np.arange(cfg["a_start"], cfg["a_stop"] - 1e-12, cfg["a_step"])
    if grid.size == 0:
        raise WavebellError("the a grid from --a-start to --a-stop (exclusive) has no points")
    return grid


def _scan_curves(cfg: dict, a_grid: np.ndarray):
    ens = synthesize_partially_polarized(cfg["dop"], 1.0, cfg["n"], cfg["seed"])
    _, sd = measured_schmidt(ens)
    noise = _noise(cfg)
    for i, b in enumerate(_angle_list(cfg["b_list"])):
        yield i, scan_correlation(
            ens, sd, b, a_grid, noise=noise, seed=(cfg["seed"], i), resamples=cfg["resamples"]
        )


def cmd_scan(cfg: dict) -> int:
    """measure correlation curves over an angle grid"""
    a_grid = _a_grid(cfg)
    if cfg["fmt"] == "csv":
        if cfg["out"] is None:
            raise WavebellError("scan with csv output needs --out DIRECTORY")
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        for i, curve in _scan_curves(cfg, a_grid):
            curve.to_csv(outdir / f"curve_{i:02d}.csv")
        (outdir / "scan_config.json").write_text(
            json.dumps({"config": _echo(cfg)}, indent=2) + "\n", encoding="utf-8"
        )
    else:
        columns = ("p11", "p12", "p21", "p22", "c", "c_err")
        curves = [{"b_rad": curve.b, "a_rad": curve.a.tolist(),
                   **{key: getattr(curve, key).tolist() for key in columns}}
                  for _, curve in _scan_curves(cfg, a_grid)]
        _write_text(cfg, json.dumps({"curves": curves, "config": _echo(cfg)}, indent=2))
    return 0


def cmd_chsh(cfg: dict) -> int:
    """run the Bell protocol and report the CHSH value"""
    settings = None
    if cfg["settings"] is not None:
        values = [parse_angle(v) for v in cfg["settings"]]
        settings = AngleSettings(*values)
    protocol = ProtocolConfig(
        dop=cfg["dop"],
        n=cfg["n"],
        seed=cfg["seed"],
        settings=settings,
        noise=_noise(cfg),
        resamples=cfg["resamples"],
    )
    report = run_bell_protocol(protocol)
    if cfg["fmt"] == "json":
        payload = asdict(report)
        payload["config"] = _echo(cfg)
        _write_text(cfg, json.dumps(payload, indent=2))
    else:
        lines = [itf.CURVE_CSV_HEADER + ",chsh,chsh_err"]
        for p in report.probabilities:
            row = [p.a, p.b, p.p11, p.p12, p.p21, p.p22, p.c, p.c_err,
                   report.chsh, report.chsh_err]
            lines.append(",".join(f"{v:.12g}" for v in row))
        _write_text(cfg, "\n".join(lines))
    return 0


def _field_checks(cfg: dict, analytic: list, sampled: list):
    # np.maximum, unlike max, keeps a NaN, so a NaN reading fails its check
    n = int(cfg["n"])

    # 1: analytic-amplitude fields: all three paths agree at float accuracy.
    worst_measured = worst_projected = 0.0
    for t, (d, a, b, k, l) in enumerate(analytic):
        k1, k2 = kappa_from_dop(d)
        field = synthesize_schmidt_form(k1, k2, n=512, seed=1000 + t)
        sd = schmidt(field)
        oracle = joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
        measured = measure_joint_probability(field, sd, a, b, k, l)
        projected = bell.joint_probability_projected(field, sd, a, b, k, l)
        worst_measured = np.maximum(worst_measured, abs(measured - oracle))
        worst_projected = np.maximum(worst_projected, abs(projected - oracle))
    yield ("triple-path-analytic-interferometric", worst_measured <= 1e-12,
           f"max |measured - oracle| = {worst_measured:.3e} (tol 1e-12)")
    yield ("triple-path-analytic-projected", worst_projected <= 1e-12,
           f"max |projected - oracle| = {worst_projected:.3e} (tol 1e-12)")

    # 2: sampled ensembles vs the requested-dop oracle, statistical tolerance.
    tol = 5.0 / math.sqrt(n)
    worst_sampled = 0.0
    for t, (d, a, b, k, l) in enumerate(sampled):
        k1, k2 = kappa_from_dop(d)
        field = synthesize_partially_polarized(d, 1.0, n, 2000 + t)
        sd = schmidt(field)
        oracle = joint_probability_kappa(k1, k2, a, b, k, l)
        measured = measure_joint_probability(field, sd, a, b, k, l)
        worst_sampled = np.maximum(worst_sampled, abs(measured - oracle))
    yield ("triple-path-sampled", worst_sampled <= tol,
           f"max |measured - oracle| = {worst_sampled:.3e} (tol {tol:.3e})")

    # 3: the four measured probabilities at one setting sum to 1.
    field = synthesize_partially_polarized(0.125, 1.0, n, cfg["seed"] + 17)
    sd = schmidt(field)
    total = sum(measure_correlation(field, sd, 0.37, 0.81)[1])
    yield ("probability-completeness-measured", abs(total - 1.0) <= tol,
           f"|sum - 1| = {abs(total - 1.0):.3e} (tol {tol:.3e})")

    # 4: oracle marginals carry no signal across the other space's angle.
    grid = np.linspace(0.0, math.pi, 20, endpoint=False)
    k1, k2 = kappa_from_dop(0.125)
    worst_ns = 0.0
    for a in grid:
        m = [
            joint_probability_kappa(k1, k2, a, b, 1, 1)
            + joint_probability_kappa(k1, k2, a, b, 1, 2)
            for b in grid
        ]
        worst_ns = np.maximum(worst_ns, np.ptp(m))
    yield ("no-signaling-oracle", worst_ns <= 1e-12,
           f"max marginal variation = {worst_ns:.3e} (tol 1e-12)")


def _validate_checks(cfg: dict):
    from concurrent.futures import ThreadPoolExecutor

    # every random parameter first, in the order the checks take them, so
    # check 5 can run on a worker beside checks 1-4: they share no data
    rng = np.random.default_rng((cfg["seed"], 29))

    def draw():
        d = rng.uniform(0.02, 0.95)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        return d, a, b, int(rng.integers(1, 3)), int(rng.integers(1, 3))

    analytic = [draw() for _ in range(int(cfg["tuples"]))]
    sampled = [draw() for _ in analytic]
    lhv_runs = [(model, AngleSettings(*rng.uniform(0.0, math.pi, 4)), (cfg["seed"], 5, t))
                for model in [factory() for factory in SHIPPED_LHV_MODELS.values()]
                for t in range(8)]

    # 5: shipped hidden-variable models respect |B| <= 2.
    samples = int(cfg["lhv_samples"])
    lhv_tol = 2.0 + 5.0 / math.sqrt(samples)
    with ThreadPoolExecutor(1) as pool:
        lhv = pool.submit(lambda: np.max([abs(lhv_chsh(model, settings, samples, seed))
                                          for model, settings, seed in lhv_runs]))
        yield from _field_checks(cfg, analytic, sampled)
        worst_lhv = lhv.result()
    yield ("lhv-bound", worst_lhv <= lhv_tol,
           f"max |B| = {worst_lhv:.6f} (bound {lhv_tol:.6f})")


def cmd_validate(cfg: dict) -> int:
    """run the internal consistency and bound suite"""
    results = []
    for name, ok, detail in _validate_checks(cfg):
        results.append({"check": name, "pass": bool(ok), "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = [r["check"] for r in results if not r["pass"]]
    if cfg["out"] is not None:
        payload = {"checks": results, "failed": failed, "config": _echo(cfg)}
        Path(cfg["out"]).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "source": cmd_source,
    "scan": cmd_scan,
    "chsh": cmd_chsh,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (WavebellError, OSError, MemoryError) as exc:
        print(f"wavebell: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
