"""End-to-end simulation of the interferometric Bell measurement.

The beam is split 50:50 into a test arm and an auxiliary arm.  The test arm
passes a polarizer at angle ``a``.  The auxiliary arm passes a stripping
polarizer at angle ``s`` (chosen so the transmitted beam carries a single
rotated function-space component) and then the same polarizer angle ``a``.
Recombining the arms and reading three intensities at one detector (both
arms open, each arm alone) determines the joint probability of one
polarization outcome and one function-space outcome:

    P = (2 I_total - I_aux - I_test)^2 / (4 I I_aux)

where I_test and I_aux are the arm intensities (twice the shuttered
detector readings, to undo the final 50:50 loss), I_total is the
both-arms-open reading, and I is the test-beam intensity entering the arm.
Squaring makes the extraction insensitive to the sign of the interference
term.

An optional noise model injects polarizer leakage, additive detector noise,
and auxiliary-arm phase jitter; all noise streams are derived from explicit
seeds so every simulated measurement is reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .bell import AngleSettings, chsh_sum, correlation_sum, joint_probability_kappa, max_chsh
from .ensemble import (
    FieldEnsemble,
    SchmidtDecomposition,
    dop,
    intensity,
    measured_schmidt,
    synthesize_partially_polarized,
)
from .errors import DomainError, ExtractionError, StrippedBeamError
from .optics import (
    LabBasis,
    beamsplitter_combine,
    beamsplitter_split,
    chain_power,
    polarizer_axis,
    polarizer_matrix,
    stripping_angle,
    stripping_angle_orthogonal,
)

__all__ = [
    "NoiseModel",
    "IntensityTriple",
    "SettingResult",
    "BellReport",
    "ProtocolConfig",
    "CorrelationCurve",
    "measure_intensities",
    "extract_probability",
    "measure_joint_probability",
    "measure_correlation",
    "scan_correlation",
    "run_bell_protocol",
    "bootstrap_error",
]

# Header of the correlation-curve CSV serialization.
CURVE_CSV_HEADER = "a_rad,b_rad,p11,p12,p21,p22,c,c_err"

# Below this second Schmidt weight the stripping polarizer would transmit
# essentially nothing; the protocol falls back to the closed-form path.
_KAPPA2_FLOOR = 1e-6

# Fixed tag separating bootstrap index streams from measurement streams.
_BOOT_TAG = 715


@dataclass(frozen=True)
class NoiseModel:
    """Apparatus imperfections, all zero for the ideal instrument.

    extinction_ratio : power fraction leaking through a polarizer's blocked
        axis.
    detector_noise : std of additive Gaussian noise per detector reading,
        relative to the source intensity.
    phase_jitter : std (radians) of the auxiliary-arm phase, drawn per
        realization and per measurement.
    """

    extinction_ratio: float = 0.0
    detector_noise: float = 0.0
    phase_jitter: float = 0.0

    def __post_init__(self):
        for name in ("extinction_ratio", "detector_noise", "phase_jitter"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0, got {v}")
        if self.extinction_ratio > 1.0:
            raise DomainError(
                f"extinction_ratio is a leaked power fraction and must be <= 1, "
                f"got {self.extinction_ratio}"
            )

    @property
    def is_ideal(self) -> bool:
        return self.extinction_ratio == 0.0 and self.detector_noise == 0.0 and self.phase_jitter == 0.0


@dataclass(frozen=True)
class IntensityTriple:
    """Shutter-sequenced detector results for one angle setting.

    i_total is the detector reading with both arms open; i_test and i_aux
    are the arm intensities inferred with the other arm shuttered (twice
    the raw reading, undoing the recombiner's 50:50 loss).
    """

    i_total: float
    i_test: float
    i_aux: float

    def __post_init__(self):
        for name in ("i_total", "i_test", "i_aux"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0, got {v}")


def measure_intensities(
    ensemble: FieldEnsemble,
    a: float,
    s: float,
    noise: NoiseModel = NoiseModel(),
    seed=0,
    *,
    basis: LabBasis,
) -> IntensityTriple:
    """Simulate one shutter sequence of the two-arm measurement.

    Splits the input beam, applies polarizer ``a`` to the test arm and
    polarizers ``s`` then ``a`` to the auxiliary arm, recombines, and
    returns the three detector intensities.  Polarizer angles are measured
    relative to ``basis`` (normally the ensemble's Schmidt basis).
    Deterministic for a given ``seed``; phase jitter is drawn before detector noise.

    Each arm is a chain of linear elements, so the chain is composed into a
    single Jones matrix before touching the realizations; an ensemble-mean
    power is then a quadratic form in the cached sample second moments J.
    Both shortcuts reproduce the element-by-element field computation to
    rounding.  Phase jitter varies per realization, so only the
    interference term of the both-arms-open reading changes: it is a
    quadratic form in the phase-weighted moments
    K_pq = (1/N) sum_n exp(-i phi_n) conj(Ep_n) Eq_n, computed in one pass
    over the realizations.  The arm readings stay quadratic forms in J.
    """
    source_intensity = intensity(ensemble)

    eps = noise.extinction_ratio
    pol_a = polarizer_matrix(polarizer_axis(basis, a), eps)
    pol_s = polarizer_matrix(polarizer_axis(basis, s), eps)
    test_chain, _ = beamsplitter_split(pol_a)         # split transmit, polarizer a
    _, aux_chain = beamsplitter_split(pol_a @ pol_s)  # split reflect, polarizers s then a

    moments = ensemble.second_moments
    # shuttered readings: each arm alone, at half power behind the recombiner
    test_reading = chain_power(test_chain, moments) / 2.0
    aux_reading = chain_power(aux_chain, moments) / 2.0
    if noise.phase_jitter > 0.0 or noise.detector_noise > 0.0:
        rng = np.random.default_rng(seed)
    if noise.phase_jitter > 0.0:
        # The output field is out_aux exp(i phi) E + out_test E, with each
        # arm's share of the recombiner output; its mean power is the two
        # shuttered readings plus the interference term in K.
        zero = np.zeros((2, 2))
        out_aux = beamsplitter_combine(aux_chain, zero)
        out_test = beamsplitter_combine(zero, test_chain)
        phases = rng.normal(0.0, noise.phase_jitter, ensemble.n)
        r = ensemble.realizations
        weighted = r.conj()
        weighted *= np.exp(-1j * phases)[:, None]
        k = weighted.T @ r / ensemble.n
        cross = float(np.sum((out_aux.conj().T @ out_test) * k).real)
        total = test_reading + aux_reading + 2.0 * cross
    else:
        total = chain_power(beamsplitter_combine(aux_chain, test_chain), moments)
    readings = np.array([total, test_reading, aux_reading])
    if noise.detector_noise > 0.0:
        readings += rng.normal(0.0, noise.detector_noise * source_intensity, 3)
        readings = np.maximum(readings, 0.0)
    return IntensityTriple(
        i_total=float(readings[0]),
        i_test=float(2.0 * readings[1]),
        i_aux=float(2.0 * readings[2]),
    )


def extract_probability(t: IntensityTriple, source_intensity: float) -> float:
    """Convert a shutter triple into a joint probability.

    ``source_intensity`` is the test-beam intensity entering the
    interferometer arm (half the source power for a 50:50 input splitter).

    Raises
    ------
    StrippedBeamError
        If the auxiliary arm carries no light (the formula divides by it).
    ExtractionError
        If the result exceeds 1 by more than 1e-6, which indicates a
        convention bug rather than rounding; values in (1, 1 + 1e-6] are
        clamped to 1.
    """
    if source_intensity <= 0.0:
        raise DomainError("source intensity must be positive")
    if t.i_aux <= 1e-15 * source_intensity:
        raise StrippedBeamError(
            "auxiliary beam extinguished; intensity extraction undefined"
        )
    cross = 2.0 * t.i_total - t.i_aux - t.i_test
    p = cross**2 / (4.0 * source_intensity * t.i_aux)
    if p > 1.0 + 1e-6:
        raise ExtractionError(f"extracted probability {p} exceeds 1 beyond tolerance")
    return min(p, 1.0)


def measure_joint_probability(
    ensemble: FieldEnsemble,
    sd: SchmidtDecomposition,
    a: float,
    b: float,
    k: int,
    l: int,
    noise: NoiseModel = NoiseModel(),
    seed=0,
) -> float:
    """Interferometric estimate of the joint probability P_kl(a, b).

    The function-space outcome l selects the stripping angle (the direct
    angle for l=1, its orthogonal counterpart for l=2); the polarization
    outcome k selects polarizer a (k=1) or a + pi/2 (k=2).

    When polarizer a sits exactly crossed with the stripping polarizer the
    auxiliary beam is extinguished and the intensity formula degenerates to
    0/0.  The two stripping angles for a given b are never mutually crossed,
    so the value is recovered from measurable quantities as
    P_kl = P(u_k^a) - P_k,l' with the lab marginal P(u_k^a) read off the
    test arm alone.
    """
    if k not in (1, 2) or l not in (1, 2):
        raise DomainError(f"outcome indices k, l must each be 1 or 2, got ({k}, {l})")
    strip_of = {1: stripping_angle, 2: stripping_angle_orthogonal}
    s = strip_of[l](sd.kappa1, sd.kappa2, b)
    pol_angle = a if k == 1 else a + math.pi / 2.0
    basis = LabBasis(sd.u1, sd.u2)
    beam_intensity = intensity(ensemble) / 2.0
    try:
        t = measure_intensities(ensemble, pol_angle, s, noise, seed, basis=basis)
        return extract_probability(t, beam_intensity)
    except StrippedBeamError:
        other = 2 if l == 1 else 1
        s_other = strip_of[other](sd.kappa1, sd.kappa2, b)
        t = measure_intensities(ensemble, pol_angle, s_other, noise, seed, basis=basis)
        p_other = extract_probability(t, beam_intensity)
        lab_marginal = t.i_test / beam_intensity
        return min(max(lab_marginal - p_other, 0.0), 1.0)


def measure_correlation(
    ensemble: FieldEnsemble,
    sd: SchmidtDecomposition,
    a: float,
    b: float,
    noise: NoiseModel = NoiseModel(),
    seed=0,
) -> tuple[float, tuple[float, float, float, float]]:
    """Measure all four joint probabilities at (a, b) and combine them into
    the correlation C = P11 - P12 - P21 + P22."""
    base = seed if isinstance(seed, tuple) else (seed,)
    p = [
        measure_joint_probability(ensemble, sd, a, b, k, l, noise, base + (k, l))
        for k in (1, 2)
        for l in (1, 2)
    ]
    return correlation_sum(p), tuple(p)


@dataclass(frozen=True)
class CorrelationCurve:
    """Correlation scan over a polarizer-angle grid at fixed b."""

    a: np.ndarray
    b: float
    p11: np.ndarray
    p12: np.ndarray
    p21: np.ndarray
    p22: np.ndarray
    c: np.ndarray
    c_err: np.ndarray

    def to_csv(self, path) -> None:
        """Write rows a_rad,b_rad,p11,p12,p21,p22,c,c_err at 12 significant
        digits."""
        table = np.column_stack(
            [
                self.a,
                np.full_like(self.a, self.b),
                self.p11,
                self.p12,
                self.p21,
                self.p22,
                self.c,
                self.c_err,
            ]
        )
        np.savetxt(path, table, delimiter=",", header=CURVE_CSV_HEADER, comments="", fmt="%.12g")


def _check_resamples(resamples: int) -> None:
    if resamples < 10:
        raise DomainError(f"use at least 10 bootstrap resamples, got {resamples}")


@dataclass(frozen=True, eq=False)
class _ResampledMoments:
    """A bootstrap resample seen only through its second moments; stands in
    for the resampled ensemble of a statistic that reads nothing else."""

    second_moments: np.ndarray


def _bootstrap_std(
    ensemble: FieldEnsemble,
    statistic: Callable[[FieldEnsemble, int], float | np.ndarray],
    resamples: int,
    base: tuple,
    reads_fields: bool,
) -> np.ndarray:
    """Standard deviation of ``statistic`` over bootstrap resamples.

    Resample r draws its realization indices from the stream
    ``base + (_BOOT_TAG,)`` and calls ``statistic(ensemble_r, r + 1)``; the
    second argument keys the resample's measurement-noise streams, with 0
    left to the unresampled run.

    With ``reads_fields`` the statistic gets the gathered realizations
    ``FieldEnsemble(realizations[idx])``.  Otherwise it reads only
    ``second_moments``, which for a resample are ``counts @ Q / n``: the
    realization counts of the draw times the per-realization
    (|Ex|^2, |Ey|^2, Re Ex* Ey, Im Ex* Ey), built once.  No copy of the
    realizations is made then.
    """
    _check_resamples(resamples)
    rng = np.random.default_rng(base + (_BOOT_TAG,))
    n = ensemble.n
    if not reads_fields:
        x, y = ensemble.realizations.T
        xy = x.conj() * y
        q = np.column_stack([x.real**2 + x.imag**2, y.real**2 + y.imag**2, xy.real, xy.imag])
        del xy
    values = []
    for r in range(resamples):
        idx = rng.integers(0, n, n)
        if reads_fields:
            # kept in a variable so each copy is freed only after the next one
            # exists: with glibc's heap reuse this kept the peak RSS of repeated
            # n=1e6 runs ~15 MB lower (Linux, numpy 2.4)
            resampled = FieldEnsemble(ensemble.realizations[idx])
        else:
            jxx, jyy, re_xy, im_xy = np.bincount(idx, minlength=n) @ q / n
            resampled = _ResampledMoments(
                np.array([[jxx, re_xy + 1j * im_xy], [re_xy - 1j * im_xy, jyy]])
            )
        values.append(statistic(resampled, r + 1))
    return np.std(np.asarray(values, dtype=float), axis=0, ddof=1)


def _measure_pairs(
    ensemble: FieldEnsemble,
    sd: SchmidtDecomposition,
    pairs: Sequence[tuple[float, float]],
    noise: NoiseModel,
    base: tuple,
    run_idx: int,
) -> np.ndarray:
    """Joint probabilities (rows p11, p12, p21, p22) at each (a, b) pair;
    pair i of run ``run_idx`` measures with noise seed base + (run_idx, i)."""
    return np.array(
        [
            measure_correlation(ensemble, sd, a, b, noise, base + (run_idx, i))[1]
            for i, (a, b) in enumerate(pairs)
        ]
    )


def scan_correlation(
    ensemble: FieldEnsemble,
    sd: SchmidtDecomposition,
    b: float,
    a_grid: Sequence[float],
    noise: NoiseModel = NoiseModel(),
    seed=0,
    resamples: int = 0,
) -> CorrelationCurve:
    """Measure C(a, b) over a grid of polarizer angles at fixed b.

    With ``resamples`` > 0, realizations are bootstrap-resampled (holding
    the apparatus settings fixed) to attach a standard error to each point;
    the same resample index sets are reused across the grid.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise DomainError("a_grid must be a non-empty 1-d sequence of angles")
    base = seed if isinstance(seed, tuple) else (seed,)
    pairs = [(float(a), b) for a in a_grid]

    def correlations(e: FieldEnsemble, run_idx: int) -> np.ndarray:
        return correlation_sum(_measure_pairs(e, sd, pairs, noise, base, run_idx).T)

    ps = _measure_pairs(ensemble, sd, pairs, noise, base, 0)
    if resamples:
        c_err = _bootstrap_std(
            ensemble, correlations, resamples, base, reads_fields=noise.phase_jitter > 0.0
        )
    else:
        c_err = np.zeros(a_grid.size)
    return CorrelationCurve(
        a=a_grid,
        b=float(b),
        p11=ps[:, 0],
        p12=ps[:, 1],
        p21=ps[:, 2],
        p22=ps[:, 3],
        c=correlation_sum(ps.T),
        c_err=c_err,
    )


@dataclass(frozen=True)
class SettingResult:
    """Joint probabilities and correlation at one (a, b) setting."""

    a: float
    b: float
    p11: float
    p12: float
    p21: float
    p22: float
    c: float
    c_err: float


@dataclass(frozen=True)
class BellReport:
    """Complete result of one Bell-protocol run.

    ``dataclasses.asdict`` gives its JSON-ready form.
    """

    dop: float
    kappa1: float
    kappa2: float
    n: int
    seed: int
    noise: NoiseModel
    settings: AngleSettings
    chsh: float
    chsh_err: float
    probabilities: tuple[SettingResult, ...]
    method: str = "interferometer"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one Bell-protocol run.

    ``settings=None`` means: search for the CHSH-maximizing angles of the
    measured Schmidt weights before measuring.  ``resamples`` is 0 (no
    bootstrap) or at least 10.
    """

    dop: float
    n: int
    seed: int
    settings: AngleSettings | None = None
    noise: NoiseModel = NoiseModel()
    intensity: float = 1.0
    resamples: int = 16

    def __post_init__(self):
        if self.resamples:
            _check_resamples(self.resamples)


def run_bell_protocol(config: ProtocolConfig) -> BellReport:
    """Synthesize a source, characterize it, and evaluate the CHSH value.

    Pipeline: draw the stochastic source, run polarization tomography,
    convert the measured degree of polarization to Schmidt weights, pick
    angle settings (optimized unless given), measure the four joint
    probabilities per setting interferometrically, and attach bootstrap
    standard errors.

    A fully polarized source admits no stripping polarizer; in that case
    the report falls back to closed-form probabilities (method
    "closed-form") with the separable maximum chsh = 2.
    """
    source = synthesize_partially_polarized(
        config.dop, config.intensity, config.n, config.seed
    )
    stokes_est, sd = measured_schmidt(source)
    dop_est = dop(stokes_est)
    k1, k2 = sd.kappa1, sd.kappa2

    if config.settings is None:
        _, settings = max_chsh(k1, k2)
    else:
        settings = config.settings
    pairs = settings.pairs()
    errs = np.zeros(5)  # chsh, then the four correlations

    if k2 < _KAPPA2_FLOOR:
        method = "closed-form"
        ps = np.array(
            [
                [joint_probability_kappa(k1, k2, a, b, k, l) for k in (1, 2) for l in (1, 2)]
                for a, b in pairs
            ]
        )
    else:
        method = "interferometer"
        base = (config.seed,)

        def chsh_and_correlations(e: FieldEnsemble, run_idx: int) -> list[float]:
            c = correlation_sum(_measure_pairs(e, sd, pairs, config.noise, base, run_idx).T)
            return [chsh_sum(c), *c]

        ps = _measure_pairs(source, sd, pairs, config.noise, base, 0)
        if config.resamples:
            errs = _bootstrap_std(
                source, chsh_and_correlations, config.resamples, base,
                reads_fields=config.noise.phase_jitter > 0.0,
            )

    c = correlation_sum(ps.T)
    results = tuple(
        SettingResult(alpha, beta, *map(float, p), c=float(c_i), c_err=float(err))
        for (alpha, beta), p, c_i, err in zip(pairs, ps, c, errs[1:])
    )
    return BellReport(
        dop=dop_est,
        kappa1=k1,
        kappa2=k2,
        n=config.n,
        seed=config.seed,
        noise=config.noise,
        settings=settings,
        chsh=float(chsh_sum(c)),
        chsh_err=float(errs[0]),
        probabilities=results,
        method=method,
    )


def bootstrap_error(
    ensemble: FieldEnsemble,
    pipeline: Callable[[FieldEnsemble], float | np.ndarray],
    resamples: int = 100,
    seed=0,
):
    """Bootstrap standard error of any per-ensemble statistic.

    Resamples realizations with replacement, re-runs ``pipeline`` on each
    resampled ensemble, and returns the standard deviation across resamples
    (elementwise for array-valued pipelines).  Deterministic given ``seed``.
    ``pipeline`` may read anything of the ensemble, so each resample is a
    gathered copy of the realizations; the protocol's own bootstrap passes
    resample moments instead wherever its statistic reads only those.
    """
    base = seed if isinstance(seed, tuple) else (seed,)
    out = _bootstrap_std(ensemble, lambda e, _: pipeline(e), resamples, base, reads_fields=True)
    return float(out) if out.ndim == 0 else out
