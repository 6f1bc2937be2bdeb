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
and auxiliary-arm phase jitter (drawn in moment space, see ``_moment_stacks``);
all noise streams are derived from explicit seeds so every simulated
measurement is reproducible.

One kernel, ``_probabilities``, reads every probability.  Each shuttered
intensity is a quadratic form in the 2x2 second moments J of a run, and the
both-arms reading adds an interference term in the phase-weighted moments K
(K = J without jitter).  So the kernel reads stacks of J, K and detector
offsets, drawn by ``_moment_stacks`` from the source's J and count n alone
(resamples by the complex Wishart law, jitter by Isserlis' theorem, as for
circular-Gaussian light), at an array of settings at once; at population
moments it gives the n -> infinity value of every output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bell import AngleSettings, chsh_sum, correlation_sum, joint_probability_kappa, max_chsh
from .ensemble import (
    FieldEnsemble,
    SchmidtDecomposition,
    _check_integer,
    dop,
    measured_schmidt,
    synthesize_partially_polarized,
)
from .errors import DomainError, ExtractionError, StrippedBeamError
from .optics import (
    LabBasis,
    _entry_sum,
    beamsplitter_combine,
    beamsplitter_split,
    chain_power,
    polarizer_axis,
    _check_extinction,
    polarizer_matrix,
    stripping_angle,
    stripping_angle_orthogonal,
)

__all__ = [
    "NoiseModel",
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
]

# Header of the correlation-curve CSV serialization.
CURVE_CSV_HEADER = "a_rad,b_rad,p11,p12,p21,p22,c,c_err"

# Below this second Schmidt weight the stripping polarizer would transmit
# essentially nothing; the protocol falls back to the closed-form path.
_KAPPA2_FLOOR = 1e-6

# Fixed tag separating the bootstrap normals' stream from measurement streams.
_BOOT_TAG = 715

# Outcomes (k, l) of p11, p12, p21, p22, and the stripping angle of l = 1, 2.
_KL = ((1, 1), (1, 2), (2, 1), (2, 2))
_STRIP = (stripping_angle, stripping_angle_orthogonal)

# Largest detector noise and phase jitter a NoiseModel accepts: far above any
# real apparatus, and low enough that no reading overflows.
_MAX_NOISE = 1e6

# An auxiliary reading at most this fraction of the beam counts as stripped (no light).
_STRIPPED = 1e-15


@dataclass(frozen=True)
class NoiseModel:
    """Apparatus imperfections, all zero for the ideal instrument.

    extinction_ratio : power fraction leaking through a polarizer's blocked
        axis, at most 1.
    detector_noise : std of additive Gaussian noise per detector reading,
        relative to the source intensity, at most 1e6.
    phase_jitter : std (radians) of the auxiliary-arm phase, independent per
        realization and per measurement (drawn in moment space), at most 1e6.
    """

    extinction_ratio: float = 0.0
    detector_noise: float = 0.0
    phase_jitter: float = 0.0

    def __post_init__(self):
        _check_extinction(self.extinction_ratio)
        for name in ("detector_noise", "phase_jitter"):
            v = getattr(self, name)
            if not 0.0 <= v <= _MAX_NOISE:  # a NaN fails too
                raise DomainError(f"{name} must lie in [0, {_MAX_NOISE:g}], got {v}")


def _seed_base(seed) -> tuple:
    base = seed if isinstance(seed, tuple) else (seed,)
    for entry in base:
        _check_integer("seed entries", entry, 0)
    return base


def _form(v):
    """2x2 moment matrices of feature-coordinate vectors (xx, yy, re, im), shape (..., 4)."""
    xx, yy, re, im = np.moveaxis(v, -1, 0)
    return np.moveaxis(np.array([[xx, re + 1j * im], [re - 1j * im, yy]]), (0, 1), (-2, -1))


# Feature coordinates (xx, yy, re, im) of a 2x2 matrix m, read from m.ravel().
_FEATURES = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])


def _root(h):
    """Principal square root of a Hermitian PSD matrix; rounding below 0 reads as 0."""
    w, v = np.linalg.eigh(h)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def _moment_stacks(j, n, t, noise, seeds, keys):
    """Moment stacks of R runs at M settings: the second moments J, shape
    (R, 2, 2), the phase-weighted moments K, shape (R, M, 2, 2), and the
    detector offsets, shape (R, M, 3), that :func:`_readings` reads, from the
    source's second moments ``j`` over ``n`` realizations alone.

    Run 0 is the source; run r >= 1 is a resample from the complex Wishart law
    CW(n, J)/n of n circular-Gaussian realizations (Goodman 1963),
    J*_r = L T T+ L+ / n, with L the principal root of J (a singular J too)
    and T = ``t[r - 1]`` its lower-triangular Bartlett factor: PSD by
    construction.  Under jitter K = (1/n) sum_n exp(-i phi_n) conj(E_n) E_n^T
    has mean exp(-sigma^2/2) J and uncorrelated real and imaginary parts of
    covariance Var(cos phi) G/n^2 and E[sin^2 phi] G/n^2 in the coordinates
    q = (xx, yy, re, im), where G/n = E[q q^T] follows from the source's J by
    Isserlis' theorem, E[m_pq m_rs] = J_pq J_rs + J_ps J_rq (m = conj(E) E^T),
    for every run; each reading draws K as that Gaussian, with 8 normals and
    then its detector noise from ``default_rng(seeds[r] + keys[m])``.
    Without jitter K is J, as a broadcast view.
    """
    sigma, detector = noise.phase_jitter, noise.detector_noise > 0.0
    lt = _root(j) @ np.reshape(t, (-1, 2, 2))
    drawn = lt @ lt.conj().swapaxes(1, 2) / n
    js = np.concatenate([j[None], (drawn + drawn.conj().swapaxes(1, 2)) / 2.0])
    k = np.empty((len(seeds), len(keys), 2, 2), dtype=complex) if sigma else \
        np.broadcast_to(js[:, None], (len(seeds), len(keys), 2, 2))
    offsets = np.zeros((len(seeds), len(keys), 3))
    if sigma:
        m4 = np.einsum("pq,rs->pqrs", j, j) + np.einsum("ps,rq->pqrs", j, j)
        root = _root((_FEATURES @ m4.reshape(4, 4) @ _FEATURES.T).real / n)  # root of G / n^2
    # E[cos phi] and the stds of cos phi and sin phi, for phi ~ N(0, sigma^2)
    mean, sd_cos = math.exp(-sigma**2 / 2.0), -math.expm1(-sigma**2) / math.sqrt(2.0)
    sd_sin = math.sqrt(-math.expm1(-2.0 * sigma**2) / 2.0)
    for r in range(len(seeds)):
        for m in range(len(keys) if sigma or detector else 0):
            rng = np.random.default_rng(seeds[r] + keys[m])
            if sigma:
                zk = rng.standard_normal((2, 4))
                k[r, m] = mean * js[r] + _form((sd_cos * zk[0] - 1j * sd_sin * zk[1]) @ root)
            if detector:
                offsets[r, m] = rng.normal(0.0, noise.detector_noise * np.trace(js[r]).real, 3)
    return js, k, offsets


def _readings(j, k, offsets, basis, pol, strip, extinction):
    """Shutter triples (i_total, i_test, i_aux), shape (R, M, S, 3), as
    :func:`measure_intensities` describes, from the stacks of
    :func:`_moment_stacks` and the optics: the M test polarizer angles ``pol``
    and the (M, S) stripping angles ``strip`` behind each, relative to
    ``basis``, at one extinction ratio.  The both-arms reading is the two
    shuttered readings plus the interference term 2 Re tr(out_aux+ out_test K),
    out_aux and out_test being each arm's share of the recombiner output.
    Under detector noise every reading is clamped at 0."""
    pol_a = polarizer_matrix(polarizer_axis(basis, np.asarray(pol)[:, None]), extinction)
    pol_s = polarizer_matrix(polarizer_axis(basis, strip), extinction)
    test_chain, _ = beamsplitter_split(pol_a)         # split transmit, polarizer a
    _, aux_chain = beamsplitter_split(pol_a @ pol_s)  # split reflect, polarizers s then a
    test_chain = np.broadcast_to(test_chain, aux_chain.shape)
    jj = j[:, None, None]
    # shuttered readings: each arm alone, at half power behind the recombiner
    test, aux = chain_power(test_chain, jj) / 2.0, chain_power(aux_chain, jj) / 2.0
    zero = np.zeros(aux_chain.shape)
    out_aux = beamsplitter_combine(aux_chain, zero)
    out_test = beamsplitter_combine(zero, test_chain)
    cross = _entry_sum((out_aux.conj().swapaxes(-1, -2) @ out_test) * k[:, :, None]).real
    readings = np.stack([test + aux + 2.0 * cross, test, aux], axis=-1)
    if offsets.any():
        readings = np.maximum(readings + offsets[:, :, None], 0.0)
    readings[..., 1:] *= 2.0
    return readings


def _extract(i_total, i_test, i_aux, beam_intensity):
    """The extraction formula, elementwise; see :func:`extract_probability`."""
    if np.any(beam_intensity <= 0.0):
        raise DomainError("source intensity must be positive")
    if np.any(i_aux <= _STRIPPED * beam_intensity):
        raise StrippedBeamError("auxiliary beam extinguished; intensity extraction undefined")
    cross = 2.0 * i_total - i_aux - i_test
    # squared with libm pow, as Python's float ** does (cross * cross can differ in the last bit)
    p = np.float_power(cross, 2) / (4.0 * beam_intensity * i_aux)
    if np.any(p > 1.0 + 1e-6):
        raise ExtractionError(f"extracted probability {np.max(p)} exceeds 1 beyond tolerance")
    return np.minimum(p, 1.0)


def _probabilities(stacks, sd, a, b, k, l, extinction) -> np.ndarray:
    """Joint probabilities P_kl(a, b), shape (R, M), of the R runs whose
    moment stacks (J, K, offsets) :func:`_moment_stacks` built, at the M
    settings ``a, b, k, l``, read as :func:`measure_joint_probability`
    describes: both stripping angles of a setting under its one set of
    noise draws (see :func:`_readings`)."""
    a, b, k, l = map(np.asarray, (a, b, k, l))
    distinct_b, which = np.unique(b, return_inverse=True)
    strips = np.array([[f(sd.kappa1, sd.kappa2, x) for f in _STRIP] for x in distinct_b.tolist()])
    strip = np.where((l == 1)[:, None], strips[which], strips[which, ::-1])  # selected, other
    pol = np.where(k == 1, a, a + math.pi / 2.0)
    t = _readings(*stacks, LabBasis(sd.u1, sd.u2), pol, strip, extinction)
    beam = np.broadcast_to(np.trace(stacks[0], axis1=1, axis2=2).real[:, None] / 2.0, t.shape[:2])
    own, other = t[:, :, 0], t[:, :, 1]
    stripped = own[..., 2] <= _STRIPPED * beam
    p = np.empty(stripped.shape)
    p[~stripped] = _extract(*own[~stripped].T, beam[~stripped])
    if np.any(stripped):
        other, beam = other[stripped], beam[stripped]
        p_other = _extract(*other.T, beam)
        p[stripped] = np.clip(other[:, 1] / beam - p_other, 0.0, 1.0)
    return p


def measure_intensities(
    ensemble: FieldEnsemble,
    a: float,
    s: float,
    noise: NoiseModel = NoiseModel(),
    seed=0,
    *,
    basis: LabBasis,
) -> tuple[float, float, float]:
    """Simulate one shutter sequence of the two-arm measurement.

    Splits the input beam, applies polarizer ``a`` to the test arm and
    polarizers ``s`` then ``a`` to the auxiliary arm, recombines, and
    returns the detector intensities ``(i_total, i_test, i_aux)``: both arms
    open, then each arm alone (twice the shuttered reading, undoing the
    recombiner's 50:50 loss).  Polarizer angles are measured relative to
    ``basis`` (normally the ensemble's Schmidt basis).
    Deterministic for a given ``seed``; phase jitter is drawn before detector noise.

    Every reading is a quadratic form in the cached second moments J but the
    both-arms interference term, which reads the phase-weighted moments
    K_pq = (1/N) sum_n exp(-i phi_n) conj(Ep_n) Eq_n, drawn as a Gaussian with
    the mean and covariance of circular-Gaussian fields of this J (K = J
    without jitter).
    """
    stacks = _moment_stacks(ensemble.second_moments, ensemble.n, (), noise,
                            [_seed_base(seed)], [()])
    t = _readings(*stacks, basis, [a], [[s]], noise.extinction_ratio)
    return tuple(map(float, t[0, 0, 0]))


def extract_probability(i_total: float, i_test: float, i_aux: float,
                        source_intensity: float) -> float:
    """Convert a shutter triple, as :func:`measure_intensities` returns it or
    as read in a lab, into a joint probability.

    ``source_intensity`` is the test-beam intensity entering the
    interferometer arm (half the source power for a 50:50 input splitter).

    Raises
    ------
    DomainError
        If a reading is not finite and >= 0, or ``source_intensity`` is not
        finite and positive.
    StrippedBeamError
        If the auxiliary arm carries no light (the formula divides by it).
    ExtractionError
        If the result exceeds 1 by more than 1e-6, which indicates a
        convention bug rather than rounding; values in (1, 1 + 1e-6] are
        clamped to 1.
    """
    values = (i_total, i_test, i_aux, source_intensity)
    if not all(0.0 <= v < math.inf for v in values):  # _extract rejects an intensity of 0
        raise DomainError(f"readings and source intensity must be finite and >= 0, got {values}")
    return float(_extract(*values))


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
    test arm alone; both stripping angles are read under the same noise,
    drawn from seed + (k, l) as :func:`measure_correlation` draws it.
    """
    if k not in (1, 2) or l not in (1, 2):
        raise DomainError(f"outcome indices k, l must each be 1 or 2, got ({k}, {l})")
    stacks = _moment_stacks(ensemble.second_moments, ensemble.n, (), noise,
                            [_seed_base(seed)], [(k, l)])
    return float(_probabilities(stacks, sd, [a], [b], [k], [l], noise.extinction_ratio)[0, 0])


def measure_correlation(
    ensemble: FieldEnsemble,
    sd: SchmidtDecomposition,
    a: float,
    b: float,
    noise: NoiseModel = NoiseModel(),
    seed=0,
) -> tuple[float, tuple[float, float, float, float]]:
    """Measure all four joint probabilities at (a, b) and combine them into
    the correlation C = P11 - P12 - P21 + P22; outcome (k, l) draws its
    noise from seed + (k, l)."""
    stacks = _moment_stacks(ensemble.second_moments, ensemble.n, (), noise,
                            [_seed_base(seed)], _KL)
    p = _probabilities(stacks, sd, [a] * 4, [b] * 4, *np.array(_KL).T, noise.extinction_ratio)
    p = tuple(map(float, p[0]))
    return correlation_sum(p), p


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
        table = np.column_stack([self.a, np.full_like(self.a, self.b), self.p11, self.p12,
                                 self.p21, self.p22, self.c, self.c_err])
        np.savetxt(path, table, delimiter=",", header=CURVE_CSV_HEADER, comments="", fmt="%.12g")


def _check_resamples(resamples) -> None:
    _check_integer("bootstrap resamples", resamples, 0)
    if 0 < resamples < 10:
        raise DomainError(f"use at least 10 bootstrap resamples, got {resamples}")


def _measure_runs(ensemble, sd, pairs, noise, base, resamples) -> np.ndarray:
    """Joint probabilities (1 + resamples, P, 4), ordered p11 .. p22, at the P
    (a, b) pairs: run 0 reads the source, run r its r-th bootstrap resample;
    outcome (k, l) at pair i of run r draws its noise from base + (r, i, k, l).
    The R resamples draw their Bartlett factors T (see :func:`_moment_stacks`)
    from the stream base + (_BOOT_TAG,), one call per entry: |T_11|^2 ~ Gamma(n),
    |T_22|^2 ~ Gamma(n - 1), then T_21 ~ CN(0, 1) from a standard_normal((2, R)).
    All runs are read in one kernel call, whatever the noise model.
    """
    settings = np.array([(a, b, k, l) for a, b in pairs for k, l in _KL]).T
    keys = [(i, k, l) for i in range(len(pairs)) for k, l in _KL]
    _check_resamples(resamples)
    n = ensemble.n
    rng = np.random.default_rng(base + (_BOOT_TAG,))
    t = np.zeros((resamples, 2, 2), dtype=complex)
    t[:, 0, 0] = np.sqrt(rng.standard_gamma(n, resamples))
    t[:, 1, 1] = np.sqrt(rng.standard_gamma(n - 1, resamples))
    re, im = rng.standard_normal((2, resamples)) / math.sqrt(2.0)
    t[:, 1, 0] = re + 1j * im
    seeds = [base + (r,) for r in range(1 + resamples)]
    stacks = _moment_stacks(ensemble.second_moments, n, t, noise, seeds, keys)
    p = _probabilities(stacks, sd, *settings, noise.extinction_ratio)
    return p.reshape(len(p), len(pairs), 4)


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

    With ``resamples`` > 0 (an integer of at least 10), each resample draws
    its J* from the complex Wishart law CW(n, J)/n of circular-Gaussian fields
    at the source's J, holding the settings fixed, to attach a standard error
    to each point; each resample's J* is reused across the grid.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise DomainError("a_grid must be a non-empty 1-d sequence of angles")
    pairs = [(float(a), b) for a in a_grid]
    ps = _measure_runs(ensemble, sd, pairs, noise, _seed_base(seed), resamples)
    c = correlation_sum(np.moveaxis(ps, -1, 0))
    c_err = np.std(c[1:], axis=0, ddof=1) if resamples else np.zeros(a_grid.size)
    return CorrelationCurve(a_grid, float(b), *ps[0].T, c=c[0], c_err=c_err)


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

    ``settings=None`` means: measure at the closed-form CHSH-maximizing
    angles of the measured Schmidt weights (``bell.max_chsh``).
    ``seed``, ``n`` >= 2 and ``resamples`` (0, no bootstrap, or at least 10)
    are integers.  Each resample draws J* from the complex Wishart law
    CW(n, J)/n of circular-Gaussian fields at the source's J (see
    ``_moment_stacks``).  The source is drawn at unit intensity, since every
    output is a ratio of intensities.
    """

    dop: float
    n: int
    seed: int
    settings: AngleSettings | None = None
    noise: NoiseModel = NoiseModel()
    resamples: int = 16

    def __post_init__(self):
        _check_integer("seed", self.seed, 0)
        _check_integer("n", self.n, 2)
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
    source = synthesize_partially_polarized(config.dop, 1.0, config.n, config.seed)
    stokes_est, sd = measured_schmidt(source)
    dop_est = dop(stokes_est)
    k1, k2 = sd.kappa1, sd.kappa2

    settings = max_chsh(k1, k2)[1] if config.settings is None else config.settings
    pairs = settings.pairs()
    errs = np.zeros(5)  # chsh, then the four correlations

    if k2 < _KAPPA2_FLOOR:
        method = "closed-form"
        ps = np.array([[joint_probability_kappa(k1, k2, a, b, k, l) for k, l in _KL]
                       for a, b in pairs])
    else:
        method = "interferometer"
        runs = _measure_runs(source, sd, pairs, config.noise, (config.seed,), config.resamples)
        ps = runs[0]
        if config.resamples:
            c = correlation_sum(np.moveaxis(runs[1:], -1, 0))
            errs = np.std(np.column_stack([chsh_sum(c.T), c]), axis=0, ddof=1)

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
