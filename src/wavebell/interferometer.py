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
and auxiliary-arm phase jitter (drawn in moment space, see ``_moment_stacks``).
Each run of a call (the source, then each bootstrap resample) draws the noise
of all its readings from one stream derived from the seed, so every simulated
measurement is reproducible.

One kernel, ``_probabilities``, reads every probability in two stages:
``_readings`` gives the shutter triples, and ``probabilities_from_triples``,
which takes a lab's triples too, turns them into probabilities.  Each shuttered
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
    _bartlett,
    _check_dop,
    _check_integer,
    _check_n,
    _check_real,
    _check_seed,
    _check_trace,
    _draw_partially_polarized,
    _real_array,
    dop,
    schmidt,
    tomography,
)
from .errors import DomainError, ExtractionError, StrippedBeamError
from .optics import (
    LabBasis,
    beamsplitter_combine,
    beamsplitter_split,
    polarizer_axis,
    _check_angle,
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
    "probabilities_from_triples",
    "scan_correlation",
    "run_bell_protocol",
]

# Below this measured second Schmidt weight every measurement reads the closed form
# (_measure_runs).  At population moments J = diag(k1^2, k2^2), ideal, the kernel meets
# the closed form within 1e-10 on the default 12-curve scan grid and at the optimized and
# the 0.1, 0.7, 0.3, 1.2 chsh settings, and raises nothing, from k2 = 1e-3 (1 - DOP = 2e-6)
# upward on a quarter-decade grid to 1e-1; at 10**-3.25 it misses by 3.3e-10, and from
# 1e-4 down a scan pair loses both outcomes to the crossed test (StrippedBeamError).
_KAPPA2_FLOOR = 1e-3

# Fixed tag separating the bootstrap normals' stream from measurement streams.
_BOOT_TAG = 715

# Fixed last entry of each run's noise stream base + (r, _NOISE_TAG).  numpy's
# SeedSequence pads a short seed with zeros, so base + (0,) would be the stream
# of base itself (the source draw's), and base + (715,) the bootstrap stream; a
# nonzero last entry keeps every run's stream apart from both.
_NOISE_TAG = 716

# Outcomes (k, l) of p11, p12, p21, p22, and the stripping angle of l = 1, 2.
_KL = ((1, 1), (1, 2), (2, 1), (2, 2))
_STRIP = (stripping_angle, stripping_angle_orthogonal)

# Largest detector noise and phase jitter a NoiseModel accepts: far above any
# real apparatus, and low enough that no reading overflows.
_MAX_NOISE = 1e6

# Largest bootstrap resample count.  All runs are read at once, so memory grows with
# resamples x settings.  Measured on a 2-core x86-64 host (numpy 2.4, two BLAS threads)
# at n = 10**5 and R = 10**3 and 10**4 resamples, as (t(R) - t(0)) / R over the median
# of 7 calls and as the tracemalloc peak over R: a resample costs about 1.4 KB and
# 1.7-1.8 us in a CHSH run (16 settings), and 26 KB and 15-21 us per 90-point scan
# curve.  So 10**5 resamples take about 0.14 GB and 0.2 s, or 2.6 GB and 2.1 s per
# curve (extrapolated from 10**4).
_MAX_RESAMPLES = 10**5

# Largest count of (a, b) pairs times runs (1 + resamples) in one call.  At the measured
# 26 KB per resample per 90-point curve, about 290 B each, 10**7 is about 2.9 GB: the
# default 90-point curve at 10**5 resamples (9,000,090) fits, and 10**4 points at 10**5
# resamples (about 290 GB) do not.
_MAX_PAIR_RUNS = 10**7


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
            _check_real(name, v)
            if not 0.0 <= v <= _MAX_NOISE:  # a NaN fails too
                raise DomainError(f"{name} must lie in [0, {_MAX_NOISE:g}], got {v}")


def _seed_base(seed) -> tuple:
    _check_seed(seed)
    return seed if isinstance(seed, tuple) else (seed,)


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


def _moment_stacks(j, n, t, noise, seeds, m):
    """Moment stacks of R runs at M = ``m`` settings: the second moments J,
    shape (R, 2, 2), the phase-weighted moments K, shape (R, M, 2, 2) under
    jitter and J itself otherwise, and the detector offsets, shape (R, M, 3),
    that :func:`_readings` reads, from the source's second moments ``j`` over
    ``n`` realizations alone.

    Run 0 is the source; run r >= 1 is a resample from the complex Wishart law
    CW(n, J)/n of n circular-Gaussian realizations (Goodman 1963),
    J*_r = L T T+ L+ / n, with L the principal root of J (a singular J too)
    and T = ``t[r - 1]`` its lower-triangular Bartlett factor: PSD by
    construction.  Under jitter K = (1/n) sum_n exp(-i phi_n) conj(E_n) E_n^T
    has mean exp(-sigma^2/2) J and uncorrelated real and imaginary parts of
    covariance Var(cos phi) G/n^2 and E[sin^2 phi] G/n^2 in the coordinates
    q = (xx, yy, re, im), where G/n = E[q q^T] follows from the source's J by
    Isserlis' theorem, E[m_pq m_rs] = J_pq J_rs + J_ps J_rq (m = conj(E) E^T),
    for every run; each reading draws K as that Gaussian from 8 normals.  Run r
    draws all its noise from one stream, ``default_rng(seeds[r])``: the normals
    of its M readings, standard_normal((M, 2, 4)), then their detector
    offsets, normal(0, sigma_d tr J_r, (M, 3)).  A J of positive trace outside
    ``ensemble._TRACE_RANGE``, where the jitter draw's products J_pq J_rs are
    no longer normal floats, raises DomainError.
    """
    _check_trace(float(np.trace(j).real))
    sigma, detector = noise.phase_jitter, noise.detector_noise
    lt = _root(j) @ np.reshape(t, (-1, 2, 2))
    drawn = lt @ lt.conj().swapaxes(1, 2) / n
    js = np.concatenate([j[None], (drawn + drawn.conj().swapaxes(1, 2)) / 2.0])
    z, shape = np.empty((len(seeds), m, 2, 4)), (len(seeds), m, 3)
    # without detector noise the offsets are a view of one zero, so no pages are written
    offsets = np.zeros(shape) if detector else np.broadcast_to(0.0, shape)
    for r, seed in enumerate(seeds if sigma or detector else ()):
        rng = np.random.default_rng(seed)
        if sigma:
            z[r] = rng.standard_normal((m, 2, 4))
        if detector:
            offsets[r] = rng.normal(0.0, detector * np.trace(js[r]).real, (m, 3))
    if not sigma:
        return js, js, offsets
    m4 = np.einsum("pq,rs->pqrs", j, j) + np.einsum("ps,rq->pqrs", j, j)
    root = _root((_FEATURES @ m4.reshape(4, 4) @ _FEATURES.T).real / n)  # root of G / n^2
    # E[cos phi] and the stds of cos phi and sin phi, for phi ~ N(0, sigma^2)
    mean, sd_cos = math.exp(-sigma**2 / 2.0), -math.expm1(-sigma**2) / math.sqrt(2.0)
    sd_sin = math.sqrt(-math.expm1(-2.0 * sigma**2) / 2.0)
    k = mean * js[:, None] + _form((sd_cos * z[:, :, 0] - 1j * sd_sin * z[:, :, 1]) @ root)
    return js, k, offsets


def _re_im(x):
    """The 8 real numbers (Re x_pq, Im x_pq) of each of a stack of 2x2 matrices,
    shape (..., 8): Re sum_pq F_pq X_pq is the dot product of those of X and
    of conj(F)."""
    x = x.reshape(*x.shape[:-2], 4)
    return np.concatenate([x.real, x.imag], axis=-1)


def _mul(a, b):
    """Products a @ b of stacks of 2x2 matrices, the sum over the inner index written out."""
    return a[..., :, :1] * b[..., None, 0, :] + a[..., :, 1:] * b[..., None, 1, :]


def _readings(j, k, offsets, basis, pol, strip, extinction):
    """Shutter triples (i_total, i_test, i_aux), shape (R, M, 3), as
    :func:`measure_intensities` describes, from the stacks of
    :func:`_moment_stacks` and the optics: the M test polarizer angles ``pol``
    and the M stripping angles ``strip`` behind them, relative to ``basis``,
    at one extinction ratio.  Each reading is a real quadratic form
    Re sum_pq F_pq X_pq whose F is built once per setting from the optics
    chains: C+ C / 2 of the test or the auxiliary chain C, with X = J, for the
    shuttered readings (each arm alone, at half power behind the recombiner),
    and out_aux+ out_test, with X = K, for the interference term, out_aux and
    out_test being each arm's share of the recombiner output.  The both-arms
    reading is test + aux + 2 cross.  Each run reads J's 8 real numbers (and
    K's, when K is one per run) against every setting's forms in one
    vector-matrix product of its own, so its readings do not depend on the
    other runs; a K per reading is read setting by setting.  Under detector
    noise every reading is clamped at 0.  Without it, only a jittered K can
    make a both-arms reading negative, which raises DomainError: its Gaussian
    law does not hold at so few realizations."""
    pol_a = polarizer_matrix(polarizer_axis(basis, pol), extinction)
    pol_s = polarizer_matrix(polarizer_axis(basis, strip), extinction)
    test_chain, _ = beamsplitter_split(pol_a)           # split transmit, polarizer a
    _, aux_chain = beamsplitter_split(_mul(pol_a, pol_s))  # split reflect, polarizers s then a
    zero = np.zeros(aux_chain.shape)
    out_aux = beamsplitter_combine(aux_chain, zero)
    out_test = beamsplitter_combine(zero, test_chain)
    # each setting's forms F as the 8 numbers (Re F, -Im F) of conj(F); a product reads the
    # contiguous (8, M) array of them about twice as fast as its transposed view
    arms = np.stack([_mul(c.swapaxes(-1, -2), c.conj()) / 2.0 for c in (test_chain, aux_chain)])
    shuttered = np.ascontiguousarray(_re_im(arms).reshape(-1, 8).T)  # test forms, aux forms
    cross_form = _re_im(_mul(out_aux.swapaxes(-1, -2), out_test.conj()))
    jf, kf = _re_im(j), _re_im(k)
    test, aux = np.moveaxis((jf[:, None] @ shuttered).reshape(len(j), 2, -1), 1, 0)
    if kf.ndim == 2:
        cross = (kf[:, None] @ np.ascontiguousarray(cross_form.T))[:, 0]
    else:
        cross = np.einsum("rmf,mf->rm", kf, cross_form)
    readings = np.stack([test + aux + 2.0 * cross, test, aux])
    if offsets.any():
        readings = np.maximum(readings + np.moveaxis(offsets, -1, 0), 0.0)
    if np.min(readings[0], initial=0.0) < 0.0:
        raise DomainError("phase jitter made a both-arms reading negative: the Gaussian law of "
                          "the jittered moments K does not hold at this realization count")
    readings[1:] *= 2.0
    return np.moveaxis(readings, 0, -1)


def probabilities_from_triples(triples, beam) -> np.ndarray:
    """Joint probabilities (..., 4), ordered p11 .. p22, from shutter triples.

    ``triples`` has shape (..., 4, 3): for each (a, b) pair, the triple
    (i_total, i_test, i_aux) of each of its four outcomes, in p11 .. p22 order,
    as read in a lab or as :func:`measure_intensities` returns one.  ``beam``
    is the test-beam intensity I entering the arm (half the source power for
    a 50:50 input splitter); it broadcasts against (...).  Each outcome gives

        P = (2 I_total - I_aux - I_test)^2 / (4 I I_aux),

    computed from the readings in units of I, so that triples and beam scaled
    together by any factor give the same P.  An outcome whose auxiliary
    reading is at most 1e-15 I has its polarizer crossed with its stripping
    polarizer: no light reaches the auxiliary arm and the formula degenerates
    to 0/0.  The two stripping angles of a pair are never mutually crossed, so
    such an outcome is recovered from its partner (k, l'), as the lab does:
    P_kl = I_test / I - P_kl', with the marginal P(u_k^a) read off its own
    test arm, clipped to [0, 1].

    Raises
    ------
    DomainError
        If ``triples`` is not of shape (..., 4, 3), ``beam`` does not
        broadcast to its (...), a reading or I is not real, finite and >= 0,
        or I is 0.
    ExtractionError
        If a probability exceeds 1 by more than 1e-6, which indicates a
        convention bug rather than rounding; values in (1, 1 + 1e-6] are
        clamped to 1.
    StrippedBeamError
        If both outcomes (k, 1) and (k, 2) of a pair are stripped (as
        kappa2 -> 0): neither has a partner to be recovered from.
    """
    t, beam = _real_array("triples", triples), _real_array("beam", beam)
    if t.shape[-2:] != (4, 3):
        raise DomainError(f"triples must have shape (..., 4, 3), got {t.shape}")
    # a NaN is neither >= 0 nor < inf, and np.min and np.max propagate it
    if not all(np.min(x, initial=0.0) >= 0.0 and np.max(x, initial=0.0) < math.inf
               for x in (t, beam)):
        raise DomainError("readings and source intensity must be finite and >= 0")
    if np.any(beam <= 0.0):
        raise DomainError("source intensity must be positive")
    try:
        beam = np.broadcast_to(beam[..., None, None], t.shape)
    except ValueError:
        raise DomainError(f"beam of shape {beam.shape} does not broadcast to the pairs' shape "
                          f"{t.shape[:-2]} of triples of shape {t.shape}") from None
    # a stripped outcome's 0/0 is replaced below; the inf or NaN of a reading that overflows
    # in units of the beam fails the bound
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        i_total, i_test, i_aux = np.moveaxis(t / beam, -1, 0)
        d = 2.0 * i_total - i_aux - i_test
        p = d * d / (4.0 * i_aux)
    stripped = i_aux <= 1e-15
    if not np.all((p <= 1.0 + 1e-6) | stripped):
        raise ExtractionError(f"extracted probability {np.max(p[~stripped])} exceeds 1 beyond "
                              f"tolerance")
    p = np.minimum(p, 1.0)
    if np.any(stripped):
        partner = [1, 0, 3, 2]  # outcome (k, l') of outcome (k, l)
        if np.any(stripped & stripped[..., partner]):
            raise StrippedBeamError("auxiliary beam extinguished; intensity extraction undefined")
        p = np.where(stripped, np.clip(i_test - p[..., partner], 0.0, 1.0), p)
    return p


def _probabilities(stacks, sd, a, b, extinction) -> np.ndarray:
    """Joint probabilities (R, P, 4), ordered p11 .. p22, of the R runs whose
    moment stacks (J, K, offsets) :func:`_moment_stacks` built, at the P
    pairs ``a, b``: setting 4p + 2(k - 1) + (l - 1) reads outcome (k, l) of
    pair p, one shutter sequence each (see :func:`_readings`), behind
    polarizer a (k = 1) or a + pi/2 (k = 2) and the stripping angle of b for
    l = 1 or its orthogonal counterpart for l = 2.  The triples go to
    :func:`probabilities_from_triples` at each run's beam, tr J / 2."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    distinct_b, which = np.unique(b, return_inverse=True)
    strips = np.array([[f(sd.kappa1, sd.kappa2, x) for f in _STRIP] for x in distinct_b.tolist()])
    pol = np.stack([a, a, a + math.pi / 2.0, a + math.pi / 2.0], axis=-1).ravel()
    t = _readings(*stacks, LabBasis(sd.u1, sd.u2), pol, strips[which][:, [0, 1, 0, 1]].ravel(),
                  extinction)
    beam = np.trace(stacks[0], axis1=1, axis2=2).real / 2.0
    return probabilities_from_triples(t.reshape(len(t), len(a), 4, 3), beam[:, None])


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
    for angle in (a, s):
        _check_angle(angle)
    stacks = _moment_stacks(ensemble.second_moments, ensemble.n, (), noise, [_seed_base(seed)], 1)
    t = _readings(*stacks, basis, [a], [s], noise.extinction_ratio)
    return tuple(map(float, t[0, 0]))


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
    method: str = "interferometer"


def _check_resamples(resamples) -> None:
    _check_integer("bootstrap resamples", resamples, 0)
    if 0 < resamples < 10 or resamples > _MAX_RESAMPLES:
        raise DomainError(f"bootstrap resamples must be 0 or in [10, {_MAX_RESAMPLES}], "
                          f"got {resamples}")


def _measure_runs(ensemble, sd, a, b, noise, base, resamples) -> tuple[str, np.ndarray]:
    """The method and the joint probabilities (runs, P, 4), ordered p11 .. p22,
    at the P pairs of the angle arrays ``a, b``.

    With ``sd.kappa2`` at or above ``_KAPPA2_FLOOR`` the method is
    "interferometer" and there are 1 + resamples runs: run 0 reads the source,
    run r its r-th bootstrap resample.  Run r draws the noise of all its 4P
    readings, in this order, from the one stream base + (r, _NOISE_TAG) (see
    :func:`_moment_stacks`), so a reading's noise depends on its position
    among the pairs.  The R resamples draw their Bartlett factors T (see
    ``ensemble._bartlett``) from the stream base + (_BOOT_TAG,), which is not
    built when R is 0.  All runs are read in one kernel call, whatever the
    noise model, so P (1 + R) is at most 10**7 (about 2.9 GB), checked before
    anything is drawn.  ``ensemble`` is read only through its
    ``second_moments`` and ``n``.

    Below the floor the method is "closed-form": one run of
    :func:`joint_probability_kappa` at ``sd``'s weights, since every resample
    holds the weights and the settings, so its closed form is the source's.
    A noise model other than the ideal one raises DomainError there.
    """
    _check_resamples(resamples)
    if len(a) * (1 + resamples) > _MAX_PAIR_RUNS:
        raise DomainError(f"{len(a)} (a, b) pairs read in {1 + resamples} runs (1 + "
                          f"resamples) make {len(a) * (1 + resamples)} pair-runs, more than "
                          f"the limit of {_MAX_PAIR_RUNS}: use fewer grid points or resamples")
    if sd.kappa2 < _KAPPA2_FLOOR:
        if noise != NoiseModel():
            raise DomainError(f"kappa2 = {sd.kappa2:.3g} is below the floor {_KAPPA2_FLOOR:g}: "
                              f"the closed form read there applies no noise model")
        return "closed-form", joint_probability_kappa(sd.kappa1, sd.kappa2, a[:, None],
                                                      b[:, None], *np.array(_KL).T)[None]
    t = _bartlett(np.random.default_rng(base + (_BOOT_TAG,)), ensemble.n, resamples) \
        if resamples else ()
    seeds = [base + (r, _NOISE_TAG) for r in range(1 + resamples)]
    stacks = _moment_stacks(ensemble.second_moments, ensemble.n, t, noise, seeds, 4 * len(a))
    return "interferometer", _probabilities(stacks, sd, a, b, noise.extinction_ratio)


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

    With ``resamples`` > 0 (an integer in [10, 10**5]), each resample draws
    its J* from the complex Wishart law CW(n, J)/n of circular-Gaussian fields
    at the source's J, holding the settings fixed, to attach a standard error
    to each point; each resample's J* is reused across the grid.  Grid
    points times (1 + resamples) is at most 10**7, about 2.9 GB: a larger
    call raises DomainError before anything is allocated.  Below the floor
    ``_KAPPA2_FLOOR`` of ``sd.kappa2`` the curve reads the closed form (method
    "closed-form", see ``_measure_runs``), with zero error bars.
    """
    a_grid = _real_array("a_grid", a_grid)
    if a_grid.ndim != 1 or a_grid.size < 1:
        raise DomainError("a_grid must be a non-empty 1-d sequence of angles")
    _check_angle(b)
    method, ps = _measure_runs(ensemble, sd, a_grid, np.full(a_grid.size, float(b)), noise,
                               _seed_base(seed), resamples)
    c = correlation_sum(np.moveaxis(ps, -1, 0))
    c_err = np.std(c[1:], axis=0, ddof=1) if len(ps) > 1 else np.zeros(a_grid.size)
    return CorrelationCurve(a_grid, float(b), *ps[0].T, c=c[0], c_err=c_err, method=method)


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
    ``dop`` lies in [0, 1]; ``seed``, ``n`` in [2, 2**53] and ``resamples``
    (0, no bootstrap, or in [10, 10**5]) are integers.  The source's second
    moments J are drawn at unit intensity, since every output is a ratio of
    intensities, from the complex Wishart law of n circular-Gaussian
    realizations at that DOP, and each resample draws J* from the law
    CW(n, J)/n at the source's J (see ``_moment_stacks``).
    """

    dop: float
    n: int
    seed: int
    settings: AngleSettings | None = None
    noise: NoiseModel = NoiseModel()
    resamples: int = 16

    def __post_init__(self):
        _check_dop(self.dop)
        _check_integer("seed", self.seed, 0)
        _check_n(self.n)
        _check_resamples(self.resamples)


def run_bell_protocol(config: ProtocolConfig) -> BellReport:
    """Draw a source, characterize it, and evaluate the CHSH value.

    Pipeline: draw the source's second moments J from the complex Wishart
    law of n circular-Gaussian realizations at the requested DOP (one
    Bartlett draw from ``default_rng(seed)``, at a cost that does not grow
    with n), run polarization tomography for the reported DOP, take the
    Schmidt weights and basis from J's eigendecomposition (``schmidt``), pick
    angle settings (optimized unless given), measure the four joint
    probabilities per setting interferometrically, and attach bootstrap
    standard errors.

    Below the floor ``_KAPPA2_FLOOR`` of the measured kappa2 the report
    reads the closed form (method "closed-form", see ``_measure_runs``), with
    zero error bars, and a noise model other than the ideal one raises
    DomainError.
    """
    source = _draw_partially_polarized(config.dop, config.n, config.seed)
    sd = schmidt(source)

    settings = max_chsh(sd.kappa1, sd.kappa2)[1] if config.settings is None else config.settings
    pairs = settings.pairs()
    a, b = np.array(pairs).T

    method, runs = _measure_runs(source, sd, a, b, config.noise, (config.seed,),
                                 config.resamples)
    c = correlation_sum(np.moveaxis(runs, -1, 0))
    values = np.column_stack([chsh_sum(c.T), c])  # per run: chsh, then the four correlations
    errs = np.std(values[1:], axis=0, ddof=1) if len(runs) > 1 else np.zeros(5)
    results = tuple(
        SettingResult(alpha, beta, *map(float, p), c=float(c_i), c_err=float(err))
        for (alpha, beta), p, c_i, err in zip(pairs, runs[0], c[0], errs[1:])
    )
    return BellReport(
        dop=dop(tomography(source)),
        kappa1=sd.kappa1,
        kappa2=sd.kappa2,
        n=config.n,
        seed=config.seed,
        noise=config.noise,
        settings=settings,
        chsh=float(values[0, 0]),
        chsh_err=float(errs[0]),
        probabilities=results,
        method=method,
    )
