import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis import settings as hypothesis_settings

from wavebell import (
    AngleSettings,
    DomainError,
    LhvModel,
    ModelContractError,
    SHIPPED_LHV_MODELS,
    SchmidtDecomposition,
    chsh_sum,
    correlation_closed_form,
    correlation_sum,
    cosine_response_model,
    joint_probability_kappa,
    joint_probability_projected,
    kappa_from_dop,
    lhv_chsh,
    lhv_correlation,
    max_chsh,
    schmidt,
    sign_response_model,
    synthesize_partially_polarized,
    synthesize_schmidt_form,
)


def schmidt_of(dop, seed=0, n=256):
    k1, k2 = kappa_from_dop(dop)
    return schmidt(synthesize_schmidt_form(k1, k2, n=n, seed=seed))


def probabilities(sd, a, b):
    """(p11, p12, p21, p22) of joint_probability_kappa at (a, b)."""
    return [joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
            for k in (1, 2) for l in (1, 2)]


def correlation_of(sd, a, b):
    # read from the four probabilities, not from correlation_closed_form
    return correlation_sum(probabilities(sd, a, b))


def chsh_of(sd, settings):
    return chsh_sum([correlation_of(sd, a, b) for a, b in settings.pairs()])


def marginal_a(sd, a):
    """Polarization-side marginal P(u1^a) - P(u2^a) = p11 + p12 - p21 - p22 at b = 0."""
    p11, p12, p21, p22 = probabilities(sd, a, 0.0)
    return p11 + p12 - p21 - p22


class TestJointProbability:
    def test_polarized_aligned(self):
        sd = schmidt_of(1.0)
        assert joint_probability_kappa(sd.kappa1, sd.kappa2, 0.0, 0.0, 1, 1) == pytest.approx(1.0)

    def test_unpolarized_equal_angles(self):
        sd = schmidt_of(0.0)
        for a in (0.0, 0.4, 1.3):
            assert joint_probability_kappa(sd.kappa1, sd.kappa2, a, a, 1, 1) == pytest.approx(
                0.5, abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_completeness(self, seed):
        rng = np.random.default_rng(seed)
        sd = schmidt_of(float(rng.uniform(0, 1)), seed=seed)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        total = sum(
            joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l) for k in (1, 2) for l in (1, 2)
        )
        assert total == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2):
            for l in (1, 2):
                p = joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l)
                assert 0.0 <= p <= 1.0

    def test_bad_indices(self):
        sd = schmidt_of(0.5)
        with pytest.raises(DomainError):
            joint_probability_kappa(sd.kappa1, sd.kappa2, 0.0, 0.0, 0, 1)
        with pytest.raises(DomainError):
            joint_probability_kappa(sd.kappa1, sd.kappa2, 0.0, 0.0, 1, 3)

    def test_array_call_equals_scalar_calls(self):
        # bit for bit: the broadcast is the scalar formula, elementwise
        rng = np.random.default_rng(23)
        k, l = np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2])
        for dop in rng.uniform(0.0, 1.0, 5):
            k1, k2 = kappa_from_dop(float(dop))
            a, b = rng.uniform(-10.0, 10.0, (2, 50, 1))
            table = joint_probability_kappa(k1, k2, a, b, k, l)
            assert table.shape == (50, 4)
            scalar = [[joint_probability_kappa(k1, k2, float(x), float(y), int(kk), int(ll)).hex()
                       for kk, ll in zip(k, l)] for x, y in zip(a[:, 0], b[:, 0])]
            assert [[float(p).hex() for p in row] for row in table] == scalar

    def test_scalar_call_returns_a_float(self):
        assert type(joint_probability_kappa(0.8, 0.6, 0.1, 0.2, 2, 1)) is float

    @pytest.mark.parametrize("bad", [3, 1.5, math.nan])
    @pytest.mark.parametrize("side", ["k", "l"])
    def test_bad_index_in_an_array_is_named(self, side, bad):
        outcomes = {"k": np.array([1, 2]), "l": np.array([2, 1]), side: np.array([1, bad])}
        with pytest.raises(DomainError, match=r"^outcome indices k, l must each be 1 or 2, got "):
            joint_probability_kappa(0.8, 0.6, 0.1, 0.2, outcomes["k"], outcomes["l"])

    @pytest.mark.parametrize("seed", range(3))
    def test_projected_estimator_matches(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = float(rng.uniform(0.05, 0.9))
        e = synthesize_partially_polarized(d, 1.0, 4000, seed)
        sd = schmidt(e)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        for k in (1, 2):
            for l in (1, 2):
                assert joint_probability_projected(e, sd, a, b, k, l) == pytest.approx(
                    joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, l), abs=1e-12
                )


class TestCorrelation:
    def test_aligned_unit(self):
        sd = schmidt_of(0.125)
        assert correlation_of(sd, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_unpolarized_cosine(self):
        sd = schmidt_of(0.0)
        for a, b in [(0.0, 0.3), (1.2, -0.4), (2.0, 2.0)]:
            assert correlation_of(sd, a, b) == pytest.approx(
                math.cos(2 * (a - b)), abs=1e-12
            )

    def test_frozen_reference_value(self):
        # 2 kappa1 kappa2 = 2 * 0.75 * sqrt(7) / 4 at the weights of DOP 0.125
        value = correlation_closed_form(0.75, math.sqrt(7.0) / 4.0, math.pi / 4, math.pi / 4)
        assert value == pytest.approx(0.9921567416492, abs=1e-12)
        sd = schmidt_of(0.125)
        assert correlation_of(sd, math.pi / 4, math.pi / 4) == pytest.approx(
            2 * sd.kappa1 * sd.kappa2, abs=1e-12
        )

    def test_closed_form_equivalence_grid(self):
        sd = schmidt_of(0.55, seed=2)
        grid = np.linspace(-math.pi, math.pi, 100)
        worst = 0.0
        for a in grid:
            for b in grid:
                worst = max(
                    worst,
                    abs(
                        correlation_of(sd, a, b)
                        - correlation_closed_form(sd.kappa1, sd.kappa2, a, b)
                    ),
                )
        assert worst < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetries(self, seed):
        rng = np.random.default_rng(seed)
        sd = schmidt_of(float(rng.uniform(0, 1)), seed=seed)
        a, b = rng.uniform(-math.pi, math.pi, 2)
        assert correlation_of(sd, a + math.pi, b) == pytest.approx(
            correlation_of(sd, a, b), abs=1e-12
        )
        assert correlation_of(sd, -a, -b) == pytest.approx(
            correlation_of(sd, a, b), abs=1e-12
        )

    def test_bounded(self):
        sd = schmidt_of(0.35, seed=5)
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(-5, 5, 2)
            assert abs(correlation_of(sd, a, b)) <= 1.0 + 1e-12


class TestNoSignaling:
    def test_lab_marginal_independent_of_b(self):
        sd = schmidt_of(0.125)
        grid = np.linspace(0, math.pi, 20, endpoint=False)
        for a in grid:
            expected = sd.kappa1**2 * math.cos(a) ** 2 + sd.kappa2**2 * math.sin(a) ** 2
            for b in grid:
                m = sum(joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, 1, l) for l in (1, 2))
                assert m == pytest.approx(expected, abs=1e-12)

    def test_function_marginal_independent_of_a(self):
        sd = schmidt_of(0.125)
        grid = np.linspace(0, math.pi, 20, endpoint=False)
        for b in grid:
            ref = sum(joint_probability_kappa(sd.kappa1, sd.kappa2, 0.123, b, k, 1) for k in (1, 2))
            for a in grid:
                m = sum(joint_probability_kappa(sd.kappa1, sd.kappa2, a, b, k, 1) for k in (1, 2))
                assert m == pytest.approx(ref, abs=1e-12)


class TestMarginal:
    def test_fully_polarized(self):
        sd = schmidt_of(1.0)
        assert marginal_a(sd, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_unpolarized_vanishes(self):
        sd = schmidt_of(0.0)
        for a in np.linspace(0, math.pi, 7):
            assert marginal_a(sd, float(a)) == pytest.approx(0.0, abs=1e-12)

    def test_equals_dop_at_zero(self):
        sd = schmidt_of(0.125)
        assert marginal_a(sd, 0.0) == pytest.approx(0.125, abs=1e-12)

    def test_closed_form(self):
        sd = schmidt_of(0.6)
        for a in np.linspace(-2, 2, 9):
            expected = (sd.kappa1**2 - sd.kappa2**2) * math.cos(2 * a)
            assert marginal_a(sd, float(a)) == pytest.approx(expected, abs=1e-12)
            assert abs(marginal_a(sd, float(a))) <= 1.0


class TestChsh:
    def test_all_zero_angles(self):
        sd = schmidt_of(0.125)
        settings = AngleSettings(0.0, 0.0, 0.0, 0.0)
        assert chsh_of(sd, settings) == pytest.approx(2.0, abs=1e-12)

    def test_standard_angles_unpolarized(self):
        sd = schmidt_of(0.0)
        settings = AngleSettings(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
        assert chsh_of(sd, settings) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_maximum_at_dop_oneeighth(self):
        k1, k2 = kappa_from_dop(0.125)
        value, settings = max_chsh(k1, k2)
        assert value == pytest.approx(2.817356917396161, abs=1e-9)
        assert abs(value - 2.817) < 1e-3
        sd = schmidt_of(0.125)
        assert chsh_of(sd, settings) == pytest.approx(value, abs=1e-9)

    def test_unpolarized_maximum(self):
        value, _ = max_chsh(2**-0.5, 2**-0.5)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_separable_maximum(self):
        value, _ = max_chsh(1.0, 0.0)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_grid_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = float(rng.uniform(0, 1))
            value, _ = max_chsh(*kappa_from_dop(d))
            assert value == pytest.approx(2.0 * math.sqrt(2.0 - d**2), abs=1e-12)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        dop=st.floats(0.0, 1.0),
        angles=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    )
    def test_max_chsh_is_the_optimum(self, dop, angles):
        # chsh_of reads the four probabilities of joint_probability_kappa, not the closed form
        k1, k2 = kappa_from_dop(dop)
        sd = SchmidtDecomposition(kappa1=k1, kappa2=k2, u1=np.array([1, 0j]),
                                  u2=np.array([0j, 1]), intensity=1.0)
        value, best = max_chsh(k1, k2)
        h = 0.5 * math.atan(2.0 * k1 * k2)
        assert best == AngleSettings(math.pi / 4, 0.0, h, -h)
        assert abs(chsh_of(sd, best) - value) <= 1e-12
        assert chsh_of(sd, AngleSettings(*angles)) <= value + 1e-12

    def test_tsirelson_analog_bound(self):
        rng = np.random.default_rng(4)
        bound = 2 * math.sqrt(2) + 1e-9
        for _ in range(50):
            k1, k2 = kappa_from_dop(float(rng.uniform(0, 1)))
            value, _ = max_chsh(k1, k2)
            assert value <= bound


class TestAngleSettings:
    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("angle", [np.array([0.1, 0.2]), np.array(0.1), 0.1j, "0.1"],
                             ids=["array", "0-d-array", "complex", "text"])
    def test_non_scalar_angle_refused(self, position, angle):
        # an array angle used to pass, then fail inside run_bell_protocol
        angles = [0.1] * 4
        angles[position] = angle
        name = ("a", "a_prime", "b", "b_prime")[position]
        with pytest.raises(DomainError, match=f"^angle {name} must be a real scalar, got "):
            AngleSettings(*angles)

    def test_numpy_and_integer_scalars_pass(self):
        # validate unpacks np.float64 angles from rng.uniform
        settings = AngleSettings(*np.random.default_rng(0).uniform(0.0, math.pi, 4))
        assert AngleSettings(np.float32(0.5), 1, np.int64(0), settings.b).a == 0.5


class TestLhv:
    def test_constant_model(self):
        model = LhvModel(
            outcome_a=lambda a, lam: np.ones_like(lam),
            outcome_b=lambda b, lam: np.ones_like(lam),
            lambda_sampler=lambda rng, size: rng.uniform(0, 1, size),
        )
        assert lhv_correlation(model, 0.1, 0.2, 1000, 0) == pytest.approx(1.0)

    def test_scalar_responses_count_once_per_sample(self):
        # over more than one block, as over one
        model = LhvModel(outcome_a=lambda a, lam: 1.0, outcome_b=lambda b, lam: -0.5,
                         lambda_sampler=lambda rng, size: rng.uniform(0, 1, size))
        assert lhv_correlation(model, 0.1, 0.2, 20_000, 0) == -0.5

    def test_cosine_model_against_quadrature(self):
        # independent oracle: periodic trapezoid average over the hidden angle
        lam = np.linspace(0.0, math.pi, 20001, endpoint=False)
        model = cosine_response_model()
        n = 400_000
        for a, b in [(0.0, 0.0), (0.3, 1.1), (1.0, 0.25)]:
            oracle = float(np.mean(np.cos(2 * (a - lam)) * np.cos(2 * (b - lam))))
            assert oracle == pytest.approx(0.5 * math.cos(2 * (a - b)), abs=1e-9)
            est = lhv_correlation(model, a, b, n, 1)
            assert abs(est - oracle) < 4.0 / math.sqrt(n)

    def test_deterministic(self):
        model = cosine_response_model()
        assert lhv_correlation(model, 0.3, 0.9, 5000, 7) == lhv_correlation(
            model, 0.3, 0.9, 5000, 7
        )

    def test_contract_violation_detected(self):
        model = LhvModel(
            outcome_a=lambda a, lam: 1.5 * np.ones_like(lam),
            outcome_b=lambda b, lam: np.ones_like(lam),
            lambda_sampler=lambda rng, size: rng.uniform(0, 1, size),
        )
        with pytest.raises(ModelContractError):
            lhv_correlation(model, 0.0, 0.0, 100, 0)

    # a response may leave [-1, 1] by 1e-9, not more: at that bound and inside it by 1e-10
    # it passes, past it by 1e-8 it fails, above 1 and below -1
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("excess, ok", [(1e-9, True), (1e-10, True), (1e-8, False)])
    def test_response_bound_has_both_sides(self, sign, excess, ok):
        value = sign * (1.0 + excess)
        model = LhvModel(outcome_a=lambda a, lam: np.full_like(lam, value),
                         outcome_b=lambda b, lam: np.ones_like(lam),
                         lambda_sampler=lambda rng, size: rng.uniform(0, 1, size))
        if ok:
            assert lhv_correlation(model, 0.0, 0.0, 100, 0) == pytest.approx(value, rel=1e-15)
        else:
            with pytest.raises(ModelContractError, match="^outcome_a response left"):
                lhv_correlation(model, 0.0, 0.0, 100, 0)

    @pytest.mark.parametrize("side", ["outcome_a", "outcome_b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_response_detected(self, side, bad):
        # a NaN compares False against the bound, so it needs its own case
        responses = {"outcome_a": lambda a, lam: np.ones_like(lam),
                     "outcome_b": lambda b, lam: np.ones_like(lam)}
        responses[side] = lambda angle, lam: np.where(lam > 0.5, bad, 0.0)
        model = LhvModel(**responses, lambda_sampler=lambda rng, size: rng.uniform(0, 1, size))
        with pytest.raises(ModelContractError):
            lhv_correlation(model, 0.0, 0.0, 100, 0)

    @pytest.mark.parametrize("side", ["outcome_a", "outcome_b"])
    @pytest.mark.parametrize("shape", [(5,), (2, 100), (1, 1)])
    def test_wrong_shape_response_names_both_shapes(self, side, shape):
        responses = {"outcome_a": lambda a, lam: np.ones_like(lam),
                     "outcome_b": lambda b, lam: np.ones_like(lam)}
        responses[side] = lambda angle, lam: np.zeros(shape)
        model = LhvModel(**responses, lambda_sampler=lambda rng, size: rng.uniform(0, 1, size))
        with pytest.raises(ModelContractError) as exc:
            lhv_correlation(model, 0.0, 0.0, 100, 0)
        assert str(exc.value) == (f"{side} response has shape {shape}, which does not "
                                  "broadcast to the samples' shape (100,)")

    def test_sample_count_domain(self):
        with pytest.raises(DomainError):
            lhv_correlation(cosine_response_model(), 0, 0, 0, 0)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_shipped_models_respect_bound(self, name):
        model = SHIPPED_LHV_MODELS[name]()
        rng = np.random.default_rng(11)
        n = 40_000
        bound = 2.0 + 5.0 / math.sqrt(n)
        for t in range(12):
            settings = AngleSettings(*rng.uniform(0, math.pi, 4))
            assert abs(lhv_chsh(model, settings, n, (13, t))) <= bound

    def test_sign_model_sawtooth(self):
        # classic deterministic-model correlation: 1 - 4|a-b|/pi on [0, pi/2]
        model = sign_response_model()
        n = 300_000
        for delta in (0.2, 0.7, 1.2):
            est = lhv_correlation(model, delta, 0.0, n, 3)
            assert est == pytest.approx(1 - 4 * delta / math.pi, abs=4.0 / math.sqrt(n))


# the shipped responses on numpy's cos 2x: the reference for the models,
# which read cos 2x through tan x
NP_COS_RESPONSES = {
    "cosine": lambda angle, lam: np.cos(2.0 * (angle - lam)),
    "sign": lambda angle, lam: np.where(np.cos(2.0 * (angle - lam)) >= 0.0, 1.0, -1.0),
}


def reference_lhv_chsh(response, settings, n, seed):
    """lhv_chsh written out on the streams it draws from: correlation i
    samples lambda uniform on [0, pi) from default_rng((seed, i))."""
    c = []
    for i, (a, b) in enumerate(settings.pairs()):
        lam = np.random.default_rng((seed, i)).uniform(0.0, math.pi, n)
        c.append(np.mean(response(a, lam) * response(b, lam)))
    return c[0] - c[1] + c[2] + c[3]


class TestResponseIdentity:
    """Both shipped models read cos 2x through t = tan x: the cosine model as
    (1 - t^2) / (1 + t^2), the sign model as |t| <= 1."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(19)
        zeros = math.pi / 4 + math.pi / 2 * rng.integers(-4, 4, 200_000)
        return np.concatenate([
            rng.uniform(-math.pi, math.pi, 1_000_000),
            rng.uniform(-1e6, 1e6, 200_000),
            # beside the zeros of cos 2x, where the sign flips
            zeros + rng.uniform(-1e-14, 1e-14, zeros.size),
            math.pi / 4 + math.pi / 2 * rng.integers(-600_000, 600_000, 100_000),
        ])

    def test_cosine_response(self, points):
        # 0 - (-x) is x exactly, so the model sees the reference's argument
        v = cosine_response_model().outcome_a(0.0, -points)
        assert np.max(np.abs(v - np.cos(2.0 * points))) <= 4.5e-16
        assert np.max(np.abs(v)) <= 1.0 + 1e-15

    def test_sign_response(self, points):
        v = sign_response_model().outcome_a(0.0, -points)
        reference = np.cos(2.0 * points)
        expected = np.where(reference >= 0.0, 1.0, -1.0)  # np.sign with 0 read as +1
        clear = np.abs(reference) > 1e-15
        assert np.count_nonzero(~clear) > 1000  # the zeros are sampled
        assert np.array_equal(v[clear], expected[clear])
        assert np.all(np.abs(v) == 1.0)

    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_nan_hidden_variable_fails_the_contract(self, name):
        shipped = SHIPPED_LHV_MODELS[name]()
        model = LhvModel(shipped.outcome_a, shipped.outcome_b,
                         lambda rng, size: np.where(rng.uniform(size=size) < 0.5, np.nan, 0.3))
        with pytest.raises(ModelContractError):
            lhv_correlation(model, 0.1, 0.2, 100, 0)

    def test_scalar_hidden_variable(self):
        assert cosine_response_model().outcome_b(0.3, 0.5) == pytest.approx(math.cos(-0.4),
                                                                           abs=1e-15)
        assert sign_response_model().outcome_b(0.3, 1.5) == -1.0


def recording(model, n, nan_last=False):
    """``model`` with a sampler that records each call's size and, with
    ``nan_last``, makes the n-th hidden variable NaN."""
    sizes = []

    def sampler(rng, size):
        lam = model.lambda_sampler(rng, size)
        sizes.append(size)
        if nan_last and sum(sizes) == n:
            lam[-1] = np.nan
        return lam

    return LhvModel(model.outcome_a, model.outcome_b, sampler), sizes


class TestBlockedCorrelation:
    """lhv_correlation draws and sums its samples in blocks of at most 8192."""

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 100_000])
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_matches_unblocked_mean(self, name, n):
        shipped = SHIPPED_LHV_MODELS[name]()
        model, sizes = recording(shipped, n)
        a, b = 0.4, 1.3
        value = lhv_correlation(model, a, b, n, (5, 2))
        assert all(1 <= size <= 8192 for size in sizes) and sum(sizes) == n
        # one call on the same stream, one mean over all n samples
        lam = np.random.default_rng((5, 2)).uniform(0.0, math.pi, n)
        reference = float(np.mean(shipped.outcome_a(a, lam) * shipped.outcome_b(b, lam)))
        if name == "sign":
            assert value == reference
        else:
            assert abs(value - reference) <= 1e-15

    @pytest.mark.parametrize("n", [8193, 20_000])
    @pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
    def test_nan_in_last_partial_block_fails_the_contract(self, name, n):
        model, sizes = recording(SHIPPED_LHV_MODELS[name](), n, nan_last=True)
        with pytest.raises(ModelContractError):
            lhv_correlation(model, 0.1, 0.2, n, 0)
        assert sum(sizes) == n and sizes[-1] < 8192


@pytest.mark.parametrize("seed", [0, (7, 5, 3)], ids=["seed-0", "seed-7-5-3"])
@pytest.mark.parametrize("name", sorted(SHIPPED_LHV_MODELS))
def test_lhv_chsh_matches_np_cos_reference(name, seed):
    model, response = SHIPPED_LHV_MODELS[name](), NP_COS_RESPONSES[name]
    rng = np.random.default_rng(23)
    for _ in range(8):
        settings = AngleSettings(*rng.uniform(0.0, math.pi, 4))
        value = lhv_chsh(model, settings, 100_000, seed)
        reference = reference_lhv_chsh(response, settings, 100_000, seed)
        if name == "sign":
            assert value == reference
        else:
            assert abs(value - reference) <= 1e-14


def test_joint_probability_kappa_matches_direct():
    # the squared amplitudes of the Schmidt form, written out
    sd = schmidt_of(0.3, seed=9)
    k1, k2, a, b = sd.kappa1, sd.kappa2, 0.4, 1.1
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    direct = {(1, 1): k1 * ca * cb + k2 * sa * sb, (1, 2): k1 * ca * sb - k2 * sa * cb,
              (2, 1): k1 * sa * cb - k2 * ca * sb, (2, 2): k1 * sa * sb + k2 * ca * cb}
    for (k, l), amp in direct.items():
        assert joint_probability_kappa(k1, k2, a, b, k, l) == pytest.approx(amp**2, abs=1e-15)
