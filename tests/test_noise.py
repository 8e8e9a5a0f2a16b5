"""Noise models: quantization semantics, stream determinism, l1 levels."""
import numpy as np
import pytest

from dlsq.datasets import make_shards, synthesize_problem
from dlsq.noise import (
    NoProcessNoise,
    ObservationNoise,
    RoundoffProcessNoise,
    STREAM_K,
    STREAM_X,
    UniformProcessNoise,
    apply_observation_noise,
    observation_eta,
    realized_l1,
    roundoff,
    stream_generator,
    uniform_abs_mean,
)


# -- rounding ----------------------------------------------------------------


def test_roundoff_reference_pair():
    # frozen reference: 4-decimal quantization, ties away from zero
    np.testing.assert_array_equal(
        roundoff(np.array([0.12344999, -1.00005]), 4),
        np.array([0.1234, -1.0001]),
    )


def test_roundoff_scalar_and_shape():
    assert roundoff(2.71828, 4) == 2.7183
    assert roundoff(-2.71828, 4) == -2.7183
    M = roundoff(np.full((3, 3), 0.00006), 4)
    np.testing.assert_array_equal(M, np.full((3, 3), 0.0001))


def test_roundoff_half_away_from_zero_both_signs():
    assert roundoff(0.5, 0) == 1.0
    assert roundoff(-0.5, 0) == -1.0
    assert roundoff(1.5, 0) == 2.0
    assert roundoff(-2.5, 0) == -3.0


def test_roundoff_error_never_exceeds_half_quantum(rng):
    v = rng.uniform(-10, 10, 10_000)
    err = np.abs(roundoff(v, 4) - v)
    assert err.max() <= 0.5 * 1e-4 + 1e-15


def test_roundoff_process_model_is_deterministic():
    model = RoundoffProcessNoise(decimals=4)
    v = np.array([1.23456789, -0.00004999])
    a = model.corrupt(v, STREAM_X, 3)
    b = model.corrupt(v, STREAM_X, 900)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, [1.2346, 0.0])


def test_roundoff_l1_bound():
    assert RoundoffProcessNoise(decimals=4).l1_bound(188) == pytest.approx(188 * 0.5e-4)


def test_roundoff_mean_error_quarter_quantum(rng):
    # mean |round error| for uniformly distributed entries is q/4
    d = 188
    model = RoundoffProcessNoise(decimals=4)
    samples = []
    for _ in range(400):
        v = rng.uniform(-1, 1, d)
        samples.append(model.corrupt(v, STREAM_X, 0) - v)
    level = float(np.mean([np.abs(w).sum() for w in samples]))
    assert level == pytest.approx(188 * 0.25e-4, rel=0.05)


# -- streams -----------------------------------------------------------------


def test_stream_generator_reproducible():
    a = stream_generator(42, STREAM_X, 7).uniform(size=5)
    b = stream_generator(42, STREAM_X, 7).uniform(size=5)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_keys():
    base = stream_generator(42, STREAM_X, 7).uniform(size=5)
    assert not np.array_equal(base, stream_generator(43, STREAM_X, 7).uniform(size=5))
    assert not np.array_equal(base, stream_generator(42, STREAM_K, 7).uniform(size=5))
    assert not np.array_equal(base, stream_generator(42, STREAM_X, 8).uniform(size=5))


def test_successive_iterations_uncorrelated():
    n = 10_000
    a = np.array([stream_generator(1, STREAM_X, t).uniform() for t in range(n)])
    b = np.array([stream_generator(1, STREAM_X, t + 1).uniform() for t in range(n)])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.05


def test_uniform_process_noise_range_and_freshness():
    model = UniformProcessNoise(seed=5, low=0.0, high=1e-3)
    v = np.zeros(50)
    w1 = model.corrupt(v, STREAM_X, 1)
    w2 = model.corrupt(v, STREAM_X, 2)
    assert np.all(w1 >= 0.0) and np.all(w1 < 1e-3)
    assert not np.array_equal(w1, w2)
    np.testing.assert_array_equal(w1, model.corrupt(v, STREAM_X, 1))


def test_no_process_noise_is_identity():
    v = np.arange(4.0)
    out = NoProcessNoise().corrupt(v, STREAM_X, 0)
    assert out is v
    assert NoProcessNoise().l1_bound(100) == 0.0


# -- expectations ------------------------------------------------------------


def test_uniform_abs_mean_closed_forms():
    assert uniform_abs_mean(-0.25, 0.25) == pytest.approx(0.125)
    assert uniform_abs_mean(0.0, 5e-5) == pytest.approx(2.5e-5)
    # straddling interval: E|U(-1, 3)| = (1 + 9) / (2 * 4)
    assert uniform_abs_mean(-1.0, 3.0) == pytest.approx(10.0 / 8.0)


def test_uniform_abs_mean_monte_carlo(rng):
    draws = rng.uniform(-0.25, 0.25, 2_000_000)
    assert np.abs(draws).mean() == pytest.approx(uniform_abs_mean(-0.25, 0.25), rel=1e-2)


def test_observation_expected_l1_61_rows():
    # E[l1] for 61 entries of U(-0.25, 0.25) = 61 * 0.125
    assert ObservationNoise(0.25).expected_l1(61) == pytest.approx(7.625)


def test_uniform_process_l1_bound_gr_convention():
    model = UniformProcessNoise(seed=0, low=0.0, high=5e-5)
    assert model.l1_bound(900) == pytest.approx(0.0225)


# -- observation application --------------------------------------------------


def test_apply_observation_noise_levels_and_determinism():
    ds = synthesize_problem(61 * 2, 6, cond=3.0, seed=0)
    shards = make_shards(ds, 2)
    model = ObservationNoise(0.25)
    noisy, realized = apply_observation_noise(shards, seed=9, model=model)

    for sh, nsh, real in zip(shards, noisy, realized):
        w = nsh.b - sh.b
        assert np.all(np.abs(w) < 0.25)
        assert real == pytest.approx(np.abs(w).sum())
        assert np.array_equal(nsh.A, sh.A)

    again, realized2 = apply_observation_noise(shards, seed=9, model=model)
    for a, b in zip(noisy, again):
        np.testing.assert_array_equal(a.b, b.b)
    assert realized == realized2

    other, _ = apply_observation_noise(shards, seed=10, model=model)
    assert not np.array_equal(noisy[0].b, other[0].b)


def test_observation_draws_differ_across_agents():
    ds = synthesize_problem(40, 4, cond=2.0, seed=1)
    shards = make_shards(ds, 2)
    noisy, _ = apply_observation_noise(shards, seed=3, model=ObservationNoise(0.1))
    w0 = noisy[0].b - shards[0].b
    w1 = noisy[1].b - shards[1].b
    assert not np.array_equal(w0, w1)


def test_zero_half_width_is_exact():
    ds = synthesize_problem(20, 4, cond=2.0, seed=1)
    shards = make_shards(ds, 2)
    noisy, realized = apply_observation_noise(shards, seed=3, model=ObservationNoise(0.0))
    np.testing.assert_array_equal(noisy[0].b, shards[0].b)
    assert realized == [0.0, 0.0]
    assert observation_eta(ObservationNoise(0.0), 20, 2) == 0.0


def test_observation_eta_is_expected_l1_at_largest_shard():
    # 122 rows over 2 agents: 61 rows each, 61 * 0.25 / 2
    assert observation_eta(ObservationNoise(0.25), 122, 2) == pytest.approx(7.625)
    # 60 rows over 7 agents: shards of 9 and 8 rows, the level is the 9-row one
    model = ObservationNoise(0.05)
    shards = make_shards(synthesize_problem(60, 4, cond=2.0, seed=1), 7)
    assert observation_eta(model, 60, 7) == max(model.expected_l1(sh.n_rows) for sh in shards)
    assert observation_eta(model, 60, 7) == model.expected_l1(9)


def test_realized_l1_helper():
    assert realized_l1(np.array([1.0, -2.0]), np.array([1.5, -2.5])) == pytest.approx(1.0)
