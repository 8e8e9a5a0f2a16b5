"""Noise models: quantization semantics, stream determinism, l1 levels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsq import noise
from dlsq.datasets import make_shards, partition_rows, synthesize_problem
from dlsq.noise import (
    NoProcessNoise,
    ObservationNoise,
    RoundoffProcessNoise,
    STREAM_K,
    STREAM_X,
    UniformProcessNoise,
    apply_observation_noise,
    stream_generator,
    uniform_abs_mean,
)


# -- rounding ----------------------------------------------------------------


def roundoff(v, decimals):
    """v rounded by RoundoffProcessNoise(decimals) on a float64 copy; a
    float when v is a scalar."""
    out = np.array(v, dtype=np.float64)
    RoundoffProcessNoise(decimals=decimals).corrupt(out, STREAM_X, 0)
    return float(out) if out.ndim == 0 else out


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


def _round_half_away_reference(v, scale):
    """The reference kernel: floor(|v| scale + 0.5) with v's sign, over scale."""
    out = np.empty_like(v)
    np.abs(v, out=out)
    out *= scale
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, v, out=out)
    out /= scale
    return out


def _edge_values(decimals, rng):
    """Signed zeros, infinities, nans, subnormals, the float range's ends,
    exact half-quanta and their neighbours, and values of every magnitude."""
    s = 10.0**decimals
    tiny = np.finfo(float).smallest_subnormal
    halves = (np.arange(-300, 300) + 0.5) / s
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 3 * tiny,
               np.finfo(float).tiny, -np.finfo(float).tiny, np.finfo(float).max,
               -np.finfo(float).max, 0.49999999999999994 / s, -0.49999999999999994 / s,
               2.0**52 / s, 2.0**53 / s + 1.0]
    magnitudes = 10.0 ** rng.uniform(-324, 308, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    near_grid = rng.integers(-10**6, 10**6, 20_000) / (2 * s)
    return np.concatenate([special, halves, np.nextafter(halves, np.inf),
                           np.nextafter(halves, -np.inf), magnitudes, near_grid])


@pytest.mark.parametrize("decimals", [-300, -20, -4, 0, 1, 4, 8, 16, 300])
def test_roundoff_in_place_and_reference_give_the_same_bits(use_helpers, rng, decimals):
    values = _edge_values(decimals, rng)
    # every value at least once in 450 x 500 entries, which are split over
    # the helpers by rows
    v = np.resize(values, (450, 500))
    model = RoundoffProcessNoise(decimals=decimals)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _round_half_away_reference(v, 10.0**decimals)
        inplace = v.copy()
        l1 = model.corrupt(inplace, STREAM_K, 0)
        flat = values.copy()
        flat_l1 = model.corrupt(flat, STREAM_X, 0)
        flat_want = _round_half_away_reference(values, 10.0**decimals)
        # by rows, then over the rows; a 1-D variable's rows are its entries
        l1_want = np.abs(want - v).sum(axis=1).sum()
        flat_l1_want = np.abs(flat_want - values).sum()
    for got, ref in ((inplace, want), (flat, flat_want)):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for got, ref in ((l1, l1_want), (flat_l1, flat_l1_want)):
        assert type(got) is float
        assert got == ref or np.isnan(got) and np.isnan(ref)
    # inf and nan survive the rounding, so the divergence guard still sees them
    assert np.array_equal(np.isnan(inplace), np.isnan(v))
    assert np.all(inplace[np.isinf(v)] == v[np.isinf(v)])
    assert roundoff(-0.0, decimals) == 0.0 and np.signbit(roundoff(-0.0, decimals))


def test_roundoff_row_blocks_write_their_own_rows_only(monkeypatch):
    # uneven blocks, run last first, with kernel passes of two rows that
    # straddle the block ends; the variable and the row sums of |after -
    # before| change only in the block
    v = np.linspace(-3.0, 3.0, 28).reshape(7, 4) + 1e-5
    want = _round_half_away_reference(v, 10.0)
    w = v.copy()
    row_sums = []

    class Numpy:
        """numpy, but np.empty(7), the kernel's vector of row sums, is
        noted and set to nan, so it can be watched as it is filled."""

        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, *args, **kwargs):
            out = np.empty(shape, *args, **kwargs)
            if shape == 7:
                out[:] = np.nan
                row_sums.append(out)
            return out

    def blocks(fn, shape):
        (sums,) = row_sums
        for lo, hi in [(4, 7), (1, 4), (0, 1)]:
            before = w.copy(), sums.copy()
            fn(lo, hi)
            outside = np.ones(shape[0], bool)
            outside[lo:hi] = False
            for now, was in zip((w, sums), before):
                assert np.array_equal(now[outside], was[outside], equal_nan=True)
                assert not np.array_equal(now[lo:hi], was[lo:hi], equal_nan=True)

    monkeypatch.setattr(noise, "np", Numpy())
    monkeypatch.setattr(noise, "in_row_blocks", blocks)
    monkeypatch.setattr(noise, "_ROUND_ENTRIES", 9)
    l1 = RoundoffProcessNoise(decimals=1).corrupt(w, STREAM_K, 0)
    assert np.array_equal(w, want)
    assert np.array_equal(row_sums[0], np.abs(want - v).sum(axis=1))
    assert l1 == np.abs(want - v).sum(axis=1).sum()


def test_process_models_corrupt_in_place_and_write_l1():
    # every model overwrites v and returns the l1 of the change as a float
    v = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    draws = stream_generator(2, STREAM_K, 5).uniform(-1, 1, v.shape)
    for model, want in ((RoundoffProcessNoise(decimals=1), _round_half_away_reference(v, 10.0)),
                        (UniformProcessNoise(seed=2, low=-1, high=1), v + draws),
                        (NoProcessNoise(), v)):
        inplace = v.copy()
        l1 = model.corrupt(inplace, STREAM_K, 5)
        assert type(l1) is float
        assert np.array_equal(inplace, want)
        assert l1 == np.abs(want - v).sum(axis=1).sum()
        scalar = np.array(v[1, 2])
        assert model.corrupt(scalar, STREAM_X, 5) == np.abs(scalar - v[1, 2]).sum()


@pytest.mark.parametrize("entries", [9, 4001, 77_777])
def test_corrupt_l1_does_not_depend_on_the_row_split(use_helpers, monkeypatch, rng, entries):
    # 900 x 900 goes over the helpers by rows (network.ENTRY_FLOPS); kernel
    # passes of odd sizes straddle the block ends
    monkeypatch.setattr(noise, "_ROUND_ENTRIES", entries)
    v = rng.uniform(-1.0, 1.0, (900, 900))
    for model in (RoundoffProcessNoise(decimals=3), UniformProcessNoise(seed=4, low=-1, high=2)):
        results = []
        for helpers in (True, False):
            use_helpers(helpers)
            w = v.copy()
            results.append((model.corrupt(w, STREAM_K, 1), w))
        (l1, w), (pinned_l1, pinned_w) = results
        assert np.array_equal(w, pinned_w)
        assert l1 == pinned_l1 == np.abs(w - v).sum(axis=1).sum()


def test_roundoff_process_model_is_deterministic():
    model = RoundoffProcessNoise(decimals=4)
    v = np.array([1.23456789, -0.00004999])
    a, b = v.copy(), v.copy()
    assert model.corrupt(a, STREAM_X, 3) == model.corrupt(b, STREAM_X, 900)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, [1.2346, 0.0])


def test_roundoff_l1_bound():
    assert RoundoffProcessNoise(decimals=4).l1_bound(188) == pytest.approx(188 * 0.5e-4)


def test_roundoff_mean_error_quarter_quantum(rng):
    # mean |round error| for uniformly distributed entries is q/4
    d = 188
    model = RoundoffProcessNoise(decimals=4)
    level = float(np.mean([model.corrupt(rng.uniform(-1, 1, d), STREAM_X, 0)
                           for _ in range(400)]))
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
    w1, w2, again = np.zeros(50), np.zeros(50), np.zeros(50)
    l1 = model.corrupt(w1, STREAM_X, 1)
    model.corrupt(w2, STREAM_X, 2)
    assert np.all(w1 >= 0.0) and np.all(w1 < 1e-3)
    assert l1 == w1.sum()
    assert not np.array_equal(w1, w2)
    assert model.corrupt(again, STREAM_X, 1) == l1
    np.testing.assert_array_equal(w1, again)


def test_no_process_noise_is_identity():
    v = np.arange(4.0)
    assert NoProcessNoise().corrupt(v, STREAM_X, 0) == 0.0
    assert np.array_equal(v, np.arange(4.0))
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
    model = ObservationNoise(0.25)
    shards = make_shards(ds, 2)
    noisy, realized = apply_observation_noise(shards, seed=9, model=model)

    for sh, nsh, real in zip(shards, noisy, realized):
        w = nsh.b - sh.b
        assert np.all(np.abs(w) < 0.25)
        # each agent's draw from its own stream, over the rows it holds
        assert np.array_equal(nsh.b, sh.b + model.draw(9, sh.agent_id, sh.n_rows))
        assert real == pytest.approx(np.abs(w).sum())
        assert nsh.A is sh.A and nsh.AT is sh.AT and nsh.prep is sh.prep
    # the shards given, and the dataset's b they view, keep the clean b
    assert all(np.shares_memory(sh.b, ds.b) for sh in shards)
    assert np.array_equal(np.concatenate([sh.b for sh in shards]), ds.A @ ds.x_star)

    again, realized2 = apply_observation_noise(shards, seed=9, model=model)
    assert all(np.array_equal(a.b, n.b) for a, n in zip(again, noisy))
    assert realized == realized2

    other, _ = apply_observation_noise(shards, seed=10, model=model)
    assert not np.array_equal(noisy[0].b, other[0].b)


def test_observation_draws_differ_across_agents():
    ds = synthesize_problem(40, 4, cond=2.0, seed=1)
    shards = make_shards(ds, 2)
    noisy, _ = apply_observation_noise(shards, seed=3, model=ObservationNoise(0.1))
    w0, w1 = (n.b - sh.b for sh, n in zip(shards, noisy))
    assert not np.array_equal(w0, w1)


def test_zero_half_width_is_exact():
    ds = synthesize_problem(20, 4, cond=2.0, seed=1)
    shards = make_shards(ds, 2)
    noisy, realized = apply_observation_noise(shards, seed=3, model=ObservationNoise(0.0))
    assert all(np.array_equal(n.b, sh.b) for sh, n in zip(shards, noisy))
    assert realized == [0.0, 0.0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_shard_noise_is_the_whole_b_formula_bit_for_bit(data):
    # the noise drawn on the shards is b.astype(float64) with each agent's
    # rows b[start:stop] += its draw, byte for byte, and realized is the l1
    # of each draw
    n_rows = data.draw(st.integers(1, 40), label="n_rows")
    m = data.draw(st.integers(1, n_rows), label="m")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    model = ObservationNoise(data.draw(
        st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_subnormal=False)), label="a"))
    ds = synthesize_problem(n_rows, 1, cond=1.0, seed=seed % 1000)
    noisy, realized = apply_observation_noise(make_shards(ds, m), seed, model)

    b = ds.b.astype(np.float64)
    draws = []
    for i, (start, stop) in enumerate(partition_rows(n_rows, m)):
        draws.append(model.draw(seed, i, stop - start))
        b[start:stop] += draws[-1]
    assert b"".join(sh.b.tobytes() for sh in noisy) == b.tobytes()
    assert realized == [float(np.abs(w).sum()) for w in draws]
