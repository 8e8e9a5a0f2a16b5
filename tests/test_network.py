"""Round execution: aggregation order, identities against centralized math."""
from dataclasses import replace

import numpy as np
import pytest

from dlsq.datasets import compute_spectrum, load_dataset, make_shards, synthesize_problem
from dlsq.network import execute_round
from dlsq.runner import RunConfig, resolve_params
from dlsq.solvers import agent_gradient, make_solver, run_rounds


def sum_gradients(shards, x):
    def agent(bc, shard, ast):
        return (agent_gradient(shard, bc[0]),), ast

    def server(agg):
        return agg[0]

    G, _, _ = execute_round((x,), shards, agent, server)
    return G


def test_single_agent_equals_centralized(small_problem):
    shards = make_shards(small_problem, 1)
    x = np.linspace(-1, 1, small_problem.n_cols)
    G = sum_gradients(shards, x)
    direct = small_problem.A.T @ (small_problem.A @ x - small_problem.b)
    np.testing.assert_allclose(G, direct, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", [2, 5, 10])
def test_shard_gradients_sum_to_full_gradient(small_problem, m):
    # block decomposition: sum_i A_i^T(A_i x - b_i) = A^T(Ax - b)
    shards = make_shards(small_problem, m)
    x = np.full(small_problem.n_cols, 0.37)
    G = sum_gradients(shards, x)
    direct = small_problem.A.T @ (small_problem.A @ x - small_problem.b)
    scale = np.linalg.norm(direct)
    assert np.linalg.norm(G - direct) <= 1e-10 * max(scale, 1.0)


def test_aggregation_invariant_to_shard_order(small_problem, rng):
    shards = make_shards(small_problem, 7)
    x = rng.standard_normal(small_problem.n_cols)
    G1 = sum_gradients(shards, x)
    shuffled = list(shards)
    rng.shuffle(shuffled)
    G2 = sum_gradients(shuffled, x)
    assert np.array_equal(G1, G2)  # bit-exact, ids sorted before summing


def test_multi_part_replies_aggregate_elementwise():
    ds = synthesize_problem(12, 3, cond=2.0, seed=0)
    shards = make_shards(ds, 3)

    def agent(bc, shard, ast):
        return (np.full(3, float(shard.agent_id)), shard.A.shape[0]), ast

    def server(agg):
        return agg

    (vec, rows), _, _ = execute_round((None,), shards, agent, server)
    np.testing.assert_array_equal(vec, np.full(3, 0.0 + 1.0 + 2.0))
    assert rows == 12


def test_agent_states_thread_through():
    ds = synthesize_problem(10, 2, cond=1.5, seed=1)
    shards = make_shards(ds, 2)

    def agent(bc, shard, count):
        return (np.zeros(1),), count + 1

    def server(agg):
        return None

    states = [0, 0]
    for _ in range(3):
        _, states, _ = execute_round((None,), shards, agent, server, states)
    assert states == [3, 3]


def test_finite_flag_trips_on_bad_reply():
    ds = synthesize_problem(10, 2, cond=1.5, seed=1)
    shards = make_shards(ds, 2)

    def agent(bc, shard, ast):
        v = np.zeros(2)
        if shard.agent_id == 1:
            v[0] = np.inf
        return (v,), ast

    _, _, finite = execute_round((None,), shards, agent, lambda agg: agg)
    assert not finite


def test_mismatched_agent_state_count_rejected():
    ds = synthesize_problem(10, 2, cond=1.5, seed=1)
    shards = make_shards(ds, 2)
    with pytest.raises(ValueError):
        execute_round((None,), shards, lambda b, s, a: ((np.zeros(1),), a),
                      lambda agg: None, agent_states=[1])


def test_duplicate_agent_ids_rejected():
    ds = synthesize_problem(10, 2, cond=1.5, seed=1)
    shards = make_shards(ds, 2)
    dup = [shards[0], shards[0]]
    with pytest.raises(ValueError):
        execute_round((None,), dup, lambda b, s, a: ((np.zeros(1),), a),
                      lambda agg: None)


def test_replies_of_different_arity_rejected():
    ds = synthesize_problem(10, 2, cond=1.5, seed=1)
    shards = make_shards(ds, 2)

    def agent(bc, shard, ast):
        return (np.zeros(2),) * (1 + shard.agent_id), ast

    with pytest.raises(ValueError, match="different arity"):
        execute_round((None,), shards, agent, lambda agg: None)


def test_block_parts_add_at_their_column_span():
    shards = make_shards(load_dataset("stencil:4,4"), 4)
    assert [sh.cols for sh in shards[:2]] == [slice(0, 8), slice(0, 12)]
    # a full-span shard replies full width in the same part slot
    shards[2] = replace(shards[2], cols=slice(0, 16))

    def agent(bc, shard, ast):
        # a full-width vector, a block over the span, and a plain scalar
        w = shard.cols.stop - shard.cols.start
        block = np.full((w, 2), float(shard.agent_id + 1))
        return (np.ones(16), block, 1.0), ast

    (vec, mat, count), _, _ = execute_round((None,), shards[::-1], agent, lambda agg: agg)
    np.testing.assert_array_equal(vec, np.full(16, 4.0))
    want = np.zeros((16, 2))
    for sh in shards:
        want[sh.cols] += sh.agent_id + 1
    np.testing.assert_array_equal(mat, want)
    assert count == 4.0


def test_ipg_on_shuffled_stencil_shards_is_bit_exact(rng):
    ds = load_dataset("stencil:6,6")
    params = resolve_params(RunConfig(dataset=ds.name, method="ipg"), ds.name,
                            compute_spectrum(ds.A))
    shards = make_shards(ds, 7)
    shuffled = list(shards)
    rng.shuffle(shuffled)
    finals = [run_rounds(make_solver("ipg", params), order, ds.n_cols, 25)
              for order in (shards, shuffled)]
    assert np.array_equal(finals[0].x, finals[1].x)
    assert np.array_equal(finals[0].K, finals[1].K)
