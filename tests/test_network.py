"""Round execution: aggregation order, identities against centralized math,
concurrent agents."""
import multiprocessing
import os
import sys
import threading
import time
import weakref
from dataclasses import astuple, replace
from functools import cache
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsq import network, noise, solvers
from dlsq.datasets import compute_spectrum, load_dataset, make_shards, synthesize_problem
from dlsq.network import execute_round
from dlsq.noise import (
    NoProcessNoise,
    ObservationNoise,
    RoundoffProcessNoise,
    STREAM_K,
    UniformProcessNoise,
    apply_observation_noise,
)
from dlsq.runner import RunConfig, resolve_params, run, trace_csv_text
from dlsq.solvers import IPGSolver, agent_gradient, make_solver, run_rounds


def sum_gradients(shards, x):
    def agent(bc, shard, ast):
        return (agent_gradient(shard, bc[0]),), ast

    def server(agg):
        return agg[0]

    G, _ = execute_round((x,), shards, agent, server)
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
        return (np.full(3, float(shard.agent_id)), np.full((3, 2), float(shard.n_rows))), ast

    def server(agg):
        return agg

    (vec, rows), _ = execute_round((None,), shards, agent, server)
    np.testing.assert_array_equal(vec, np.full(3, 0.0 + 1.0 + 2.0))
    np.testing.assert_array_equal(rows, np.full((3, 2), 12.0))


def test_agent_states_thread_through():
    ds = synthesize_problem(10, 2, cond=1.5, seed=1)
    shards = make_shards(ds, 2)

    def agent(bc, shard, count):
        return (np.zeros(1),), count + 1

    def server(agg):
        return None

    states = [0, 0]
    for _ in range(3):
        _, states = execute_round((None,), shards, agent, server, states)
    assert states == [3, 3]


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


def test_round_without_shards_rejected():
    with pytest.raises(ValueError, match="at least one shard"):
        execute_round((None,), [], lambda b, s, a: ((np.zeros(1),), a), lambda agg: None)


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
        # a full-width vector and a block over the span
        w = shard.cols.stop - shard.cols.start
        block = np.full((w, 2), float(shard.agent_id + 1))
        return (np.ones(16), block), ast

    (vec, mat), _ = execute_round((None,), shards[::-1], agent, lambda agg: agg)
    np.testing.assert_array_equal(vec, np.full(16, 4.0))
    want = np.zeros((16, 2))
    for sh in shards:
        want[sh.cols] += sh.agent_id + 1
    np.testing.assert_array_equal(mat, want)


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


@pytest.mark.parametrize("method", ["ipg", "gd", "apc"])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(order=st.permutations(range(5)))
def test_final_state_invariant_to_shard_order(method, order):
    ds = load_dataset("synth:60,10,4,3")
    params = resolve_params(RunConfig(dataset=ds.name, method=method), ds.name,
                            compute_spectrum(ds.A))
    shards = make_shards(ds, 5)
    finals = [run_rounds(make_solver(method, params), s, ds.n_cols, 30)
              for s in (shards, [shards[i] for i in order])]
    for a, b in zip(astuple(finals[0]), astuple(finals[1]), strict=True):
        assert np.array_equal(a, b)


# -- concurrent agents ----------------------------------------------------------

# ipg agents above network.CONCURRENT_FLOPS (4.3 and 146 MFLOP estimated),
# with a step that keeps a few rounds finite
ABOVE_THRESHOLD = {"synth:608,188,10,3": 0.18, "stencil:30,30": 0.007}


@cache
def _problem(name):
    return load_dataset(name)


def _ipg_states(ds, shards, alpha, pnoise, n_rounds):
    states = []
    run_rounds(IPGSolver(alpha, 1.0), shards, ds.n_cols, n_rounds, pnoise,
               collect=lambda state, t: states.append((state.x, state.K)))
    return states


@pytest.mark.parametrize("noise", ["none", "observation", "roundoff", "uniform"])
@pytest.mark.parametrize("dataset", sorted(ABOVE_THRESHOLD))
def test_concurrent_rounds_equal_sequential_rounds_bit_for_bit(use_helpers, monkeypatch, rng,
                                                              dataset, noise):
    ds = _problem(dataset)
    pnoise = {"none": NoProcessNoise(), "observation": NoProcessNoise(),
              "roundoff": RoundoffProcessNoise(decimals=4),
              "uniform": UniformProcessNoise(seed=3, low=-1e-4, high=2e-4)}[noise]
    shards = make_shards(ds, 10)
    if noise == "observation":
        shards, _ = apply_observation_noise(shards, 3, ObservationNoise(half_width=0.05))
    rng.shuffle(shards)
    threads = set()
    real = solvers.agent_r_matrix

    def traced(shard, *args):
        threads.add(threading.current_thread())
        return real(shard, *args)

    monkeypatch.setattr(solvers, "agent_r_matrix", traced)
    concurrent = _ipg_states(ds, shards, ABOVE_THRESHOLD[dataset], pnoise, 3)
    assert threading.main_thread() in threads and len(threads) > 1
    use_helpers(False)
    threads.clear()
    sequential = _ipg_states(ds, shards, ABOVE_THRESHOLD[dataset], pnoise, 3)
    assert threads == {threading.main_thread()}
    assert len(concurrent) == len(sequential) == 4
    for (x1, K1), (x2, K2) in zip(concurrent, sequential):
        assert np.array_equal(x1, x2) and np.array_equal(K1, K2)


def test_nan_reply_on_a_helper_trips_the_guard_in_its_round(use_helpers, monkeypatch):
    at = 4
    real, calls, where = solvers.agent_r_matrix, count(), []

    def faulty(shard, *args):
        R = real(shard, *args)
        if shard.agent_id == 1 and next(calls) == at - 1:  # agent 1, round `at`
            where.append(threading.current_thread())
            # warns, which is an error here, unless the run's errstate reaches this thread
            R[0, 0] = np.divide(0.0, 0.0)
        return R

    monkeypatch.setattr(solvers, "agent_r_matrix", faulty)
    with np.errstate(all="ignore"):
        trace = run(RunConfig("synth:608,188,10,3", "ipg", m=10, max_iters=10, stop_tol=0.0))
    assert where and where[0] is not threading.main_thread()
    assert trace.summary["diverged_at"] == at == trace.rows[-1].t
    assert not any(r.diverged for r in trace.rows[:-1])


@pytest.mark.parametrize("first_bad", [0, 1, 3])
def test_agent_exception_propagates_and_the_next_round_works(use_helpers, monkeypatch,
                                                            first_bad):
    monkeypatch.setattr(network, "CONCURRENT_FLOPS", 0.0)  # every round concurrent
    ds = synthesize_problem(40, 3, cond=2.0, seed=0)
    shards = make_shards(ds, 4)
    x = np.linspace(-1.0, 1.0, 3)

    def agent(bc, shard, fail):
        if fail and shard.agent_id >= first_bad:
            raise RuntimeError(f"agent {shard.agent_id}")
        return (agent_gradient(shard, bc[0]),), fail

    def server(agg):
        return agg[0]

    with pytest.raises(RuntimeError, match=f"^agent {first_bad}$"):
        execute_round((x,), shards, agent, server, [True] * 4)
    G, _ = execute_round((x,), shards, agent, server, [False] * 4)
    use_helpers(False)
    assert np.array_equal(G, sum_gradients(shards, x))


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_completes_a_concurrent_run():
    config = RunConfig("synth:608,188,10,3", "ipg", m=10, max_iters=5, stop_tol=0.0)
    want = run(config).final_err  # starts this process's helpers, if it may use 2+ CPUs
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def child():
        err = run(config).final_err
        writer.send((network._pool[0] == os.getpid(), err))

    proc = ctx.Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        pytest.fail("the forked child did not finish its run in 60 s")
    assert proc.exitcode == 0
    assert reader.recv() == (True, want)


def test_idle_helpers_keep_no_round_alive(use_helpers, monkeypatch):
    monkeypatch.setattr(network, "CONCURRENT_FLOPS", 0.0)
    shards = make_shards(synthesize_problem(40, 3, cond=2.0, seed=0), 4)
    x = np.linspace(-1.0, 1.0, 3)
    alive = weakref.ref(x)
    sum_gradients(shards, x)
    del x
    assert alive() is None


def test_rounds_from_more_threads_than_cpus_stay_exact(use_helpers):
    # callers share the helpers; a round that finds them busy runs alone
    config = RunConfig("synth:608,188,10,3", "ipg", m=10, max_iters=6, stop_tol=0.0)
    want = trace_csv_text(run(config))
    got = []
    callers = [threading.Thread(target=lambda: got.append(trace_csv_text(run(config))),
                                daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 60
        for caller in callers:
            caller.join(timeout=max(deadline - time.monotonic(), 0))
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == [want] * 4


# -- the server's row blocks ------------------------------------------------------


def _blocks(shape):
    """The (lo, hi, thread) blocks in_row_blocks runs for shape, by lo."""
    seen = []
    network.in_row_blocks(lambda lo, hi: seen.append((lo, hi, threading.current_thread())),
                          shape)
    return sorted(seen, key=lambda b: b[0])


def test_row_blocks_cover_every_row_once(use_helpers):
    split = _blocks((450, 500))
    assert len(split) > 1 and split[0][0] == 0 and split[-1][1] == 450
    assert all(a[1] == b[0] for a, b in zip(split, split[1:]))
    assert split[0][2] is threading.main_thread()
    assert len({b[2] for b in split}) == len(split)
    use_helpers(False)
    assert [b[:2] for b in _blocks((450, 500))] == [(0, 450)]


def _noted_row_blocks(monkeypatch):
    """Patch the server's callers of in_row_blocks to note, per block, the
    thread that asked for the blocks, the thread that ran it and its rows."""
    noted = []
    real = network.in_row_blocks

    def noting(fn, shape):
        caller = threading.current_thread()

        def block(lo, hi):
            noted.append((caller, threading.current_thread(), lo, hi))
            fn(lo, hi)

        real(block, shape)

    for module in (solvers, noise):
        monkeypatch.setattr(module, "in_row_blocks", noting)
    return noted


@pytest.mark.parametrize("noise_kind", ["roundoff", "uniform"])
def test_row_split_server_equals_sequential_server_bit_for_bit(use_helpers, monkeypatch,
                                                               noise_kind):
    name = "stencil:30,30"
    ds = _problem(name)
    config = RunConfig(name, "ipg", m=10, alpha=ABOVE_THRESHOLD[name], max_iters=3,
                       stop_tol=0.0, noise="process", process_kind=noise_kind,
                       process_low=-1e-4, noise_level=2e-4)
    noted = _noted_row_blocks(monkeypatch)
    results = []
    for on in (True, False):
        use_helpers(on)
        noted.clear()
        states = []
        trace = run(config, dataset=ds,
                    on_iteration=lambda state, row: states.append((state.x.copy(),
                                                                   state.K.copy())))
        summary = {k: v for k, v in trace.summary.items() if k != "wall_time_s"}
        results.append((trace_csv_text(trace), summary, states))
        ran_on = {block_thread for _, block_thread, _, _ in noted}
        assert threading.main_thread() in ran_on and (len(ran_on) > 1) == on
    (csv1, summary1, states1), (csv2, summary2, states2) = results
    assert csv1 == csv2 and summary1 == summary2
    assert summary1["noise"]["omega_realized_mean"] > 0
    assert len(states1) == len(states2) == 4
    for (x1, K1), (x2, K2) in zip(states1, states2):
        assert np.array_equal(x1, x2) and np.array_equal(K1, K2)


# -- which calls go concurrent --------------------------------------------------

MC, STENCIL = "synth:608,188,10,3", "stencil:30,30"


def _round(monkeypatch, name, method):
    """One round of method on name at m=10: the (asker, thread) of each
    agent's gradient, the asker being the thread that ran the round."""
    ds = _problem(name)
    solver = (IPGSolver(ABOVE_THRESHOLD.get(name, 0.1), 1.0) if method == "ipg"
              else make_solver(method, {"alpha": 1e-3}))
    asker, noted = threading.current_thread(), []
    real = solvers.agent_gradient

    def noting(shard, x):
        noted.append((asker, threading.current_thread()))
        return real(shard, x)

    monkeypatch.setattr(solvers, "agent_gradient", noting)
    run_rounds(solver, make_shards(ds, 10), ds.n_cols, 1)
    return noted


def _row_blocks(shape):
    asker = threading.current_thread()
    return [(asker, thread) for _, _, thread in _blocks(shape)]


def _mc_shaped_round(agent):
    """A round whose agents (fake, replying zeros) estimate an mc ipg agent's
    4.3 MFLOP, so it claims the helpers."""
    def replying(bc, shard, ast):
        agent()
        return (np.zeros(1),), ast

    execute_round((np.zeros(188 * 189),), make_shards(_problem(MC), 10), replying,
                  lambda agg: None)


def _while_another_round_holds_the_helpers(call):
    started, release = threading.Event(), threading.Event()
    other = threading.Thread(target=_mc_shaped_round,
                             args=(lambda: started.set() or release.wait(60),), daemon=True)
    other.start()
    try:
        assert started.wait(60)
        return call()
    finally:
        release.set()
        other.join(60)


def _corrupt_from_the_agents_of_a_round(monkeypatch):
    """Each agent of a concurrent round rounds its own 188 x 1200 variable,
    which alone would be split by rows: the (asker, thread) of each block."""
    K = np.linspace(-1.0, 1.0, 188 * 1200).reshape(188, 1200)
    model = RoundoffProcessNoise(decimals=2)
    rounded = [K * (i + 1) for i in range(10)]
    for v in rounded:
        model.corrupt(v, STREAM_K, 0)
    want = sum(rounded)
    noted = _noted_row_blocks(monkeypatch)

    def agent(bc, shard, ast):
        v = bc[0] * (shard.agent_id + 1)
        l1 = model.corrupt(v, STREAM_K, 0)
        assert l1 == np.abs(v - bc[0] * (shard.agent_id + 1)).sum(axis=1).sum()
        return (v,), ast

    aggregate, _ = execute_round((K,), make_shards(_problem(MC), 10), agent, lambda agg: agg[0])
    assert np.array_equal(aggregate, want)
    assert any(asker is not threading.current_thread() for asker, *_ in noted)
    return [(asker, thread) for asker, thread, _, _ in noted]


# row: (call, decision). "concurrent": the work ran on helpers besides the
# asking thread. "alone": it ran on the asking thread because the helpers
# were taken. "below": it ran on the asking thread and never asked for
# helpers, so it started no thread.
DECISIONS = {
    "ipg round on 608x188, m=10 (4.3 MFLOP)": (lambda mp: _round(mp, MC, "ipg"), "concurrent"),
    "ipg round on stencil:30,30, m=10 (146 MFLOP)": (lambda mp: _round(mp, STENCIL, "ipg"),
                                                     "concurrent"),
    "gd round on 608x188, m=10 (23 kFLOP)": (lambda mp: _round(mp, MC, "gd"), "below"),
    "ipg round on 60x10, m=10 (1.3 kFLOP)": (lambda mp: _round(mp, "synth:60,10,4,3", "ipg"),
                                             "below"),
    "stencil's 900x900 K by rows (8.1 MFLOP)": (lambda mp: _row_blocks((900, 900)),
                                                "concurrent"),
    "188x188 K by rows (0.35 MFLOP)": (lambda mp: _row_blocks((188, 188)), "below"),
    "a single row of 300k entries": (lambda mp: _row_blocks((1, 300_000)), "below"),
    "an iterate of 900": (lambda mp: _row_blocks((900,)), "below"),
    "900x900 K while another thread's round holds the helpers": (
        lambda mp: _while_another_round_holds_the_helpers(lambda: _row_blocks((900, 900))),
        "alone"),
    "ipg round on stencil:30,30 while another thread's round holds the helpers": (
        lambda mp: _while_another_round_holds_the_helpers(lambda: _round(mp, STENCIL, "ipg")),
        "alone"),
    "a 188x1200 corrupt from the agents of a concurrent round": (
        _corrupt_from_the_agents_of_a_round, "alone"),
}


@pytest.mark.parametrize("row", list(DECISIONS))
def test_which_calls_go_concurrent(use_helpers, monkeypatch, row):
    call, decision = DECISIONS[row]
    helpers, asked = network._helpers, []
    monkeypatch.setattr(network, "_helpers", lambda: asked.append(True) or helpers())
    got = []
    # on a thread of its own, so a call that waits for its own helpers fails
    caller = threading.Thread(target=lambda: got.append(call(monkeypatch)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the call did not finish in 60 s"
    (noted,) = got
    assert noted and all(asker is not threading.main_thread() for asker, _ in noted)
    spread = any(asker is not thread for asker, thread in noted)
    assert spread == (decision == "concurrent")
    if decision == "below":
        assert not asked
