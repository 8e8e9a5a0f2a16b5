"""One synchronization round of the server/agent protocol.

The server hands every agent the same broadcast payload; each agent
computes a reply from its own shard only; the server consumes the sum
of the replies. Replies are summed in ascending agent-id order no
matter how the shard list is arranged, so shard order never changes
a single bit of the result. Replies are not checked for inf or nan:
each one reaches the server's next iterate, which the runner checks.

Agents are independent within a round, so when a round's agents have
enough work (CONCURRENT_FLOPS) they are computed on helper threads and
on the calling thread at once. Each reply is computed exactly as it
would be alone and still added in agent-id order, so a concurrent round
gives the same bits as a sequential one.
"""
from __future__ import annotations

import contextvars
import os
import queue
import threading

import numpy as np

# A round goes concurrent when its mean agent's estimated work, 2 n_i
# flops per float broadcast, reaches this. One hand-off (queue an agent,
# wake its helper, take the reply back) costs ~12 us on a 2-CPU x86 VM,
# about 1.1 MFLOP at its ~90 GFLOP/s single-thread DGEMM rate; ipg on
# 608 x d problems (m=10) broke even between 0.8 and 1.2 MFLOP and ran
# 1.45x as fast at 2.1. The threshold is about twice the hand-off, so a
# somewhat slower hand-off does not make a round slower. An ipg agent on
# 608x188 with m=10 estimates 4.3 MFLOP, on stencil:30,30 146 MFLOP; a
# gd agent on 608x188 23 kFLOP.
CONCURRENT_FLOPS = 2e6


def _attempt(ctx, fn, arg):
    """(fn(arg) run in the context ctx, None), or (None, the exception it raised)."""
    try:
        return ctx.run(fn, arg), None
    except BaseException as exc:  # noqa: BLE001 - re-raised by the round
        return None, exc


class _Helper:
    """A daemon thread that computes one agent at a time. It holds at most
    one pending agent: the next is submitted after its reply is taken."""

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self.pending = False
        threading.Thread(target=self._serve, daemon=True, name="dlsq-agent").start()

    def _serve(self):
        while True:
            # the job dies within this statement, so the helper holds nothing
            # of a round (its shards, its broadcast) once the reply is out
            self._done.put(_attempt(*self._jobs.get()))

    def submit(self, fn, arg):
        # a thread does not inherit the caller's context, numpy's errstate
        # included: run the agent in a copy of it
        self.pending = True
        self._jobs.put((contextvars.copy_context(), fn, arg))

    def take(self):
        """The (reply, exception) pair of the pending agent, once done."""
        pair = self._done.get()
        self.pending = False
        return pair


_pool = (None, None, [])  # (pid, lock, helpers) of the process that built it


def _helpers():
    """This process's helpers and the lock a round holds while it uses them,
    started on first use: one helper fewer than the CPUs the process may
    run on, so one CPU means none. A forked child builds its own."""
    global _pool
    if _pool[0] != os.getpid():
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        _pool = (os.getpid(), threading.Lock(), [_Helper() for _ in range((cpus or 1) - 1)])
    return _pool[1:]


def _concurrently(order, compute, consume, helpers):
    """consume(i, compute(i)) for every i in order, in that order, with the
    compute calls spread over this thread and the helpers: position p goes
    to this thread when p mod (h + 1) is 0, else to helper p mod (h + 1) - 1.
    This thread consumes its own reply at once, so besides the aggregate
    at most one reply per helper is held."""
    w = len(helpers) + 1
    n = len(order)
    for k, helper in enumerate(helpers, 1):  # fewer helpers than agents
        helper.submit(compute, order[k])
    try:
        for start in range(0, n, w):
            consume(order[start], compute(order[start]))
            for k, helper in enumerate(helpers[: n - start - 1], start + 1):
                reply, exc = helper.take()
                if exc is not None:
                    raise exc
                if k + w < n:
                    helper.submit(compute, order[k + w])
                consume(order[k], reply)
    finally:
        for helper in helpers:
            if helper.pending:
                helper.take()


def execute_round(broadcast, shards, agent_fn, server_fn, agent_states=None):
    """Run one round; returns (server_state, agent_states).

    agent_fn(broadcast, shard, agent_state) -> (reply tuple of arrays, new agent_state)
    server_fn(aggregate tuple) -> new server state

    A reply part may cover only the rows shard.cols of a full-width
    (n_cols leading) array; it is added at those rows, and rows outside
    every such span stay zero in the aggregate.

    agent_states aligns positionally with shards (None for stateless agents).
    """
    if agent_states is None:
        agent_states = [None] * len(shards)
    if len(agent_states) != len(shards):
        raise ValueError("agent_states must align with shards")

    order = sorted(range(len(shards)), key=lambda i: shards[i].agent_id)
    ids = [shards[i].agent_id for i in order]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate agent_id in shards")

    full = slice(0, shards[order[0]].A.shape[1]) if order else None
    aggregate = None
    new_states = list(agent_states)

    def compute(i):
        return agent_fn(broadcast, shards[i], agent_states[i])

    def consume(i, out):
        nonlocal aggregate
        shard = shards[i]
        reply, new_states[i] = out
        if aggregate is None:
            aggregate = [None] * len(reply)
        elif len(reply) != len(aggregate):
            raise ValueError("agents returned replies of different arity")
        rows = shard.cols
        # from a shard narrower than full width, a part whose leading length
        # is the span width holds rows `rows` of the full-width reply only
        width = None if rows == full else rows.stop - rows.start
        for k, part in enumerate(reply):
            acc = aggregate[k]
            if width is not None and np.shape(part)[:1] == (width,):
                if acc is None:
                    acc = aggregate[k] = np.zeros((full.stop,) + np.shape(part)[1:])
                acc[rows] += part
            elif acc is None:
                aggregate[k] = np.array(part, dtype=np.float64, copy=True)
            else:
                acc += part

    m = len(shards)
    concurrent = m > 1 and (2.0 * sum(sh.A.shape[0] for sh in shards) / m
                            * sum(map(np.size, broadcast)) >= CONCURRENT_FLOPS)
    lock, helpers = _helpers() if concurrent else (None, [])
    # a round already using the helpers (another thread's) leaves this one sequential
    if helpers and lock.acquire(blocking=False):
        try:
            _concurrently(order, compute, consume, helpers[: m - 1])
        finally:
            lock.release()
    else:
        for i in order:
            consume(i, compute(i))

    return server_fn(tuple(aggregate)), new_states
