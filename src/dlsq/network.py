"""One synchronization round of the server/agent protocol.

The server hands every agent the same broadcast payload; each agent
computes a reply from its own shard only; the server consumes the sum
of the replies. One rule adds a reply: each part of the sum starts as
zeros of d rows (0.0 + v is v, but for v = -0.0, which reads +0.0), a
part with d rows is added whole and any other at the rows shard.cols of
its agent's column span. Replies are summed in ascending agent-id order
no matter how the shard list is arranged, so shard order never changes
a single bit of the result. Replies are not checked for inf or nan:
each one reaches the server's next iterate, which the runner checks.

Agents are independent within a round, so when a round's agents have
enough work (CONCURRENT_FLOPS) they are computed on helper threads and
on the calling thread at once. Each reply is computed exactly as it
would be alone and still added in agent-id order, so a concurrent round
gives the same bits as a sequential one.

The server's entrywise work on a large variable (ipg's K - alpha R, its
round-off and the l1 of that round-off) is split the same way, by
rows (in_row_blocks): every entry is computed by the same operations
whichever thread computes it, so that split changes no bit either.

One gate (_claim) decides which helpers a call may use, and one schedule
(_concurrently) runs it, on the calling thread alone when it gets none.
"""
from __future__ import annotations

import contextvars
import math
import os
import queue
import threading

import numpy as np

# A round goes concurrent when its mean agent's estimated work, 2 n_i
# flops per float broadcast, reaches this: about twice one hand-off (queue
# an agent, wake its helper, take the reply back) where it was measured,
# ~12 us on a 2-CPU x86 VM, 1.1 MFLOP at its DGEMM rate. Hand-offs differ
# by host (README, "Concurrent agents"). An ipg agent on 608x188 with
# m=10 estimates 4.3 MFLOP, on stencil:30,30 146 MFLOP; a gd agent 23 kFLOP.
CONCURRENT_FLOPS = 2e6

# Flops per entry of the server's entrywise chain on one variable: K -
# alpha R (2), round-off (5) and the l1 it returns, summed inside the noise
# kernel's pass: a copy, |after - before| and the row sums (3).
# in_row_blocks splits a variable whose entries times this reach
# CONCURRENT_FLOPS: stencil:30,30's 900 x 900 K (8.1 MFLOP) goes
# concurrent, a 188 x 188 K (0.35 MFLOP) and every iterate do not.
ENTRY_FLOPS = 10


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
            self._done.put(self._attempt(*self._jobs.get()))

    @staticmethod
    def _attempt(ctx, fn, arg):
        """(fn(arg) run in the context ctx, None), or (None, the exception it raised)."""
        try:
            return ctx.run(fn, arg), None
        except BaseException as exc:  # noqa: BLE001 - re-raised by the round
            return None, exc

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
    """This process's helpers and the lock a call holds while it uses them,
    started on first use: one helper fewer than the CPUs the process may
    run on, so one CPU means none. A forked child builds its own."""
    global _pool
    if _pool[0] != os.getpid():
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        _pool = (os.getpid(), threading.Lock(), [_Helper() for _ in range((cpus or 1) - 1)])
    return _pool[1:]


def _claim(n, flops):
    """(lock, helpers): the helpers a call of n independent parts may use,
    at most n - 1, their lock taken; (None, []) when its estimated flops
    fall short of CONCURRENT_FLOPS, the process has no helpers, or another
    call holds them (another thread's round, or this agent's own round)."""
    if n > 1 and flops >= CONCURRENT_FLOPS:
        lock, helpers = _helpers()
        if helpers and lock.acquire(blocking=False):
            return lock, helpers[: n - 1]
    return None, []


def _concurrently(order, compute, consume, lock, helpers):
    """consume(i, compute(i)) for every i in order, in that order, with the
    compute calls spread over this thread and the h helpers _claim gave
    with lock, released at the end: position p goes to this thread when p
    mod (h + 1) is 0, else to helper p mod (h + 1) - 1. This thread consumes
    its own reply at once, so at most one reply per helper is held."""
    w = len(helpers) + 1
    n = len(order)
    try:
        for k, helper in enumerate(helpers, 1):  # fewer helpers than agents
            helper.submit(compute, order[k])
        for p, i in enumerate(order):
            if p % w == 0:
                consume(i, compute(i))
                continue
            helper = helpers[p % w - 1]
            reply, exc = helper.take()
            if exc is not None:
                raise exc
            if p + w < n:
                helper.submit(compute, order[p + w])
            consume(i, reply)
    finally:
        for helper in helpers:
            if helper.pending:
                helper.take()
        if lock is not None:
            lock.release()


def in_row_blocks(fn, shape):
    """fn(lo, hi) over contiguous blocks of range(shape[0]) that cover it:
    one block per helper _claim grants when the entries of shape times
    ENTRY_FLOPS reach CONCURRENT_FLOPS, plus this thread's; otherwise (a
    helper's own call included) fn(0, shape[0]) alone. fn must touch only
    rows lo:hi of what it writes."""
    n = shape[0]
    lock, helpers = _claim(n, ENTRY_FLOPS * math.prod(shape))
    w = len(helpers) + 1
    _concurrently(range(w), lambda k: fn(n * k // w, n * (k + 1) // w), lambda k, _: None,
                  lock, helpers)


def execute_round(broadcast, shards, agent_fn, server_fn, agent_states=None):
    """Run one round; returns (server_state, agent_states).

    agent_fn(broadcast, shard, agent_state) -> (reply tuple of arrays, new agent_state)
    server_fn(aggregate tuple) -> new server state

    Each part of the aggregate is np.zeros((d,) + shape[1:]) of the first
    reply's part, d the shards' column count. A part with d rows is added
    whole; any other holds rows shard.cols of a d-row reply and is added
    at those rows, so rows outside every such span stay zero.

    agent_states aligns positionally with shards (None for stateless agents).
    """
    if not shards:
        raise ValueError("a round needs at least one shard")
    if agent_states is None:
        agent_states = [None] * len(shards)
    if len(agent_states) != len(shards):
        raise ValueError("agent_states must align with shards")

    order = sorted(range(len(shards)), key=lambda i: shards[i].agent_id)
    ids = [shards[i].agent_id for i in order]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate agent_id in shards")

    d = shards[order[0]].A.shape[1]
    aggregate = []
    new_states = list(agent_states)

    def compute(i):
        return agent_fn(broadcast, shards[i], agent_states[i])

    def consume(i, out):
        reply, new_states[i] = out
        if i == order[0]:
            aggregate.extend(np.zeros((d,) + part.shape[1:]) for part in reply)
        elif len(reply) != len(aggregate):
            raise ValueError("agents returned replies of different arity")
        for acc, part in zip(aggregate, reply):
            if len(part) == d:
                acc += part
            else:
                acc[shards[i].cols] += part

    # the mean agent's estimated work: 2 n_i flops per float broadcast
    m = len(shards)
    flops = 2.0 * sum(sh.A.shape[0] for sh in shards) / m * sum(map(np.size, broadcast))
    _concurrently(order, compute, consume, *_claim(m, flops))

    return server_fn(tuple(aggregate)), new_states
