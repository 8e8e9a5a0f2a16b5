"""One synchronization round of the server/agent protocol.

The server hands every agent the same broadcast payload; each agent
computes a reply from its own shard only; the server consumes the sum
of the replies. Replies are summed in ascending agent-id order no
matter how the shard list is arranged, so shard order never changes
a single bit of the result. Replies are not checked for inf or nan:
each one reaches the server's next iterate, which the runner checks.
"""
from __future__ import annotations

import numpy as np


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
    for i in order:
        shard = shards[i]
        reply, new_states[i] = agent_fn(broadcast, shard, agent_states[i])
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

    return server_fn(tuple(aggregate)), new_states
