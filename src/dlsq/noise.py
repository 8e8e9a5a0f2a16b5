"""Noise models.

Observation noise corrupts each agent's measurement vector once per run,
on the agents' own shards: each shard is bound to its b plus its draw.
Process noise corrupts iterated variables every round, either by adding
uniform draws or by rounding to a fixed number of decimals (half away
from zero).

Every random draw comes from a counter-based Philox stream keyed by
(run seed, stream id) with the iteration number in the counter block, so
draws depend only on (seed, variable, iteration) and never on evaluation
order.

A process model's corrupt(v, stream, iteration) overwrites v, which the
caller owns, with the corrupted variable and returns the l1 of the change
it made. Round-off rounds v and uniform noise adds its draws to v, both in
one kernel (_corrupt_rows) that rewrites v chunk by chunk of rows, split
over helpers by in_row_blocks, and sums each row's |after - before| in the
same pass; the l1 is those row sums summed in row order, so the split never
changes a bit, and for a 1-D v (one entry per row) it is the sum of the
entries' |after - before|. Without process noise v is left as it is and
the l1 is 0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import in_row_blocks

# stream ids for iterated variables
STREAM_X = 1
STREAM_K = 2
STREAM_M = 3
STREAM_XBAR = 4
STREAM_AGENT_BASE = 64      # + agent_id, per-agent iterates
STREAM_OBS_BASE = 4096      # + agent_id, one-time measurement corruption


def stream_generator(seed, stream, iteration=0):
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    counter = np.array([0, np.uint64(iteration), 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def uniform_abs_mean(low, high):
    """E|W| for W ~ Uniform(low, high), exact."""
    if low > high:
        raise ValueError("low > high")
    if high == low:
        return abs(low)
    if low >= 0:
        return (low + high) / 2.0
    if high <= 0:
        return -(low + high) / 2.0
    return (low * low + high * high) / (2.0 * (high - low))


@dataclass(frozen=True)
class ObservationNoise:
    """Entrywise Uniform(-half_width, half_width) added to b, drawn once per run."""

    half_width: float

    def draw(self, seed, agent_id, n):
        gen = stream_generator(seed, STREAM_OBS_BASE + agent_id)
        return gen.uniform(-self.half_width, self.half_width, n)

    def expected_l1(self, n):
        return n * self.half_width / 2.0


def apply_observation_noise(shards, seed, model):
    """Corrupt, once, the b each shard holds with its agent's draw. Returns
    (the shards bound to their noisy b, realized), realized being the
    per-agent l1 magnitudes of the draws; the shards given are unchanged."""
    noisy, realized = [], []
    for sh in shards:
        w = model.draw(seed, sh.agent_id, sh.n_rows)
        noisy.append(sh.bind(sh.b + w))
        realized.append(float(np.abs(w).sum()))
    return noisy, realized


class NoProcessNoise:
    """Identity corruption; keeps solver code free of branches."""

    def corrupt(self, v, stream, iteration):
        return 0.0

    def l1_bound(self, length):
        return 0.0


@dataclass(frozen=True)
class UniformProcessNoise:
    """Adds entrywise Uniform(low, high) draws to a variable each round."""

    seed: int
    low: float
    high: float

    def corrupt(self, v, stream, iteration):
        gen = stream_generator(self.seed, stream, iteration)
        draws = np.atleast_1d(gen.uniform(self.low, self.high, np.shape(v)))
        return _corrupt_rows(v, lambda y, sl, _: np.add(y, draws[sl], out=y))

    def l1_bound(self, length):
        # exact expectation of the l1 norm of one length-`length` draw
        return length * uniform_abs_mean(self.low, self.high)


@dataclass(frozen=True)
class RoundoffProcessNoise:
    """Rounds every entry to `decimals` places, half away from zero."""

    decimals: int = 4

    def corrupt(self, v, stream, iteration):
        return _round_half_away(v, 10.0 ** self.decimals)

    def l1_bound(self, length):
        # deterministic bound: each entry moves by at most half a quantum
        return length * 0.5 * 10.0 ** (-self.decimals)


# entries rewritten per pass of the kernel, so its scratch (two 512 kB
# buffers per thread) is not a fresh d x d array every round
_ROUND_ENTRIES = 1 << 16
_SIGN_BIT = np.int64(-(2**63))
_HALF_BITS = np.float64(0.5).view(np.int64)


def _corrupt_rows(v, change):
    """Rewrite v in place by change(y, sl, work) on each chunk y = rows sl
    of v, work being scratch of y's shape, and return the l1 of what
    changed. Each chunk's rows are copied first and their |after - before|
    summed along each row into an n-row vector, which is summed in row
    order at the end: the same bits however in_row_blocks splits the rows."""
    rows = np.atleast_1d(v)  # a 0-d value as one row
    step = max(1, _ROUND_ENTRIES // max(math.prod(rows.shape[1:]), 1))
    row_l1 = np.empty(rows.shape[0])

    def block(lo, hi):
        before, work = np.empty((2, min(step, hi - lo)) + rows.shape[1:])
        for a in range(lo, hi, step):
            sl = slice(a, min(a + step, hi))
            y, b = rows[sl], before[: sl.stop - a]
            np.copyto(b, y)
            change(y, sl, work[: sl.stop - a])
            np.abs(np.subtract(y, b, out=b), out=b)
            b.reshape(len(b), -1).sum(axis=1, out=row_l1[sl])

    in_row_blocks(block, rows.shape)
    return float(row_l1.sum())


def _round_half_away(v, scale):
    """Round v half away from zero at the quantum 1/scale in place and
    return the l1 of the change. With y = v * scale, trunc(y + copysign(0.5,
    y)) makes the same additions as floor(|y| + 0.5) with y's sign restored,
    so it gives the same bits, and reads nothing but y."""

    def round_rows(y, sl, h):
        y *= scale
        # h = copysign(0.5, y) set on y's sign bit: numpy vectorizes the
        # integer ufuncs and not copysign (0.17 against 0.36 ms on 900 x
        # 900, one thread of a 2-vCPU AMD EPYC VM)
        np.bitwise_and(y.view(np.int64), _SIGN_BIT, out=h.view(np.int64))
        np.bitwise_or(h.view(np.int64), _HALF_BITS, out=h.view(np.int64))
        y += h
        np.trunc(y, out=y)
        y /= scale

    return _corrupt_rows(v, round_rows)

