"""Noise models.

Observation noise corrupts each agent's measurement vector once per run.
Process noise corrupts iterated variables every round, either by adding
uniform draws or by rounding to a fixed number of decimals (half away
from zero).

Every random draw comes from a counter-based Philox stream keyed by
(run seed, stream id) with the iteration number in the counter block, so
draws depend only on (seed, variable, iteration) and never on evaluation
order.

A process model's corrupt(v, stream, iteration, l1=None) overwrites v,
which the caller owns, with the corrupted variable and returns it. Given
an array l1 of v's shape, it also writes |after - before| there, in the
same row-block pass that corrupts each block (in_row_blocks). Round-off
rounds v by rows; uniform noise adds its draws to v; without process
noise v is left as it is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import partition_rows
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


def observation_eta(model, n_rows, m):
    """eta, the level the observation bounds use: the expected per-agent
    l1 noise magnitude at the largest of the m contiguous row shards."""
    return model.expected_l1(max(stop - start for start, stop in partition_rows(n_rows, m)))


def apply_observation_noise(shards, seed, model):
    """Corrupt every shard's b once. Returns (shards, realized), realized
    being the per-agent l1 magnitudes of the draws."""
    noisy = []
    realized = []
    for sh in shards:
        w = model.draw(seed, sh.agent_id, sh.n_rows)
        # replace derives the shard's AT from A and cols again
        noisy.append(replace(sh, b=np.ascontiguousarray(sh.b + w)))
        realized.append(float(np.abs(w).sum()))
    return noisy, realized


class NoProcessNoise:
    """Identity corruption; keeps solver code free of branches."""

    def corrupt(self, v, stream, iteration, l1=None):
        if l1 is not None:
            np.abs(np.subtract(v, v, out=l1), out=l1)
        return v

    def l1_bound(self, length):
        return 0.0


@dataclass(frozen=True)
class UniformProcessNoise:
    """Adds entrywise Uniform(low, high) draws to a variable each round."""

    seed: int
    low: float
    high: float

    def corrupt(self, v, stream, iteration, l1=None):
        gen = stream_generator(self.seed, stream, iteration)
        rows, draws = np.atleast_1d(v, gen.uniform(self.low, self.high, np.shape(v)))
        add = _tracking(rows, l1, lambda sl: np.add(rows[sl], draws[sl], out=rows[sl]))
        in_row_blocks(lambda lo, hi: add(slice(lo, hi)), rows.shape)
        return v

    def l1_bound(self, length):
        # exact expectation of the l1 norm of one length-`length` draw
        return length * uniform_abs_mean(self.low, self.high)


@dataclass(frozen=True)
class RoundoffProcessNoise:
    """Rounds every entry to `decimals` places, half away from zero."""

    decimals: int = 4

    def corrupt(self, v, stream, iteration, l1=None):
        return _round_half_away(v, 10.0 ** self.decimals, l1)

    def l1_bound(self, length):
        # deterministic bound: each entry moves by at most half a quantum
        return length * 0.5 * 10.0 ** (-self.decimals)


def _tracking(rows, l1, change):
    """change(sl) rewrites rows[sl] in place; given l1, return it wrapped to
    also write each slice's |after - before| into the same rows of l1."""
    if l1 is None:
        return change
    diff = np.atleast_1d(l1)

    def tracked(sl):
        np.copyto(diff[sl], rows[sl])
        change(sl)
        np.abs(np.subtract(rows[sl], diff[sl], out=diff[sl]), out=diff[sl])

    return tracked


# entries rounded per pass of the kernel, so its +-0.5 buffer (512 kB per
# thread) is not a fresh d x d array every round
_ROUND_ENTRIES = 1 << 16
_SIGN_BIT = np.int64(-(2**63))
_HALF_BITS = np.float64(0.5).view(np.int64)


def _round_half_away(v, scale, l1=None):
    """Round v half away from zero at the quantum 1/scale in place and
    return it, writing |after - before| into l1 if given. With y = v *
    scale, trunc(y + copysign(0.5, y)) makes the same additions as floor(|y|
    + 0.5) with y's sign restored, so it gives the same bits, and reads
    nothing but y."""
    rows = np.atleast_1d(v)  # a 0-d value as one row
    step = max(1, _ROUND_ENTRIES // max(math.prod(rows.shape[1:]), 1))

    def block(lo, hi):
        half = np.empty((min(step, hi - lo),) + rows.shape[1:])

        def round_rows(sl):
            y, h = rows[sl], half[: sl.stop - sl.start]
            y *= scale
            # h = copysign(0.5, y) set on y's sign bit: numpy vectorizes the
            # integer ufuncs and not copysign (0.17 against 0.36 ms on
            # 900 x 900, one thread of a 2-vCPU AMD EPYC VM)
            np.bitwise_and(y.view(np.int64), _SIGN_BIT, out=h.view(np.int64))
            np.bitwise_or(h.view(np.int64), _HALF_BITS, out=h.view(np.int64))
            y += h
            np.trunc(y, out=y)
            y /= scale

        rounding = _tracking(rows, l1, round_rows)
        for a in range(lo, hi, step):
            rounding(slice(a, min(a + step, hi)))

    in_row_blocks(block, rows.shape)
    return v


def roundoff(v, decimals=4):
    """Round half away from zero at `decimals` places (scalar or array)."""
    out = _round_half_away(np.array(v, dtype=np.float64), 10.0 ** decimals)
    return float(out) if out.ndim == 0 else out


def realized_l1(before, after):
    """l1 magnitude of the corruption actually applied to one variable."""
    diff = np.atleast_1d(np.subtract(after, before))
    np.abs(diff, out=diff)
    return float(diff.sum())
