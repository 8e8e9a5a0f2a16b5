"""Noise models.

Observation noise corrupts each agent's measurement vector once per run.
Process noise corrupts iterated variables every round, either by adding
uniform draws or by rounding to a fixed number of decimals (half away
from zero).

Every random draw comes from a counter-based Philox stream keyed by
(run seed, stream id) with the iteration number in the counter block, so
draws depend only on (seed, variable, iteration) and never on evaluation
order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datasets import partition_rows

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
        # the transpose cache AT does not depend on b and is kept
        noisy.append(replace(sh, b=np.ascontiguousarray(sh.b + w)))
        realized.append(float(np.abs(w).sum()))
    return noisy, realized


class NoProcessNoise:
    """Identity corruption; keeps solver code free of branches."""

    def corrupt(self, v, stream, iteration):
        return v

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
        return v + gen.uniform(self.low, self.high, v.shape)

    def l1_bound(self, length):
        # exact expectation of the l1 norm of one length-`length` draw
        return length * uniform_abs_mean(self.low, self.high)


@dataclass(frozen=True)
class RoundoffProcessNoise:
    """Rounds every entry to `decimals` places, half away from zero."""

    decimals: int = 4

    def corrupt(self, v, stream, iteration):
        return _round_half_away(np.asarray(v, dtype=np.float64), 10.0 ** self.decimals)

    def l1_bound(self, length):
        # deterministic bound: each entry moves by at most half a quantum
        return length * 0.5 * 10.0 ** (-self.decimals)


def _round_half_away(v, scale):
    # round half away from zero at the quantum 1/scale, in place in one
    # buffer; out= keeps a 0-d input an array (a bare ufunc returns a scalar)
    out = np.empty_like(v)
    np.abs(v, out=out)
    out *= scale
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, v, out=out)
    out /= scale
    return out


def roundoff(v, decimals=4):
    """Round half away from zero at `decimals` places (scalar or array)."""
    arr = np.asarray(v, dtype=np.float64)
    out = _round_half_away(arr, 10.0 ** decimals)
    return float(out) if arr.ndim == 0 else out


def realized_l1(before, after):
    """l1 magnitude of the corruption actually applied to one variable."""
    diff = np.atleast_1d(np.subtract(after, before))
    np.abs(diff, out=diff)
    return float(diff.sum())
