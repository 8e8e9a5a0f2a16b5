"""Closed-form error bounds and limits for the preconditioned method.

Notation used throughout: lambda_1 / lambda_d are the extreme eigenvalues
of A^T A, rho is the Richardson contraction rate of the preconditioner
recursion, eta bounds the expected per-agent l1 magnitude of observation
noise, omega bounds the expected per-variable l1 magnitude of process
noise, m is the agent count, d the parameter dimension, and k0_fro /
k0_spec are Frobenius / spectral norms of K(0) - (A^T A)^-1.

All bound evaluations are pure float functions of BoundInputs; long
products are accumulated in log space so 1e5-round evaluations neither
overflow nor underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoundInputs:
    m: int
    d: int
    delta: float
    rho: float
    lambda_1: float
    lambda_d: float
    eta: float = 0.0
    omega: float = 0.0
    k0_fro: float = 0.0
    k0_spec: float = 0.0
    z0: float = 0.0


def richardson_rate(alpha, lambda_1, lambda_d):
    """Contraction rate of I - alpha A^T A over the Gram spectrum."""
    return max(abs(1.0 - alpha * lambda_1), abs(1.0 - alpha * lambda_d))


def bound_inputs_from(spectrum, m, d, alpha, delta, eta=0.0, omega=0.0,
                      z0=0.0, K0=None):
    """Assemble BoundInputs for a run started at K(0) (default zero)."""
    if K0 is None:
        k0_fro = spectrum.k_star_fro
        k0_spec = spectrum.k_star_spec
    else:
        diff = np.asarray(K0, dtype=np.float64) - spectrum.K_star
        k0_fro = float(np.linalg.norm(diff, "fro"))
        k0_spec = float(np.linalg.norm(diff, 2))
    return BoundInputs(
        m=m, d=d, delta=delta,
        rho=richardson_rate(alpha, spectrum.lambda_1, spectrum.lambda_d),
        lambda_1=spectrum.lambda_1, lambda_d=spectrum.lambda_d,
        eta=eta, omega=omega, k0_fro=k0_fro, k0_spec=k0_spec, z0=z0,
    )


def estimation_error(x, x_star):
    return float(np.linalg.norm(np.asarray(x) - np.asarray(x_star)))


# -- observation noise ------------------------------------------------------


def observation_step_bound(bi, z_norm, t):
    """Bound on the expected error after round t+1 given error z_norm at t."""
    decay = bi.rho ** (t + 1)
    contraction = 1.0 - bi.delta + bi.delta * bi.lambda_1 * bi.k0_fro * decay
    noise_transient = bi.delta * bi.eta * bi.m * math.sqrt(bi.lambda_1) * bi.k0_fro * decay
    return contraction * z_norm + noise_transient + observation_asymptote(bi)


def observation_asymptote(bi):
    """Limiting expected error of the preconditioned method."""
    return bi.delta * bi.eta * bi.m * math.sqrt(1.0 / bi.lambda_d)


def gd_observation_asymptote(delta, eta, m, lambda_1):
    """Same quantity for plain gradient descent with step delta."""
    return delta * eta * m * math.sqrt(lambda_1)


# -- process noise ----------------------------------------------------------


def process_step_factor(bi, t):
    """Per-round contraction factor u(t) of the corrupted recursion."""
    if bi.rho == 1.0:
        series = float(t + 1)
    else:
        series = (1.0 - bi.rho ** (t + 1)) / (1.0 - bi.rho)
    drift = bi.omega * math.sqrt(bi.d) * series
    return 1.0 - bi.delta + bi.delta * bi.lambda_1 * (bi.rho ** t * bi.k0_spec + drift)


def process_gates(bi):
    """(rho_bound, omega_bound, satisfied): the region where the corrupted
    recursion is eventually contracting."""
    if bi.omega == 0.0:
        rho_bound = 1.0
    else:
        rho_bound = bi.k0_spec / (bi.k0_spec + bi.omega * math.sqrt(bi.d))
    omega_bound = (1.0 - bi.rho) / (bi.lambda_1 * math.sqrt(bi.d))
    return rho_bound, omega_bound, bool(bi.rho < rho_bound and bi.omega < omega_bound)


def process_factor_limit(bi):
    """lim u(t); below 1 exactly when the gates hold."""
    _, omega_bound, _ = process_gates(bi)
    return 1.0 - bi.delta + bi.delta * bi.omega / omega_bound


def process_asymptote(bi):
    """Limiting expected error when the gates hold; inf otherwise."""
    _, omega_bound, _ = process_gates(bi)
    if bi.omega >= omega_bound:
        return math.inf
    return bi.omega / (bi.delta * (1.0 - bi.omega / omega_bound))


def gd_process_asymptote(delta, lambda_1, lambda_d, omega):
    """Limiting error of gradient descent with step delta; inf when the
    iteration map is not a contraction."""
    r = richardson_rate(delta, lambda_1, lambda_d)
    if r >= 1.0:
        return math.inf
    return omega / (1.0 - r)


def process_error_bound(bi, t):
    """Bound on the expected corrupted error at round t.

    B(t) = (prod_{k=1..t} u(k)) z0 + (1 + sum_{j=1..t} prod_{k=j..t} u(k)) omega,
    evaluated by one backward recurrence in log space. Divergent inputs
    yield inf, returned as-is.
    """
    if t == 0:
        return bi.z0 + bi.omega
    # suffix-product sum S(k) = u(k) (1 + S(k-1)), S(0) = 0, so that
    # S(t) = sum_{j=1..t} prod_{i=j..t} u(i)
    log_s = -math.inf
    log_p = 0.0
    for k in range(1, t + 1):
        lu = _log_factor(bi, k)
        log_s = lu + _log1pexp(log_s)
        log_p += lu
    head = _exp(log_p + math.log(bi.z0)) if bi.z0 > 0 else 0.0
    return head + (1.0 + _exp(log_s)) * bi.omega


def _log_factor(bi, k):
    u = process_step_factor(bi, k)
    if u <= 0.0:
        # delta = 1 with a vanishing drift term; treat as a dead stop
        return -math.inf
    return math.log(u)


def _exp(x):
    # past the float range the bound is inf; math.exp would raise instead
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log1pexp(x):
    # log(1 + e^x), stable for both signs
    if x == -math.inf:
        return 0.0
    return np.logaddexp(0.0, x)


class ProcessBoundAccumulator:
    """Incremental log-space evaluation of process_error_bound along a run.

    update(t) for t = 1, 2, ... returns (u_t, bound_t) and must be called
    in order; the bound at t = 0 needs no update, it is z0 + omega.
    """

    def __init__(self, bi):
        self.bi = bi
        self._log_p = 0.0     # log prod_{k=1..t} u(k)
        self._log_s = 0.0     # log (1 + sum_{j=1..t} prod_{k=j..t} u(k))
        self._t = 0

    def update(self, t):
        if t != self._t + 1:
            raise ValueError(f"updates must be consecutive; expected {self._t + 1}, got {t}")
        self._t = t
        lu = _log_factor(self.bi, t)
        self._log_p += lu
        # S(t) = 1 + u(t) S(t-1)
        self._log_s = _log1pexp(lu + self._log_s)
        u_t = process_step_factor(self.bi, t)
        head = _exp(self._log_p + math.log(self.bi.z0)) if self.bi.z0 > 0 else 0.0
        bound = head + _exp(self._log_s) * self.bi.omega
        return u_t, bound
