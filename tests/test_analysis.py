"""Bound calculators against hand formulas and brute-force recurrences."""
import math

import numpy as np
import pytest

from dlsq.analysis import (
    BoundInputs,
    ProcessBoundAccumulator,
    bound_inputs_from,
    estimation_error,
    gd_observation_asymptote,
    gd_process_asymptote,
    observation_asymptote,
    observation_bound_curve,
    observation_step_bound,
    process_asymptote,
    process_error_bound,
    process_factor_limit,
    process_gates,
    process_step_factor,
    richardson_rate,
)
from dlsq.datasets import compute_spectrum, synthesize_problem


def make_bi(**overrides):
    defaults = dict(m=5, d=10, delta=1.0, rho=0.5, lambda_1=4.0, lambda_d=1.0,
                    eta=0.3, omega=0.01, k0_fro=2.0, k0_spec=1.0, z0=3.0)
    defaults.update(overrides)
    return BoundInputs(**defaults)


def test_richardson_rate_values():
    assert richardson_rate(0.4, 4.0, 1.0) == pytest.approx(0.6)
    assert richardson_rate(2.0 / 5.0, 4.0, 1.0) == pytest.approx(0.6)
    assert richardson_rate(0.5, 4.0, 1.0) == pytest.approx(1.0)  # alpha at 2/lambda_1
    assert richardson_rate(1.0, 1.0, 1.0) == pytest.approx(0.0)


def test_estimation_error_is_euclidean():
    assert estimation_error([3.0, 0.0], [0.0, 4.0]) == pytest.approx(5.0)


def test_bound_inputs_default_initial_preconditioner():
    ds = synthesize_problem(40, 6, cond=9.0, seed=2)
    sp = compute_spectrum(ds.A)
    bi = bound_inputs_from(sp, m=5, d=6, alpha=0.2, delta=1.0, eta=0.1,
                           omega=0.0, z0=1.0)
    # K(0) = 0, so the initial deviation is K_star itself
    assert bi.k0_fro == pytest.approx(np.linalg.norm(sp.K_star, "fro"))
    assert bi.k0_spec == pytest.approx(1.0 / sp.lambda_d)
    assert bi.rho == pytest.approx(richardson_rate(0.2, sp.lambda_1, sp.lambda_d))


def test_bound_inputs_explicit_initial_preconditioner():
    ds = synthesize_problem(40, 6, cond=9.0, seed=2)
    sp = compute_spectrum(ds.A)
    K0 = np.eye(6)
    bi = bound_inputs_from(sp, m=5, d=6, alpha=0.2, delta=1.0, K0=K0)
    dev = K0 - sp.K_star
    assert bi.k0_fro == pytest.approx(np.linalg.norm(dev, "fro"))
    assert bi.k0_spec == pytest.approx(np.linalg.norm(dev, 2))


# -- observation-noise bound --------------------------------------------------


def test_observation_step_bound_hand_formula():
    bi = make_bi()
    t = 3
    decay = 0.5 ** 4
    expect = ((1 - 1.0 + 1.0 * 4.0 * 2.0 * decay) * 1.7
              + 1.0 * 0.3 * 5 * math.sqrt(4.0) * 2.0 * decay
              + 1.0 * 0.3 * 5 * math.sqrt(1.0))
    assert observation_step_bound(bi, 1.7, t) == pytest.approx(expect, rel=1e-12)


def test_observation_step_bound_partial_delta():
    bi = make_bi(delta=0.6)
    # at large t only the floor and the (1 - delta) leak survive
    val = observation_step_bound(bi, 2.0, 600)
    assert val == pytest.approx((1 - 0.6) * 2.0 + 0.6 * 0.3 * 5 * 1.0, rel=1e-12)


def test_observation_curve_unrolls_step_bound():
    bi = make_bi()
    curve = observation_bound_curve(bi, 12)
    assert curve[0] == bi.z0
    for t in range(12):
        assert curve[t + 1] == pytest.approx(observation_step_bound(bi, curve[t], t))


def test_observation_curve_settles_at_asymptote():
    bi = make_bi()
    curve = observation_bound_curve(bi, 4000)
    assert curve[-1] == pytest.approx(observation_asymptote(bi), rel=1e-9)


def test_observation_asymptotes_identity_spectrum():
    bi = make_bi(lambda_1=1.0, lambda_d=1.0, rho=0.0)
    assert observation_asymptote(bi) == pytest.approx(bi.delta * bi.eta * bi.m)
    assert gd_observation_asymptote(bi.delta, bi.eta, bi.m, 1.0) == pytest.approx(
        bi.delta * bi.eta * bi.m)


def test_observation_asymptote_ordering_depends_on_spectrum_scale():
    # preconditioned floor wins iff lambda_1 * lambda_d >= 1
    big = make_bi(lambda_1=6.0, lambda_d=2.0)
    assert observation_asymptote(big) <= gd_observation_asymptote(
        big.delta, big.eta, big.m, big.lambda_1)
    small = make_bi(lambda_1=0.5, lambda_d=0.1)
    assert observation_asymptote(small) > gd_observation_asymptote(
        small.delta, small.eta, small.m, small.lambda_1)


# -- process-noise bound ------------------------------------------------------


def test_process_step_factor_hand_formula():
    bi = make_bi()
    t = 4
    series = sum(0.5 ** i for i in range(t + 1))
    expect = 1 - 1.0 + 1.0 * 4.0 * (0.5 ** t * 1.0 + 0.01 * math.sqrt(10) * series)
    assert process_step_factor(bi, t) == pytest.approx(expect, rel=1e-12)


def test_process_step_factor_unit_rate_guard():
    bi = make_bi(rho=1.0)
    t = 7
    expect = 1 - 1.0 + 1.0 * 4.0 * (1.0 + 0.01 * math.sqrt(10) * (t + 1))
    assert process_step_factor(bi, t) == pytest.approx(expect, rel=1e-12)


def test_process_gates_hand_values():
    bi = make_bi()
    rho_bd, omega_bd, ok = process_gates(bi)
    assert rho_bd == pytest.approx(1.0 / (1.0 + 0.01 * math.sqrt(10)))
    assert omega_bd == pytest.approx(0.5 / (4.0 * math.sqrt(10)))
    assert ok  # 0.5 < 0.969 and 0.01 < 0.0395


def test_process_gates_fail_cases():
    assert not process_gates(make_bi(rho=0.99))[2]
    assert not process_gates(make_bi(omega=0.05))[2]
    rho_bd, _, ok = process_gates(make_bi(omega=0.0, rho=0.5))
    assert rho_bd == 1.0 and ok


def test_process_factor_limit_is_the_limit():
    bi = make_bi()
    u_far = process_step_factor(bi, 6000)
    assert process_factor_limit(bi) == pytest.approx(u_far, rel=1e-10)
    assert process_factor_limit(bi) < 1.0


def test_factor_monotone_decreasing_iff_gates_hold():
    good = make_bi()
    us = [process_step_factor(good, t) for t in range(1, 60)]
    assert all(a >= b for a, b in zip(us, us[1:]))
    bad = make_bi(rho=0.999, omega=0.05)
    assert process_factor_limit(bad) > 1.0


def brute_force_bound(bi, horizon):
    # forward recurrence in plain floats: B(t+1) = u(t+1) B(t) + omega
    out = [bi.z0 + bi.omega]
    for t in range(1, horizon + 1):
        out.append(process_step_factor(bi, t) * out[-1] + bi.omega)
    return out


def test_process_error_bound_matches_brute_force():
    bi = make_bi()
    oracle = brute_force_bound(bi, 40)
    for t in range(41):
        assert process_error_bound(bi, t) == pytest.approx(oracle[t], rel=1e-10)


# both gates fail (omega far above its bound): the bound leaves the float
# range near t = 169 and must read inf from there on
GATES_FAIL = BoundInputs(m=10, d=188, delta=1.0, rho=0.9, lambda_1=50.0, lambda_d=1.0,
                         omega=0.01, k0_fro=1.0, k0_spec=1.0, z0=1.0)


@pytest.mark.parametrize("bi, diverges", [
    # early factors are enormous; log-space evaluation must not overflow
    (make_bi(k0_spec=1e6, lambda_1=50.0, rho=0.9, omega=1e-4, z0=10.0), False),
    (GATES_FAIL, True),
], ids=["huge-transients", "gates-fail"])
def test_process_error_bound_survives_huge_transients(bi, diverges):
    v = process_error_bound(bi, 2000)
    if diverges:
        assert v == math.inf
    else:
        assert math.isfinite(v) or v == math.inf


@pytest.mark.parametrize("bi, horizon", [(make_bi(), 50), (GATES_FAIL, 250)],
                         ids=["gates-hold", "gates-fail"])
def test_accumulator_matches_closed_form(bi, horizon):
    acc = ProcessBoundAccumulator(bi)
    for t in range(1, horizon):
        u, b = acc.update(t)
        assert u == pytest.approx(process_step_factor(bi, t), rel=1e-12)
        assert b == pytest.approx(process_error_bound(bi, t), rel=1e-9)


def test_accumulator_requires_consecutive_updates():
    acc = ProcessBoundAccumulator(make_bi())
    acc.update(1)
    with pytest.raises(ValueError):
        acc.update(3)


def test_process_asymptote_value_and_blowup():
    bi = make_bi()
    _, omega_bd, _ = process_gates(bi)
    expect = 0.01 / (1.0 * (1.0 - 0.01 / omega_bd))
    assert process_asymptote(bi) == pytest.approx(expect, rel=1e-12)
    assert process_asymptote(make_bi(omega=omega_bd * 1.01)) == math.inf


def test_process_bound_settles_at_asymptote():
    bi = make_bi()
    far = process_error_bound(bi, 6000)
    assert far <= process_asymptote(bi) * (1 + 1e-9)
    assert far == pytest.approx(process_asymptote(bi), rel=1e-6)


def test_gd_process_asymptote():
    # step 0.4 on spectrum [1, 4]: contraction rate 0.6
    assert gd_process_asymptote(0.4, 4.0, 1.0, 0.01) == pytest.approx(0.01 / 0.4)
    assert gd_process_asymptote(1.0, 4.0, 1.0, 0.01) == math.inf
