"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance and
appends exactly one PASS/FAIL/SKIP line to the terminal summary (see
conftest.pytest_terminal_summary), so the verdict on every criterion is
visible in one place regardless of output capture.

Criteria that need the two benchmark matrices skip with fetch
instructions when the files are absent; everything else runs on
synthetic instances with known spectra.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, dataset_available
from oracles import IPGFrom, k_star, reassemble

from dlsq import (
    REGISTRY,
    RunConfig,
    bound_inputs_from,
    compute_spectrum,
    load_dataset,
    make_shards,
    observation_asymptote,
    observation_step_bound,
    process_asymptote,
    process_error_bound,
    process_gates,
    rep_seed,
    richardson_rate,
    run,
    run_monte_carlo,
)
from dlsq.runner import trace_csv_text, trace_json_obj
from dlsq.solvers import METHODS, agent_gradient, make_solver, run_rounds

BOTH = ("ash608", "gr_30_30")


def record(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    ACCEPTANCE_LINES.append(line)
    return ok


def require_datasets(name, *datasets):
    missing = [n for n in datasets if not dataset_available(n)]
    if missing:
        why = (f"missing dataset(s) {', '.join(missing)}: place <name>.mtx under "
               f"./data or $DLSQ_DATA_DIR (sources: "
               + ", ".join(REGISTRY[n].url for n in missing) + ")")
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {name}: SKIP - {why}")
        pytest.skip(why)
    return [load_dataset(n) for n in datasets]


def test_c1_noise_free_convergence():
    """Every solver drives the error below 1e-3 on both benchmark
    matrices with the built-in per-dataset parameters, the
    preconditioner trajectory obeys its per-round contraction envelope,
    and each dataset finishes inside a minute."""
    name = "C1 noise-free convergence"
    datasets = require_datasets(name, *BOTH)
    failures = []
    timings = []
    for ds in datasets:
        t0 = time.perf_counter()
        sp = compute_spectrum(ds.A)
        K_star = k_star(ds.A)
        for method in METHODS:
            cfg = RunConfig(dataset=ds.name, method=method)
            k_gap = []
            hook = None
            if method == "ipg":
                hook = lambda state, row: k_gap.append(
                    float(np.linalg.norm(state.K - K_star, "fro")))
            trace = run(cfg, dataset=ds, on_iteration=hook)
            tag = f"{ds.name}/{method}"
            if trace.summary["stopped"] != "stoprule":
                failures.append(f"{tag} ended by {trace.summary['stopped']}")
            if min(trace.errors()) > 1e-3:
                failures.append(f"{tag} best err {min(trace.errors()):.2e} > 1e-3")
            if method == "ipg":
                rho = richardson_rate(trace.params["alpha"], sp.lambda_1, sp.lambda_d)
                envelope = k_gap[0] * rho ** np.arange(len(k_gap)) * (1 + 1e-6)
                if np.any(np.asarray(k_gap) > envelope):
                    failures.append(f"{tag} preconditioner left its envelope")
        elapsed = time.perf_counter() - t0
        timings.append(f"{ds.name} {elapsed:.1f}s")
        if elapsed >= 60.0:
            failures.append(f"{ds.name} took {elapsed:.1f}s (budget 60s)")
    detail = "; ".join(failures) if failures else ", ".join(timings)
    assert record(name, not failures, detail), detail


def test_c2_observation_noise_error_table():
    """Monte Carlo mean final errors under measurement noise match the
    reference table on ash608 within 25 percent, and the preconditioned
    method is never worse than any baseline on either dataset."""
    name = "C2 observation-noise error table"
    datasets = require_datasets(name, *BOTH)
    reference = {"ipg": 0.86, "gd": 0.86, "nag": 0.86, "hbm": 0.86,
                 "bfgs": 0.86, "apc": 13.71}
    reps = 24
    failures = []
    means = {}
    for ds in datasets:
        for method in METHODS:
            cfg = RunConfig(dataset=ds.name, method=method,
                            noise="observation", seed=20240817, reps=reps)
            mc = run_monte_carlo(cfg, dataset=ds)
            means[(ds.name, method)] = float(np.mean(mc.final_errs))
    for method, ref in reference.items():
        got = means[("ash608", method)]
        if abs(got - ref) > 0.25 * ref:
            failures.append(f"ash608/{method} mean {got:.3f} vs {ref} (±25%)")
    # "comparable or favourable": allow 2% slack for statistical ties.
    for ds_name in BOTH:
        ipg = means[(ds_name, "ipg")]
        for method in METHODS:
            if method != "ipg" and ipg > means[(ds_name, method)] * 1.02:
                failures.append(f"{ds_name}: ipg {ipg:.3f} > {method} "
                                f"{means[(ds_name, method)]:.3f}")
    detail = "; ".join(failures) if failures else (
        f"ash608 ipg {means[('ash608', 'ipg')]:.3f}, "
        f"gr_30_30 ipg {means[('gr_30_30', 'ipg')]:.3f} over {reps} seeds")
    assert record(name, not failures, detail), detail


def test_c3_process_noise_error_table():
    """Under 4-decimal round-off corruption the preconditioned method
    stays at numerical zero, plain gradient descent on gr_30_30 stalls
    above 1.0, and the quasi-Newton run on ash608 trips the divergence
    flag near round 360."""
    name = "C3 process-noise error table"
    ash, gr = require_datasets(name, *BOTH)
    failures = []
    notes = []
    for ds in (ash, gr):
        trace = run(RunConfig(dataset=ds.name, method="ipg", noise="process"),
                    dataset=ds)
        notes.append(f"ipg/{ds.name} {trace.final_err:.1e}")
        if trace.final_err > 1e-4:
            failures.append(f"ipg on {ds.name} final {trace.final_err:.2e} > 1e-4")
    gd = run(RunConfig(dataset=gr.name, method="gd", noise="process"), dataset=gr)
    notes.append(f"gd/gr_30_30 {gd.final_err:.2f}")
    if not gd.final_err > 1.0:
        failures.append(f"gd on gr_30_30 final {gd.final_err:.3f} not > 1.0")
    bf = run(RunConfig(dataset=ash.name, method="bfgs", noise="process"), dataset=ash)
    if not bf.summary["diverged"]:
        failures.append("bfgs on ash608 did not raise the divergence flag")
    else:
        at = bf.summary["diverged_at"]
        notes.append(f"bfgs/ash608 diverged at {at}")
        if not 180 <= at <= 540:
            failures.append(f"bfgs divergence at round {at}, outside 360 ±50%")
    detail = "; ".join(failures) if failures else ", ".join(notes)
    assert record(name, not failures, detail), detail


def test_c4_one_step_observation_bound():
    """Conditional one-round error bound under measurement noise holds
    in Monte Carlo mean at every round (3-standard-error budget, no
    violations beyond it), and the settled error respects the
    closed-form floor."""
    name = "C4 one-step error bound (observation)"
    spec = "synth:60,10,4.0,3"
    ds = load_dataset(spec)
    sp = compute_spectrum(ds.A)
    m, d, horizon, reps, half_width = 5, 10, 60, 200, 0.05
    alpha = 2.0 / (sp.lambda_1 + sp.lambda_d)
    n_max = max(s.A.shape[0] for s in make_shards(ds, m))
    eta = n_max * half_width / 2.0  # declared per-agent l1 noise budget
    cfg = RunConfig(dataset=spec, method="ipg", noise="observation",
                    seed=7, m=m, alpha=alpha, delta=1.0,
                    noise_level=half_width, stop_tol=0.0, max_iters=horizon)
    errs = np.empty((reps, horizon + 1))
    for r in range(reps):
        trace = run(replace(cfg, seed=rep_seed(cfg.seed, r)), dataset=ds)
        errs[r] = trace.errors()
    bi = bound_inputs_from(sp, m=m, d=d, alpha=alpha, delta=1.0, eta=eta)
    violations = []
    for t in range(horizon):
        diff = errs[:, t + 1] - observation_step_bound(bi, errs[:, t], t)
        mu = diff.mean()
        se = diff.std(ddof=1) / math.sqrt(reps)
        if mu > 3 * se:
            violations.append(t)
    floor = observation_asymptote(bi)
    settled = float(errs[:, -1].mean())
    ok = not violations and settled <= floor
    detail = (f"0/{horizon} round violations over {reps} reps, settled err "
              f"{settled:.3f} <= floor {floor:.3f}") if ok else (
        f"violations at rounds {violations[:5]}, settled {settled:.3f}, "
        f"floor {floor:.3f}")
    assert record(name, ok, detail), detail


def test_c5_trajectory_process_bound():
    """On an instance inside the contraction region for state
    corruption, the Monte Carlo mean error sits below the recursive
    trajectory bound at every round and the long-run mean stays below
    the closed-form asymptote."""
    name = "C5 trajectory bound (process)"
    spec = "synth:60,10,2.0,11"
    ds = load_dataset(spec)
    sp = compute_spectrum(ds.A)
    m, d, horizon, reps = 5, 10, 80, 200
    alpha = 2.0 / (sp.lambda_1 + sp.lambda_d)
    level = 0.002  # omega = d * level / 2 = 0.01
    cfg = RunConfig(dataset=spec, method="ipg", noise="process",
                    process_kind="uniform", process_low=-level,
                    noise_level=level, seed=5, m=m, alpha=alpha,
                    delta=1.0, stop_tol=0.0, max_iters=horizon)
    errs = np.empty((reps, horizon + 1))
    omega = None
    for r in range(reps):
        trace = run(replace(cfg, seed=rep_seed(cfg.seed, r)), dataset=ds)
        errs[r] = trace.errors()
        omega = trace.summary["noise"]["omega"]
    z0 = float(np.linalg.norm(ds.x_star))  # run starts at the origin
    bi = bound_inputs_from(sp, m=m, d=d, alpha=alpha, delta=1.0,
                           omega=omega, z0=z0)
    rho_bd, omega_bd, inside = process_gates(bi)
    assert inside, (bi.rho, rho_bd, omega, omega_bd)
    mu = errs.mean(axis=0)
    se = errs.std(axis=0, ddof=1) / math.sqrt(reps)
    bound = np.array([process_error_bound(bi, t) for t in range(horizon + 1)])
    breaches = np.nonzero(mu > bound + 3 * se)[0]
    tail = float(errs[:, horizon - 20:].mean())
    limit = process_asymptote(bi)
    ok = breaches.size == 0 and tail <= limit
    detail = (f"0/{horizon + 1} rounds above bound, long-run {tail:.4f} <= "
              f"asymptote {limit:.4f}") if ok else (
        f"breaches at rounds {breaches[:5].tolist()}, long-run {tail:.4f}, "
        f"asymptote {limit:.4f}")
    assert record(name, ok, detail), detail


def test_c6_structural_identities():
    """Frozen-identity preconditioning reproduces gradient descent bit
    for bit over 1000 rounds; sharded gradients, finite differences,
    shard round-trips and repeated runs all agree at their stated
    tolerances."""
    name = "C6 structural identities"
    spec = "synth:60,10,4.0,3"
    ds = load_dataset(spec)
    shards = make_shards(ds, 5)
    d = ds.A.shape[1]
    failures = []

    # identity preconditioner, frozen by alpha = 0, vs plain gradient descent, 1000 rounds
    step = 0.2
    xs_gd, xs_ipg = [], []
    run_rounds(make_solver("gd", {"alpha": step}), shards, d, 1000,
               collect=lambda s, t: xs_gd.append(s.x.copy()))
    run_rounds(IPGFrom(alpha=0.0, delta=step, K0=np.eye(d)),
               shards, d, 1000,
               collect=lambda s, t: xs_ipg.append(s.x.copy()))
    if not all(np.array_equal(a, b) for a, b in zip(xs_gd, xs_ipg)):
        failures.append("frozen-identity path differs from gradient descent")

    # sharded gradient sum vs centralized gradient, relative 1e-10
    rng = np.random.default_rng(99)
    for _ in range(3):
        x = rng.standard_normal(d)
        g_sum = sum(agent_gradient(s, x) for s in shards)
        g_full = ds.A.T @ (ds.A @ x - ds.b)
        if np.linalg.norm(g_sum - g_full) > 1e-10 * np.linalg.norm(g_full):
            failures.append("shard gradient sum differs from centralized")
            break

    # centralized gradient vs central finite differences, relative 1e-5
    x = rng.standard_normal(d)
    g_full = ds.A.T @ (ds.A @ x - ds.b)
    h = 1e-6
    fd = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        fp = 0.5 * np.linalg.norm(ds.A @ (x + e) - ds.b) ** 2
        fm = 0.5 * np.linalg.norm(ds.A @ (x - e) - ds.b) ** 2
        fd[j] = (fp - fm) / (2 * h)
    if np.linalg.norm(fd - g_full) > 1e-5 * np.linalg.norm(g_full):
        failures.append("gradient disagrees with finite differences")

    # shard round-trip is exact
    for m in (1, 4, 10):
        a_back, b_back = reassemble(make_shards(ds, m), *ds.A.shape)
        if not (np.array_equal(a_back, ds.A) and np.array_equal(b_back, ds.b)):
            failures.append(f"shard round-trip not exact for m={m}")

    # identical configs give byte-identical traces (timing aside)
    for noise, method in (("observation", "ipg"), ("process", "gd")):
        cfg = RunConfig(dataset=spec, method=method, noise=noise, seed=123,
                        m=5, max_iters=60, stop_tol=0.0, noise_level=0.05,
                        process_kind="roundoff")
        t1 = run(cfg, dataset=ds)
        t2 = run(cfg, dataset=ds)
        if trace_csv_text(t1) != trace_csv_text(t2):
            failures.append(f"{noise} rerun changed the csv trace")
        o1, o2 = trace_json_obj(t1), trace_json_obj(t2)
        for o in (o1, o2):
            o["summary"].pop("wall_time_s")
        if json.dumps(o1, sort_keys=True) != json.dumps(o2, sort_keys=True):
            failures.append(f"{noise} rerun changed the json trace")

    detail = "; ".join(failures) if failures else (
        "frozen-identity 1000 rounds, gradient sum, finite differences, "
        "shard round-trip, double-run bytes")
    assert record(name, not failures, detail), detail


def test_c7_inverse_gram_identities():
    """The computed inverse Gram matrix inverts A^T A to 1e-8 per
    dimension and has the spectral norm 1/sqrt(lambda_d) when applied
    to A^T, on both benchmark matrices."""
    name = "C7 inverse-Gram identities"
    datasets = require_datasets(name, *BOTH)
    failures = []
    notes = []
    for ds in datasets:
        sp = compute_spectrum(ds.A)
        d = ds.A.shape[1]
        K_star = k_star(ds.A)
        resid = np.linalg.norm(K_star @ (ds.A.T @ ds.A) - np.eye(d), "fro")
        notes.append(f"{ds.name} resid {resid:.1e}")
        if resid > 1e-8 * d:
            failures.append(f"{ds.name}: inversion residual {resid:.2e} > 1e-8*d")
        want = 1.0 / math.sqrt(sp.lambda_d)
        got = np.linalg.norm(K_star @ ds.A.T, 2)
        if abs(got - want) > 1e-6 * want:
            failures.append(f"{ds.name}: |K* A^T| = {got:.8g}, want {want:.8g}")
    detail = "; ".join(failures) if failures else ", ".join(notes)
    assert record(name, not failures, detail), detail
