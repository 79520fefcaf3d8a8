"""End-to-end acceptance checks, one labeled verdict line each.

Every check rests on an exact closed-form oracle, a bound-dominance
property, a solver residual, or byte-level determinism — the four kinds of
evidence this package is built to produce.  Each test times itself against
its stated budget and reports one PASS/FAIL line in the terminal summary.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import mpmath
import numpy as np
import pytest
from scipy import stats

from lsalab import (
    ExperimentConfig,
    alpha_p_inf,
    b_uq_exact,
    b_uq_upper,
    biased_rademacher_model,
    bounded_factor_model,
    composite_hp_bound,
    composition_count,
    contraction_horizon,
    coupled_exact_sq,
    coupled_w2,
    delta_alpha_root,
    empirical_ks,
    empirical_quantile,
    exact_product_moment,
    final_errors,
    geometric_sum_check,
    mc_norm_moment,
    product_moment_bound,
    q_norm_mat,
    rademacher_bounds,
    rademacher_exact_tail,
    rademacher_tail_thresholds,
    run,
    sample_stationary,
    solve_lyapunov,
    solve_riccati,
    solve_sigma,
    spectral_profile,
    stream,
    v_geometric_constants,
    write_outputs,
)

EXPERIMENT_NAMES = (
    "lyapunov", "bounds", "simulate", "rademacher", "clt", "wasserstein", "rosenthal",
)


def random_hurwitz(gen: np.random.Generator, d: int) -> np.ndarray:
    """Random matrix with eigenvalues of positive real part (PSD + margin
    plus a skew part), the stability class every solver here assumes."""
    g = gen.standard_normal((d, d))
    r = gen.standard_normal((d, d))
    return g @ g.T / d + 0.1 * np.eye(d) + 0.5 * (r - r.T)


def random_spd(gen: np.random.Generator, d: int) -> np.ndarray:
    e = gen.standard_normal((d, d))
    return e @ e.T / d + 0.1 * np.eye(d)


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    return float(
        np.linalg.norm(lhs - rhs) / max(1e-300, np.linalg.norm(rhs))
    )


def test_01_solver_residuals(acceptance):
    budget = 5.0
    started = perf_counter()
    worst = 0.0
    for trial in range(100):
        gen = stream(900 + trial, 0)
        d = 1 + trial % 8
        abar = random_hurwitz(gen, d)
        eye = np.eye(d)
        sig_eps = random_spd(gen, d)
        alpha = 0.3 / np.linalg.norm(abar, 2)

        q = solve_lyapunov(abar)
        sig = solve_sigma(abar, sig_eps)
        sig_a = solve_riccati(abar, sig_eps, alpha)

        worst = max(
            worst,
            rel_residual(abar.T @ q + q @ abar, eye),
            rel_residual(abar @ sig + sig @ abar.T, sig_eps),
            rel_residual(
                abar @ sig_a + sig_a @ abar.T - alpha * (abar @ sig_a @ abar.T),
                sig_eps,
            ),
        )
    elapsed = perf_counter() - started
    ok = worst <= 1e-10 and elapsed < budget
    acceptance(
        "1. Lyapunov/stationary/finite-step solver residuals <= 1e-10 "
        "(100 random stable instances, d <= 8)",
        ok,
        f"worst rel residual {worst:.3g}, {elapsed:.2f}s < {budget:g}s",
    )
    assert worst <= 1e-10
    assert elapsed < budget


def test_02_weighted_contraction(acceptance):
    budget = 1.0
    started = perf_counter()
    worst_slack = -np.inf
    for trial in range(50):
        gen = stream(1700 + trial, 0)
        d = 1 + trial % 6
        abar = random_hurwitz(gen, d)
        profile = spectral_profile(abar, c_a=float(np.linalg.norm(abar, 2)))
        alpha = float(gen.uniform(0.0, 1.0)) * profile.alpha_inf
        lhs = q_norm_mat(np.eye(d) - alpha * abar, profile.q) ** 2
        rhs = 1.0 - profile.a * alpha
        worst_slack = max(worst_slack, lhs - rhs)
    elapsed = perf_counter() - started
    ok = worst_slack <= 1e-12 and elapsed < budget
    acceptance(
        "2. weighted-norm one-step contraction ||I - alpha*Abar||_Q^2 <= 1 - a*alpha "
        "(50 random pairs, alpha <= alpha_inf)",
        ok,
        f"worst excess {worst_slack:.3g} <= 1e-12, {elapsed:.2f}s < {budget:g}s",
    )
    assert worst_slack <= 1e-12
    assert elapsed < budget


def test_03_product_moment_tightness(acceptance):
    budget = 30.0
    started = perf_counter()
    model = biased_rademacher_model(0.75)
    profile = spectral_profile(np.array([[0.5]]), c_a=1.0)
    alpha, p = 0.1, 2.0
    worst_z = 0.0
    dominated = True
    detail_bits = []
    for n in (10, 50, 200):
        est = mc_norm_moment(model, alpha, n, p, 100_000, seed=11)
        exact = (0.75 * 0.9**2 + 0.25 * 1.1**2) ** (n / 2)
        bound = product_moment_bound(profile, p, alpha, n)
        z = abs(est.value - exact) / est.std_err
        worst_z = max(worst_z, z)
        dominated = dominated and est.value <= bound
        detail_bits.append(f"n={n}: z={z:.2f}")
    elapsed = perf_counter() - started
    ok = worst_z <= 3.0 and dominated and elapsed < budget
    acceptance(
        "3. matrix-product second moment: MC (N=1e5) within 3*SE of the exact "
        "0.91^(n/2) oracle and below the moment bound (n in {10, 50, 200})",
        ok,
        "; ".join(detail_bits) + f", bound dominance {dominated}, "
        f"{elapsed:.2f}s < {budget:g}s",
    )
    assert worst_z <= 3.0
    assert dominated
    assert elapsed < budget


def test_04_exact_tail_thresholds(acceptance):
    budget = 1.0
    started = perf_counter()
    q_a, alpha = 0.75, 0.1
    upper_ok = True
    for n in (100, 400, 1000):
        for delta in (0.1, 0.01):
            t = rademacher_tail_thresholds(q_a, alpha, n, delta, "upper")
            upper_ok = upper_ok and rademacher_exact_tail(q_a, alpha, n, t) <= delta
    lower_ok = True
    for n in (400, 1000):
        t = rademacher_tail_thresholds(q_a, alpha, n, 0.05, "lower")
        lower_ok = lower_ok and rademacher_exact_tail(q_a, alpha, n, t) >= 0.05
    elapsed = perf_counter() - started
    ok = upper_ok and lower_ok and elapsed < budget
    acceptance(
        "4. biased +-1 chain: exact binomial tail <= delta at the upper threshold "
        "(delta in {0.1, 0.01}, n in {100, 400, 1000}) and >= 0.05 at the lower "
        "threshold (n in {400, 1000})",
        ok,
        f"upper {upper_ok}, lower {lower_ok}, {elapsed:.3f}s < {budget:g}s",
    )
    assert upper_ok
    assert lower_ok
    assert elapsed < budget


def test_05_moment_blowup_base(acceptance):
    budget = 1.0
    started = perf_counter()
    q_a, alpha = 0.75, 0.1
    with mpmath.workdps(60):
        qm, am = mpmath.mpf("0.75"), mpmath.mpf("0.1")
        oracle_2 = float(qm * (1 - am) ** 2 + (1 - qm) * (1 + am) ** 2)
        oracle_41 = float(qm * (1 - am) ** 41 + (1 - qm) * (1 + am) ** 41)
    chain = biased_rademacher_model(q_a)
    base_2 = exact_product_moment(chain, alpha, 2.0, 1)
    base_41 = exact_product_moment(chain, alpha, 41.0, 1)
    _, _, p_bar = rademacher_bounds(q_a, alpha)

    def sig4(x: float) -> str:
        return f"{x:.4g}"

    ok = (
        sig4(base_2) == sig4(oracle_2) == "0.91"
        and sig4(base_41) == sig4(oracle_41) == "12.46"
        and abs(base_2 - oracle_2) <= 1e-12
        and abs(base_41 - oracle_41) / oracle_41 <= 1e-12
        and p_bar == 41.0
    )
    elapsed = perf_counter() - started
    ok = ok and elapsed < budget
    acceptance(
        "5. one-step moment base q(1-a)^p + (1-q)(1+a)^p = 0.91 at p=2 and "
        "12.46 at p=41 (the blow-up order), 4 significant digits vs a "
        "60-digit oracle",
        ok,
        f"p=2: {base_2!r}, p=41: {base_41!r}, p_bar={p_bar}, "
        f"{elapsed:.3f}s < {budget:g}s",
    )
    assert ok
    assert elapsed < budget


def test_06_stationarity_and_clt(acceptance):
    budget = 180.0
    started = perf_counter()
    model = bounded_factor_model(
        np.array([[1.0]]), np.array([0.0]), np.array([[1.0]]), 0.5, 1.0
    )
    n_samples = 20_000
    samples = {}
    var_ok = True
    detail_bits = []
    for alpha in (0.1, 0.05, 0.01):
        x = sample_stationary(model, alpha, n_samples, seed=37).ravel()
        samples[alpha] = x
        var = x.var(ddof=1)
        exact = alpha / (2.0 - 1.25 * alpha)
        centered = x - x.mean()
        se_var = math.sqrt(
            max(0.0, np.mean(centered**4) - var**2) / len(x)
        )
        z = abs(var - exact) / se_var
        detail_bits.append(f"alpha={alpha}: z={z:.2f}")
        if alpha in (0.1, 0.05):
            var_ok = var_ok and z <= 4.0

    exact_gaps = [1.0 / (2.0 - 1.25 * a) - 0.5 for a in (0.1, 0.05, 0.01)]
    monotone = exact_gaps[0] > exact_gaps[1] > exact_gaps[2] > 0.0
    gap_ok = True
    for alpha, exact_gap in zip((0.1, 0.05, 0.01), exact_gaps):
        x = samples[alpha]
        var = x.var(ddof=1)
        centered = x - x.mean()
        se_var = math.sqrt(max(0.0, np.mean(centered**4) - var**2) / len(x))
        gap_ok = gap_ok and abs(var / alpha - 0.5 - exact_gap) <= 4.0 * se_var / alpha

    sig_alpha = solve_riccati(np.array([[1.0]]), model.sigma_eps_exact, 0.01)[0, 0]
    scale = math.sqrt(sig_alpha)
    ks = empirical_ks(
        samples[0.01] / math.sqrt(0.01), lambda t: stats.norm.cdf(t, scale=scale)
    )
    ks_ok = ks <= 0.02
    elapsed = perf_counter() - started
    ok = var_ok and monotone and gap_ok and ks_ok and elapsed < budget
    acceptance(
        "6. stationary law: variance (N=2e4) within 4*SE of alpha/(2-1.25*alpha); "
        "rescaled variance decreases to 0.5 across alpha in {0.1, 0.05, 0.01}; "
        "KS of rescaled samples vs the finite-step normal law <= 0.02 at alpha=0.01",
        ok,
        "; ".join(detail_bits)
        + f"; exact gaps {exact_gaps[0]:.4f}>{exact_gaps[1]:.4f}>{exact_gaps[2]:.4f}, "
        f"gaps within 4*SE {gap_ok}, KS={ks:.4f}, {elapsed:.1f}s < {budget:g}s",
    )
    assert var_ok
    assert monotone
    assert gap_ok
    assert ks_ok
    assert elapsed < budget


def test_07_synchronous_coupling_rate(acceptance):
    budget = 30.0
    started = perf_counter()
    model = biased_rademacher_model(0.75)
    alpha, n = 0.1, 200
    est, se = coupled_w2(
        model, alpha, n, np.array([1.0]), np.array([-1.0]), 20_000, seed=23
    )
    exact = np.sqrt(coupled_exact_sq(model, alpha, n, np.array([2.0])))
    # delta-method SE is 0 at k=0 where both sides equal |Delta_0| exactly
    z = np.where(
        se > 0.0,
        np.abs(est - exact) / np.where(se > 0.0, se, 1.0),
        np.where(est == exact, 0.0, np.inf),
    )
    worst_z = float(z.max())
    elapsed = perf_counter() - started
    ok = worst_z <= 3.0 and elapsed < budget
    acceptance(
        "7. synchronous coupling: E^(1/2)|Delta_n|^2 within 3*SE of the exact "
        "0.91^(n/2)*|Delta_0| rate at every step n <= 200",
        ok,
        f"worst z {worst_z:.2f} (step {int(z.argmax())}), "
        f"{elapsed:.2f}s < {budget:g}s",
    )
    assert worst_z <= 3.0
    assert elapsed < budget


def test_08_composite_bound_dominance(acceptance):
    budget = 120.0
    started = perf_counter()
    model = bounded_factor_model(
        np.array([[0.5]]), np.array([0.0]), np.array([[1.0]]), 0.1, 1.0
    )
    profile = spectral_profile(np.array([[0.5]]), c_a=model.c_a)
    alpha, n, p0 = 0.05, 500, 4.0
    assert alpha < alpha_p_inf(profile, p0)  # the moment order is admissible
    theta0 = np.array([1.0])
    errs = np.abs(final_errors(model, alpha, theta0, n, 100_000, seed=41)).ravel()
    dominated = True
    detail_bits = []
    for delta in (0.1, 0.01, 0.001):
        # the assembled bound holds with confidence 1 - 4*delta, so the
        # (1-delta)-quantile is compared against the bound at delta/4
        report = composite_hp_bound(profile, model, p0, alpha, n, theta0, delta / 4.0)
        quantile = empirical_quantile(errs, 1.0 - delta)
        dominated = dominated and quantile <= report.value
        detail_bits.append(f"delta={delta}: q={quantile:.3g} <= {report.value:.3g}")
    elapsed = perf_counter() - started
    ok = dominated and elapsed < budget
    acceptance(
        "8. assembled high-probability bound dominates empirical (1-delta)-"
        "quantiles over N=1e5 trajectories (alpha=0.05, n=500, p0=4, "
        "delta in {0.1, 0.01, 0.001})",
        ok,
        "; ".join(detail_bits) + f", {elapsed:.1f}s < {budget:g}s",
    )
    assert dominated
    assert elapsed < budget


def test_09_rosenthal_machinery(acceptance):
    budget = 10.0
    started = perf_counter()

    dominance = all(
        b_uq_exact(u, q, rho) <= b_uq_upper(u, q, rho)
        for q in range(2, 9)
        for u in range(1, q)
        for rho in (0.1, 0.5, 0.9)
    )
    counts = all(
        composition_count(u, q) == math.comb(2 * q - u - 1, u - 1)
        for q in range(2, 11)
        for u in range(1, q)
    )

    worst_residual = 0.0
    roots_found = 0
    for epsilon in (0.05, 0.1):
        constants = v_geometric_constants(0.5, 0.1, 1, epsilon, 9.0)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            root = delta_alpha_root(
                constants.lambda_bar_m, constants.b_m, constants.d_bar, epsilon, alpha
            )
            if root is None:
                continue
            roots_found += 1
            lhs = (1.0 - epsilon) ** ((1.0 - alpha) / alpha) * (
                constants.lambda_bar_m + constants.b_m + root
            ) / (1.0 + root)
            rhs = (constants.lambda_bar_m * constants.d_bar + root) / (
                constants.d_bar + root
            )
            worst_residual = max(worst_residual, abs(lhs - rhs))

    horizon_ok = True
    for trial in range(30):
        gen = stream(2600 + trial, 0)
        d = 1 + trial % 5
        abar = random_hurwitz(gen, d)
        profile = spectral_profile(abar, c_a=float(np.linalg.norm(abar, 2)))
        alpha = 0.5 * profile.alpha_inf
        for epsilon in (0.1, 0.5):
            m = contraction_horizon(profile, alpha, epsilon)
            rate = 1.0 - alpha * profile.a / 2.0
            holds = profile.kappa_q * rate ** (m / 2.0) <= (1.0 - epsilon) * (1 + 1e-12)
            minimal = m == 1 or profile.kappa_q * rate ** ((m - 1) / 2.0) > (
                1.0 - epsilon
            ) * (1 - 1e-12)
            horizon_ok = horizon_ok and holds and minimal

    elapsed = perf_counter() - started
    ok = (
        dominance
        and counts
        and worst_residual <= 1e-12
        and roots_found > 0
        and horizon_ok
        and elapsed < budget
    )
    acceptance(
        "9. cumulant machinery: exact B_uq never exceeds its closed-form upper "
        "bound (q <= 8); composition counts match C(2q-u-1, u-1) (q <= 10); "
        "interpolation roots solve their equation to 1e-12; contraction "
        "horizons are valid and minimal",
        ok,
        f"dominance {dominance}, counts {counts}, worst root residual "
        f"{worst_residual:.2g} over {roots_found} roots, horizons {horizon_ok}, "
        f"{elapsed:.2f}s < {budget:g}s",
    )
    assert dominance
    assert counts
    assert worst_residual <= 1e-12 and roots_found > 0
    assert horizon_ok
    assert elapsed < budget


def test_10_geometric_sum_identity(acceptance):
    budget = 1.0
    started = perf_counter()
    a = 2.0
    worst = 0.0
    for trial in range(100):
        gen = stream(3300 + trial, 0)
        length = 1 + trial % 50
        steps = np.sort(gen.uniform(1e-6, 0.4999, size=length))[::-1]
        worst = max(worst, geometric_sum_check(steps, a))
    elapsed = perf_counter() - started
    ok = worst <= 1e-10 and elapsed < budget
    acceptance(
        "10. weighted geometric-sum identity residual <= 1e-10 on 100 random "
        "non-increasing stepsize sequences",
        ok,
        f"worst residual {worst:.3g}, {elapsed:.3f}s < {budget:g}s",
    )
    assert worst <= 1e-10
    assert elapsed < budget


def test_11_scheduling_determinism(acceptance, tmp_path):
    small = {
        "lyapunov": dict(n_traj=3),
        "bounds": dict(alphas=(0.1,), ns=(10,), ps=(2.0,), n_traj=2000),
        "simulate": dict(alphas=(0.1,), ns=(50,), n_traj=20),
        "rademacher": dict(alphas=(0.1,), ns=(400,), deltas=(0.1,)),
        "clt": dict(alphas=(0.1,), n_traj=2000),
        "wasserstein": dict(alphas=(0.1,), ns=(20,), n_traj=300),
        "rosenthal": dict(alphas=(0.25,), qs=(2,), rhos=(0.5,), n_traj=3),
    }
    started = perf_counter()
    all_identical = True
    mismatches = []
    for name in EXPERIMENT_NAMES:
        outputs = {}
        for workers in (1, 8):
            out = str(tmp_path / f"{name}_w{workers}")
            cfg = ExperimentConfig(
                experiment=name, seed=7, workers=workers, out=out, format="both",
                **small[name],
            )
            rows = run(cfg)
            write_outputs(cfg, rows, 0.0)
            payload = json.loads((tmp_path / f"{name}_w{workers}.json").read_text())
            del payload["metadata"]["wall_time_s"]  # the only timing field
            outputs[workers] = (
                (tmp_path / f"{name}_w{workers}.csv").read_bytes(), payload,
            )
        same = outputs[1] == outputs[8]
        all_identical = all_identical and same
        if not same:
            mismatches.append(name)
    elapsed = perf_counter() - started
    acceptance(
        "11. identical outputs for worker counts {1, 8} under a fixed seed on "
        "every experiment (CSV bytes; JSON up to the timing field)",
        all_identical,
        (f"mismatches: {', '.join(mismatches)}" if mismatches else "all 7 identical")
        + f", {elapsed:.1f}s",
    )
    assert all_identical, mismatches
