"""Closed-form bound evaluators for the fixed-stepsize linear recursion.

Every function here is a pure evaluator: given a spectral profile (and, where
needed, a model or a handful of scalars) it returns the value of one of the
closed-form moment or high-probability bounds.  Nothing in this module
simulates; the Monte Carlo counterparts live in ``engine``.

Two conventions apply throughout:

* Powers that can overflow at large ``n`` or ``p`` are computed in log-space
  and exponentiated once.
* Stepsizes and confidence levels outside a bound's admissible range are hard
  errors, never silently clamped — outside its range the bound is vacuous and
  clamping would hide that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lsalab.linalg import (
    SpectralProfile,
    alpha_p_inf,
    q_norm_mat,
    solve_riccati,
    spectral_norm,
)
from lsalab.noise import LsaModel, eps_subgauss_const

# Gaussian-envelope constant.  The exponent 4/3 variant is used everywhere;
# a weaker 2/3 variant of the same constant exists but is not evaluated.
D1 = 60.0 * math.sqrt(3.0) * math.exp(4.0 / 3.0)

# Flag strings attached to reports.
FLAG_D1_EXPONENT = "d1_exponent=4/3"
FLAG_CONFIDENCE = "confidence=1-4*delta"
FLAG_D3_STEP_FACTOR = "d3_tail_factor=evaluation_stepsize"

# When 1 - a*alpha_inf falls below this, the closed-form tail factor
# 1/(1 - a*alpha_inf) in D3 is treated as degenerate (it is exactly zero for
# every one-dimensional profile) and the factor 1/(1 - a*alpha) at the
# evaluation stepsize is used instead, with FLAG_D3_STEP_FACTOR attached.
D3_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value, inputs, and every intermediate constant.

    ``value`` is the bound itself (a threshold on the natural scale of the
    bounded quantity); ``parts`` are the documented additive pieces and sum
    to ``value`` exactly; ``constants`` are the named intermediate constants;
    ``flags`` record conventions and fallbacks that affected the evaluation.
    Treat the mappings as read-only.
    """

    name: str
    value: float
    inputs: dict[str, float] = field(default_factory=dict)
    constants: dict[str, float] = field(default_factory=dict)
    parts: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"bound value must be finite and >= 0, got {self.value}")
        if self.parts:
            total = 0.0
            for v in self.parts.values():
                total += v
            if total != self.value:
                raise ValueError(
                    f"parts sum {total!r} does not reproduce value {self.value!r}"
                )


def _check_delta(delta: float, hi: float, what: str, *, closed_hi: bool = False) -> None:
    ok = 0.0 < delta <= hi if closed_hi else 0.0 < delta < hi
    if not ok:
        bracket = "]" if closed_hi else ")"
        raise ValueError(f"{what} needs delta in (0, {hi}{bracket}, got {delta}")


# ---------------------------------------------------------------------------
# Intermediate constants D2..D4 (D1 is the module constant above).
# ---------------------------------------------------------------------------


def d2_constant(profile: SpectralProfile, c_eps: float) -> float:
    """540*sqrt(3)*e^(1/3)*sqrt(kappa_q)*c_eps."""
    return 540.0 * math.sqrt(3.0) * math.exp(1.0 / 3.0) * math.sqrt(profile.kappa_q) * c_eps


def d3_constant(
    profile: SpectralProfile, c_eps: float, alpha: float
) -> tuple[float, str | None]:
    """72*sqrt(2)*c_a*kappa_q*c_eps/a times a geometric tail factor.

    The closed-form tail factor is 1/(1 - a*alpha_inf).  For every
    one-dimensional profile a*alpha_inf equals 1 exactly, which makes that
    factor infinite; the underlying geometric sums are still summable at any
    admissible stepsize, with factor 1/(1 - a*alpha).  In the degenerate case
    the evaluation-stepsize factor is used and ``FLAG_D3_STEP_FACTOR`` is
    returned alongside the value.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    lead = 72.0 * math.sqrt(2.0) * profile.c_a * profile.kappa_q * c_eps / profile.a
    margin = 1.0 - profile.a * profile.alpha_inf
    if margin > D3_DEGENERACY_TOL:
        return lead / margin, None
    step_margin = 1.0 - profile.a * alpha
    if step_margin <= D3_DEGENERACY_TOL:
        raise ValueError(
            f"tail factor degenerate at alpha_inf and alpha={alpha} leaves no "
            f"contraction margin (a*alpha = {profile.a * alpha})"
        )
    return lead / step_margin, FLAG_D3_STEP_FACTOR


def d4_constant(
    profile: SpectralProfile, c_eps: float, alpha: float, p0: float
) -> tuple[float, str | None]:
    """4*c_a*sqrt(kappa_q)*d^(1/p0)*D3/a."""
    d3, flag = d3_constant(profile, c_eps, alpha)
    value = (
        4.0
        * profile.c_a
        * math.sqrt(profile.kappa_q)
        * profile.dim ** (1.0 / p0)
        * d3
        / profile.a
    )
    return value, flag


# ---------------------------------------------------------------------------
# Random-matrix-product bounds.
# ---------------------------------------------------------------------------


def _check_alpha(profile: SpectralProfile, alpha: float) -> None:
    """Raise unless alpha lies in [0, alpha_inf], the stepsizes these bounds cover."""
    if not 0.0 <= alpha <= profile.alpha_inf:
        raise ValueError(f"alpha={alpha} outside [0, alpha_inf={profile.alpha_inf:.6g}]")


def product_moment_bound(profile: SpectralProfile, p: float, alpha: float, n: int) -> float:
    """p-th moment bound on the n-step product of (I - alpha*A_k) factors.

    sqrt(kappa_q) * d^(1/p) * (1 - a*alpha + (p-1)*b_q^2*alpha^2)^(n/2),
    for moment orders p >= 2.  Raises ValueError past the float range.
    """
    if not p >= 2.0:
        raise ValueError(f"p must be >= 2, got {p}")
    _check_alpha(profile, alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base = 1.0 - profile.a * alpha + (p - 1.0) * profile.b_q**2 * alpha * alpha
    if base < 0.0:
        raise ValueError(
            f"contraction base negative at alpha={alpha}; the p={p} moment "
            f"stepsize cap is alpha_p_inf = {alpha_p_inf(profile, p):.6g}"
        )
    log_head = 0.5 * math.log(profile.kappa_q) + math.log(profile.dim) / p
    if n == 0:
        return math.exp(log_head)
    if base == 0.0:
        return 0.0
    log_value = log_head + 0.5 * n * math.log(base)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"bound at n={n} is exp({log_value:.6g}), past the float range") from None


def product_hp_bound(
    profile: SpectralProfile, alpha: float, n: int, delta: float
) -> float:
    """High-probability bound on the n-step product norm.

    sqrt(kappa_q) * exp(-(a*alpha - alpha^2*b_q^2)*n/2
                        + b_q*alpha*sqrt(2*n*log(d/delta))).
    """
    _check_delta(delta, 1.0, "product_hp_bound", closed_hi=True)
    _check_alpha(profile, alpha)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    log_ratio = math.log(profile.dim / delta)
    logv = (
        0.5 * math.log(profile.kappa_q)
        - (profile.a * alpha - alpha**2 * profile.b_q**2) * n / 2.0
        + profile.b_q * alpha * math.sqrt(2.0 * n * log_ratio)
    )
    return math.exp(logv)


def moments_to_hp(
    a_coef: float, b_coef: float, c_coef: float, p0: float, p1: float, delta: float
) -> float:
    """Quantile bound from a two-parameter moment envelope.

    For a variable with E|X|^p <= c * exp(-a*p + b*p^2) on p in [p0, p1]
    (p1 may be inf), returns the threshold

        exp(-a + b*p0 + 2*sqrt(b*log(c/delta)) + log(c/delta)/p1)

    exceeded with probability at most delta; the p1 term is zero at p1 = inf.
    """
    if b_coef <= 0.0:
        raise ValueError(f"b must be > 0, got {b_coef}")
    if c_coef < 1.0:
        raise ValueError(f"c must be >= 1, got {c_coef}")
    if not 1.0 <= p0 <= p1:
        raise ValueError(f"need 1 <= p0 <= p1, got p0={p0}, p1={p1}")
    _check_delta(delta, 1.0, "moments_to_hp", closed_hi=True)
    log_ratio = math.log(c_coef / delta)
    tail = 0.0 if math.isinf(p1) else log_ratio / p1
    return math.exp(-a_coef + b_coef * p0 + 2.0 * math.sqrt(b_coef * log_ratio) + tail)


# ---------------------------------------------------------------------------
# Per-term high-probability bounds on the error decomposition.
# ---------------------------------------------------------------------------


def transient_hp_bound(
    profile: SpectralProfile,
    p0: float,
    alpha: float,
    n: int,
    theta0_err: float,
    delta: float,
) -> float:
    """Decay of the initial-condition term:

    sqrt(kappa_q) * d^(1/p0) * (1 - a*alpha/4)^n * theta0_err * delta^(-1/p0).
    """
    if p0 < 2.0:
        raise ValueError(f"p0 must be >= 2, got {p0}")
    cap = alpha_p_inf(profile, p0)
    if not 0.0 < alpha < cap:
        raise ValueError(
            f"alpha={alpha} outside (0, alpha_p_inf={cap:.6g}) at p0={p0}"
        )
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if theta0_err < 0.0:
        raise ValueError(f"theta0_err must be >= 0, got {theta0_err}")
    _check_delta(delta, 1.0, "transient_hp_bound", closed_hi=True)
    return (
        math.sqrt(profile.kappa_q)
        * profile.dim ** (1.0 / p0)
        * (1.0 - profile.a * alpha / 4.0) ** n
        * theta0_err
        * delta ** (-1.0 / p0)
    )


def _j0_terms(
    var_term: float, rate: float, alpha: float, d2: float, log2d: float
) -> tuple[float, float]:
    """The two pieces of the fluctuation-term bound, shared with composites."""
    t1 = D1 * math.sqrt(var_term * log2d)
    if alpha == 0.0:
        t2 = 0.0
    else:
        t2 = alpha * math.sqrt(1.0 + math.log(1.0 / (rate * alpha))) * d2 * log2d**1.5
    return t1, t2


def j0_hp_bound(
    var_term: float,
    profile: SpectralProfile,
    alpha: float,
    delta: float,
    c_eps: float,
) -> float:
    """High-probability bound on the linear-noise fluctuation term.

    D1*sqrt(var_term*log(2/delta))
      + alpha*sqrt(1 + log(1/(a*alpha)))*D2*log(2/delta)^(3/2)

    where ``var_term`` is the variance of the projected fluctuation
    (u' Sigma_n u on the natural scale) and D2 = d2_constant(profile, c_eps).
    """
    if var_term < 0.0:
        raise ValueError(f"var_term must be >= 0, got {var_term}")
    _check_delta(delta, 1.0, "j0_hp_bound")
    if alpha < 0.0 or profile.a * alpha > 1.0:
        raise ValueError(
            f"need 0 <= a*alpha <= 1, got a*alpha = {profile.a * alpha}"
        )
    t1, t2 = _j0_terms(
        var_term, profile.a, alpha, d2_constant(profile, c_eps), math.log(2.0 / delta)
    )
    return t1 + t2


def j1_h1_bounds(
    profile: SpectralProfile,
    p0: float,
    alpha: float,
    delta: float,
    c_eps: float,
) -> tuple[float, float]:
    """High-probability bounds on the two higher-order remainder terms:

        (e*D3*alpha*log(1/delta)^2,  D4*alpha*p0^2*delta^(-1/p0))
    """
    if p0 < 2.0:
        raise ValueError(f"p0 must be >= 2, got {p0}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    _check_delta(delta, 0.5, "j1_h1_bounds")
    d3, _ = d3_constant(profile, c_eps, alpha)
    log1d = math.log(1.0 / delta)
    j_part = math.e * d3 * alpha * log1d**2
    d4, _ = d4_constant(profile, c_eps, alpha, p0)
    h_part = d4 * alpha * p0**2 * delta ** (-1.0 / p0)
    return j_part, h_part


def composite_hp_bound(
    profile: SpectralProfile,
    model: LsaModel,
    p0: float,
    alpha: float,
    n: int,
    theta0: np.ndarray,
    delta: float,
    *,
    u: np.ndarray | None = None,
) -> BoundReport:
    """Assembled high-probability bound on |u'(theta_n - theta_star)|.

    The bound holds with probability at least 1 - 4*delta and is the exact
    sum of the four documented parts:

        j0_main      = D1*sqrt(alpha * u'S^a u * log(2/delta))
        j0_remainder = alpha*sqrt(1+log(1/(a*alpha)))*D2*log(2/delta)^(3/2)
        j1_h1        = both remainder-term bounds from j1_h1_bounds
        transient    = decay^n * [theta0 piece + D1*sqrt(alpha*kappa_q/a *
                       ||Sigma_eps||*log(2/delta)) piece]

    with decay = 1 - a*alpha/4.  S^a is the stepsize-corrected stationary
    covariance from ``solve_riccati``; u defaults to the first coordinate
    direction and must be a unit vector.
    """
    _check_delta(delta, 0.25, "composite_hp_bound")
    if p0 < 2.0:
        raise ValueError(f"p0 must be >= 2, got {p0}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    dim = profile.dim
    if model.dim != dim:
        raise ValueError(f"model dim {model.dim} != profile dim {dim}")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float)).reshape(-1)
    if theta0.shape != (dim,):
        raise ValueError(f"theta0 must have shape ({dim},), got {theta0.shape}")
    if u is None:
        u = np.zeros(dim)
        u[0] = 1.0
    else:
        u = np.atleast_1d(np.asarray(u, dtype=float)).reshape(-1)
        if u.shape != (dim,):
            raise ValueError(f"u must have shape ({dim},), got {u.shape}")
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
            raise ValueError("u must be a unit vector")

    cap = alpha_p_inf(profile, p0)
    if not 0.0 < alpha < cap:
        raise ValueError(
            f"alpha={alpha} outside (0, {cap:.6g}) (= alpha_p_inf(p0={p0}))"
        )

    sige = model.sigma_eps_exact
    sigma_alpha = solve_riccati(model.abar, sige, alpha)
    quad = float(u @ sigma_alpha @ u)
    scale = max(1.0, float(np.abs(sigma_alpha).max()))
    if quad < -1e-10 * scale:
        raise ValueError(f"u'S^a u = {quad} is negative; S^a is not PSD")
    quad = max(quad, 0.0)

    c_eps = eps_subgauss_const(model)
    d2 = d2_constant(profile, c_eps)
    d3, d3_flag = d3_constant(profile, c_eps, alpha)
    sige_norm = spectral_norm(sige)
    theta0_err = float(np.linalg.norm(theta0 - model.theta_star))
    log2d = math.log(2.0 / delta)

    j0_main, j0_rem = _j0_terms(alpha * quad, profile.a, alpha, d2, log2d)
    j1, h1 = j1_h1_bounds(profile, p0, alpha, delta, c_eps)
    decay = 1.0 - profile.a * alpha / 4.0
    tr_theta = transient_hp_bound(profile, p0, alpha, n, theta0_err, delta)
    tr_noise = decay**n * D1 * math.sqrt(
        alpha * (profile.kappa_q / profile.a) * sige_norm * log2d
    )

    parts = {
        "j0_main": j0_main,
        "j0_remainder": j0_rem,
        "j1_h1": j1 + h1,
        "transient": tr_theta + tr_noise,
    }
    value = 0.0
    for v in parts.values():
        value += v

    constants = {
        "d1": D1,
        "d2": d2,
        "d3": d3,
        "c_eps": c_eps,
        "kappa_q": profile.kappa_q,
        "a": profile.a,
        "alpha_inf": profile.alpha_inf,
        "alpha_cap": cap,
        "decay_base": decay,
        "sigma_quad": quad,
        "sigma_eps_norm": sige_norm,
        "theta0_err": theta0_err,
        "d4": d4_constant(profile, c_eps, alpha, p0)[0],
    }

    flags = [FLAG_D1_EXPONENT, FLAG_CONFIDENCE]
    if d3_flag is not None:
        flags.append(d3_flag)

    return BoundReport(
        name="composite_iid",
        value=value,
        inputs={
            "alpha": alpha,
            "n": float(n),
            "p0": float(p0),
            "delta": delta,
            "dim": float(dim),
        },
        constants=constants,
        parts=parts,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Covariance-gap bound.
# ---------------------------------------------------------------------------


def sigma_gap_bound(
    abar: np.ndarray, sigma: np.ndarray, profile: SpectralProfile, alpha: float
) -> float:
    """Distance of the stepsize-corrected covariance from its alpha->0 limit:

    alpha * a^-1 * ||abar @ sigma @ abar.T||_q, for 0 <= alpha <= alpha_inf.
    """
    _check_alpha(profile, alpha)
    abar = np.asarray(abar, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    return alpha / profile.a * q_norm_mat(abar @ sigma @ abar.T, profile.q)


# ---------------------------------------------------------------------------
# The biased +-1 factor chain: drift rate, stepsize threshold, tail windows.
# ---------------------------------------------------------------------------


def _biased_phi(q_a: float, alpha: float) -> float:
    # phi = q_a*log((1+alpha)/(1-alpha)) - log(1+alpha), via log1p for accuracy.
    return (q_a - 1.0) * math.log1p(alpha) - q_a * math.log1p(-alpha)


def rademacher_bounds(q_a: float, alpha: float) -> tuple[float, float, float]:
    """Drift exponent, stepsize threshold and moment-blowup order for the
    biased +-1 factor chain theta_n = prod(1 - alpha*A_k), A_k = +-1 with
    P(A_k = 1) = q_a.

    Returns (phi, alpha_bar, p_bar):
      phi       — a.s. decay exponent q_a*log((1+alpha)/(1-alpha)) - log(1+alpha);
      alpha_bar — largest stepsize with phi > 0 on (0, alpha_bar): the end
                  1 - 1e-9 of the bracket (0, 1) that keeps 1 - alpha > 0.
                  No search is needed, because phi(0) = 0,
                  phi'(0) = 2*q_a - 1 > 0 and phi is convex
                  (phi'' = (1-q_a)/(1+alpha)^2 + q_a/(1-alpha)^2 > 0), so
                  phi > 0 on all of (0, 1);
      p_bar     — the moment order 1 + 2*(2*q_a - 1)/(alpha*(1 - q_a)), a
                  sufficient order: E|theta_n|^p diverges with n for p >= p_bar.
                  It is not sharp.  E|theta_n|^p equals
                  (q_a*(1-alpha)^p + (1-q_a)*(1+alpha)^p)^n, which diverges
                  exactly for p > kappa, the positive root of base = 1.
                  kappa = 12.07 against p_bar = 41 at (q_a, alpha) =
                  (0.75, 0.1), and 23.06 against 81 at (0.75, 0.05).
    """
    if not 0.5 < q_a < 1.0:
        raise ValueError(f"q_a must be in (1/2, 1), got {q_a}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    phi = _biased_phi(q_a, alpha)
    p_bar = 1.0 + 2.0 * (2.0 * q_a - 1.0) / (alpha * (1.0 - q_a))
    return phi, 1.0 - 1e-9, p_bar


def rademacher_tail_thresholds(
    q_a: float, alpha: float, n: int, delta: float, side: str
) -> float:
    """Tail thresholds for the biased +-1 factor chain started at theta_0 = 1.

    side="upper": a threshold t with P(theta_n >= t) <= delta,

        t = exp(-phi*n + L*sqrt(n*log(1/delta)/2)),

    admissible for delta >= exp(-2*n*phi_tilde^2).

    side="lower": a threshold t with P(theta_n >= t) >= delta,

        t = exp(-phi*n + L*sqrt(n*q_a*(1-q_a)*max(0, log(1/delta) - log(n)/2))),

    admissible for delta >= exp(-n*phi_tilde^2/(q_a*(1-q_a)) - log(n)/2).

    Here L = log((1+alpha)/(1-alpha)) and phi_tilde = phi/L.  The lower-side
    fluctuation uses the binomial variance q_a*(1-q_a) and a -log(n)/2
    sharpening, clamped at zero so it never pushes the threshold below the
    pure-drift point exp(-phi*n); the lower-side claim also needs
    delta <= 1/2 (at the drift point the chain sits above threshold about
    half the time, no more).
    """
    if not 0.5 < q_a < 1.0:
        raise ValueError(f"q_a must be in (1/2, 1), got {q_a}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    big_l = math.log1p(alpha) - math.log1p(-alpha)
    phi = _biased_phi(q_a, alpha)
    phi_tilde = phi / big_l
    if side == "upper":
        _check_delta(delta, 1.0, "rademacher_tail_thresholds[upper]", closed_hi=True)
        floor = math.exp(-2.0 * n * phi_tilde**2)
        if delta < floor:
            raise ValueError(
                f"upper-side window needs delta >= exp(-2*n*phi_tilde^2) = "
                f"{floor:.6g}, got {delta}"
            )
        fluct = math.sqrt(n * math.log(1.0 / delta) / 2.0)
    elif side == "lower":
        _check_delta(delta, 0.5, "rademacher_tail_thresholds[lower]", closed_hi=True)
        floor = math.exp(
            -n * phi_tilde**2 / (q_a * (1.0 - q_a)) - 0.5 * math.log(n)
        )
        if delta < floor:
            raise ValueError(
                f"lower-side window needs delta >= "
                f"exp(-n*phi_tilde^2/(q_a*(1-q_a)) - log(n)/2) = {floor:.6g}, "
                f"got {delta}"
            )
        fluct = math.sqrt(
            n * q_a * (1.0 - q_a) * max(0.0, math.log(1.0 / delta) - 0.5 * math.log(n))
        )
    else:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    return math.exp(-phi * n + big_l * fluct)
