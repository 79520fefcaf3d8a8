"""Deterministic constant machinery for Markov-chain Rosenthal inequalities.

Everything here is closed-form arithmetic on drift/minorization constants:
block ergodicity coefficients, the delta_alpha fixed point, Wasserstein
contraction rates, composition combinatorics for the B_{u,q} coefficients,
and the final Rosenthal-type moment bound assembled from caller-supplied
chain statistics.  No sampling happens in this module.

Numerical conventions match ``bounds``: factorial-heavy products are either
exact integers (small q) or log-space floats, and the final bound is
assembled with log-sum-exp.  Root finding is plain bracketing + bisection;
no monotonicity of the bracketed gap is assumed, and the absence of a root
is reported as ``None`` rather than as an error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from lsalab.linalg import SpectralProfile, _horizon, _logsumexp

# Bisection targets: the root is polished until the equation residual
# |lhs - rhs| falls below this.
ROOT_RESIDUAL_TOL = 1e-12

# The doubling bracket search for delta_alpha gives up at this value and
# reports that no root exists.
ROOT_BRACKET_MAX = 1e12

# b_uq_exact enumerates integer compositions exactly; beyond this order the
# (k!)^2 weights make the float conversion overflow-prone and the log-space
# upper bound b_uq_upper should be used instead.
B_UQ_EXACT_MAX_Q = 12

# exp(x) is finite for x up to this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RosenthalConstants:
    """Ergodicity constants of one drift/minorization pair, plus the
    stepsize-dependent Wasserstein rates once attached.

    The first block (through ``d_bar``) comes from ``v_geometric_constants``
    and is stepsize-free.  The remaining fields are ``None`` until
    ``attach_wasserstein`` (or ``wasserstein_rates``) fills them in for a
    concrete interpolation exponent ``alpha``.
    """

    lambda_: float
    b: float
    m: int
    epsilon: float
    d_level: float
    b_m: float
    lambda_bar_m: float
    b_bar_m: float
    rho: float
    c_m: float
    d_bar: float
    alpha: float | None = None
    delta_alpha: float | None = None
    rho_alpha: float | None = None
    vartheta_alpha: float | None = None
    kappa: float | None = None
    vartheta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be in (0,1), got {self.rho}")
        if self.c_m <= 0.0:
            raise ValueError(f"c_m must be > 0, got {self.c_m}")
        if self.delta_alpha is not None and self.delta_alpha <= 0.0:
            raise ValueError(f"delta_alpha must be > 0, got {self.delta_alpha}")
        if self.rho_alpha is not None and not 0.0 < self.rho_alpha < 1.0:
            raise ValueError(f"rho_alpha must be in (0,1), got {self.rho_alpha}")


@dataclass(frozen=True)
class RosenthalInputs:
    """Caller-supplied chain statistics entering the Rosenthal bound.

    ``g_nq`` is the sum of squared weighted norms of the summand functions,
    ``m_q`` their maximum weighted norm, ``pi_v_alpha``/``xi_v_alpha`` the
    stationary and initial moments of the Lyapunov function, ``var_pi`` the
    stationary variance of the partial sum, and ``moment_gq`` the Gaussian
    2q-th absolute-moment factor.  The chain itself supplies no algorithm
    for these; they are inputs, not derived quantities.
    """

    q: int
    g_nq: float
    m_q: float
    pi_v_alpha: float
    xi_v_alpha: float
    var_pi: float
    moment_gq: float

    def __post_init__(self) -> None:
        if self.q < 2 or self.q != int(self.q):
            raise ValueError(f"q must be an integer >= 2, got {self.q}")
        for name in ("g_nq", "m_q", "pi_v_alpha", "xi_v_alpha", "var_pi", "moment_gq"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.g_nq > 0.0 and self.m_q**2 > self.g_nq * (1.0 + 1e-12):
            raise ValueError(
                f"m_q^2 = {self.m_q**2} exceeds g_nq = {self.g_nq}; the max "
                "squared norm cannot exceed the sum of squared norms"
            )


# ---------------------------------------------------------------------------
# Block ergodicity constants.
# ---------------------------------------------------------------------------


def v_geometric_constants(
    lambda_: float, b: float, m: int, epsilon: float, d_level: float
) -> RosenthalConstants:
    """Block drift/minorization constants for an m-step kernel.

    b_m        = b*(1 - lambda^m)/(1 - lambda)
    lambda_bar = lambda^m + 2*b_m/(1 + d_level)
    b_bar      = lambda^m*b_m + d_level
    log rho    = log(1-eps)*log(lambda_bar)
                 / (m*(log(1-eps) + log(lambda_bar) - log(b_bar)))
    c_m        = rho^-m * (lambda^m + (1-lambda^m)/(1-lambda))
                       * (1 + b_bar/((1-eps)*(1-lambda_bar)))

    Raises ValueError unless 0 < rho < 1 and rho^-m is in the float range.
    """
    if not 0.0 <= lambda_ < 1.0:
        raise ValueError(f"lambda must be in [0,1), got {lambda_}")
    if b < 0.0:
        raise ValueError(f"b must be >= 0, got {b}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    if d_level <= 0.0:
        raise ValueError(f"d_level must be > 0, got {d_level}")
    if lambda_ + 2.0 * b / (1.0 + d_level) >= 1.0:
        raise ValueError(
            "admissibility violated: lambda + 2b/(1+d_level) = "
            f"{lambda_ + 2.0 * b / (1.0 + d_level)} >= 1"
        )
    lam_m = lambda_**m
    b_m = b * (1.0 - lam_m) / (1.0 - lambda_)
    lambda_bar = lam_m + 2.0 * b_m / (1.0 + d_level)
    if lambda_bar >= 1.0:
        raise ValueError(
            f"block contraction failed: lambda_bar_m = {lambda_bar} >= 1"
        )
    if lambda_bar <= 0.0:
        raise ValueError(
            f"lambda_bar_m = {lambda_bar} is not positive; need lambda > 0 or b > 0"
        )
    b_bar = lam_m * b_m + d_level
    gap = m * (math.log(1.0 - epsilon) + math.log(lambda_bar) - math.log(b_bar))
    # log(1-eps)*log(lambda_bar) > 0, so a gap >= 0 is a block rate of at least
    # 1: inf at a gap of 0 or past the float range
    log_rho = math.log(1.0 - epsilon) * math.log(lambda_bar) / gap if gap else math.inf
    rho = math.exp(log_rho) if log_rho <= _LOG_FLOAT_MAX else math.inf
    if not 0.0 < rho < 1.0:
        raise ValueError(f"drift model's block rate rho_m = {rho} is not in (0,1)")
    try:
        inv_rho_m = rho**-m
    except OverflowError:
        raise ValueError(f"drift model's rho_m^-m = {rho}^-{m} overflows the float range") from None
    geom = lam_m + (1.0 - lam_m) / (1.0 - lambda_)
    c_m = (
        inv_rho_m
        * geom
        * (1.0 + b_bar / ((1.0 - epsilon) * (1.0 - lambda_bar)))
    )
    return RosenthalConstants(
        lambda_=lambda_,
        b=b,
        m=m,
        epsilon=epsilon,
        d_level=d_level,
        b_m=b_m,
        lambda_bar_m=lambda_bar,
        b_bar_m=b_bar,
        rho=rho,
        c_m=c_m,
        d_bar=(d_level + 1.0) / 2.0,
    )


def _delta_gap(
    delta: float, lambda_bar_m: float, b_m: float, d_bar: float, epsilon: float, alpha: float
) -> float:
    lhs = (1.0 - epsilon) ** ((1.0 - alpha) / alpha) * (lambda_bar_m + b_m + delta) / (
        1.0 + delta
    )
    rhs = (lambda_bar_m * d_bar + delta) / (d_bar + delta)
    return lhs - rhs


def delta_alpha_root(
    lambda_bar_m: float, b_m: float, d_bar: float, epsilon: float, alpha: float
) -> float | None:
    """Positive root of the interpolation fixed-point equation

        (1-eps)^((1-alpha)/alpha) * (lambda_bar_m + b_m + delta)/(1 + delta)
            = (lambda_bar_m*d_bar + delta)/(d_bar + delta),

    located by doubling the bracket end from 1 until the gap changes sign,
    then bisecting until the equation residual is <= 1e-12.  Returns None
    when no sign change appears up to 1e12: both sides are rational in
    delta and admissible parameter sets without a positive crossing exist,
    so absence of a root is an outcome, not an error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    if d_bar <= 0.0:
        raise ValueError(f"d_bar must be > 0, got {d_bar}")
    if lambda_bar_m < 0.0 or b_m < 0.0:
        raise ValueError("lambda_bar_m and b_m must be >= 0")

    def gap(t: float) -> float:
        return _delta_gap(t, lambda_bar_m, b_m, d_bar, epsilon, alpha)

    f_lo = gap(0.0)
    if f_lo == 0.0:
        # crossing exactly at 0 is not a positive root; nudge the left end
        f_lo = gap(1e-300)
    hi = 1.0
    f_hi = gap(hi)
    while f_lo * f_hi > 0.0 and hi < ROOT_BRACKET_MAX:
        hi *= 2.0
        f_hi = gap(hi)
    if f_lo * f_hi > 0.0:
        return None
    lo = 0.0
    mid = hi
    f_mid = f_hi
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = gap(mid)
        if abs(f_mid) <= ROOT_RESIDUAL_TOL:
            return mid
        if f_lo * f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    if abs(f_mid) <= ROOT_RESIDUAL_TOL:
        return mid
    raise RuntimeError(
        f"bisection stalled at delta={mid} with residual {f_mid}; the gap "
        "function is too stiff for the requested residual"
    )


def wasserstein_rates(
    constants: RosenthalConstants, alpha: float, *, c_a: float = 0.0
) -> RosenthalConstants:
    """Return a copy of ``constants`` with the Wasserstein rates at ``alpha``:

    rho_alpha      = ((lambda_bar_m*d_bar + delta_alpha)/(d_bar + delta_alpha))^(alpha/m)
    vartheta_alpha = (1 + b/(1-lambda) + delta_alpha)^alpha / rho_alpha^m
    kappa          = vartheta^(m*(1-alpha))

    ``vartheta`` is the one-step Lipschitz constant of the coupling kernel,
    taken as max(1, 1 + alpha*c_a): for the linear recursion one step moves
    points by at most a (1 + alpha*||A||) factor.  That is a modeling choice,
    not a derived quantity.  Requires ``constants.delta_alpha``; raises
    ValueError if kappa overflows.
    """
    if constants.delta_alpha is None:
        raise ValueError(
            "constants carry no delta_alpha; run delta_alpha_root (or "
            "attach_wasserstein) first"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 <= constants.lambda_ < 1.0:
        raise ValueError(f"lambda must be in [0,1), got {constants.lambda_}")
    vartheta = max(1.0, 1.0 + alpha * c_a)
    da = constants.delta_alpha
    m = constants.m
    rho_alpha = (
        (constants.lambda_bar_m * constants.d_bar + da) / (constants.d_bar + da)
    ) ** (alpha / m)
    vartheta_alpha = (1.0 + constants.b / (1.0 - constants.lambda_) + da) ** alpha / rho_alpha**m
    try:
        kappa = vartheta ** (m * (1.0 - alpha))
    except OverflowError:
        raise ValueError(
            f"kappa = vartheta^(m*(1-alpha)) = {vartheta}^{m * (1.0 - alpha)} "
            "overflows the float range"
        ) from None
    return replace(
        constants,
        alpha=alpha,
        rho_alpha=rho_alpha,
        vartheta_alpha=vartheta_alpha,
        kappa=kappa,
        vartheta=vartheta,
    )


def attach_wasserstein(
    constants: RosenthalConstants, alpha: float, *, c_a: float = 0.0
) -> RosenthalConstants:
    """Return a copy of ``constants`` with the alpha-dependent fields filled.

    ``delta_alpha`` may come back ``None`` (no root); the rate fields are
    then left unset and the caller decides how to report that.
    """
    da = delta_alpha_root(
        constants.lambda_bar_m, constants.b_m, constants.d_bar, constants.epsilon, alpha
    )
    partial = replace(constants, alpha=alpha, delta_alpha=da)
    return partial if da is None else wasserstein_rates(partial, alpha, c_a=c_a)


# ---------------------------------------------------------------------------
# Contraction horizon of the linear recursion's V-geometry.
# ---------------------------------------------------------------------------


def contraction_horizon(profile: SpectralProfile, alpha: float, epsilon: float) -> int:
    """Smallest block length m with kappa_q*(1 - alpha*a/2)^(m/2) <= 1 - epsilon:

    ceil(2*log((1-eps)/kappa_q) / log(1 - alpha*a/2)), floored at 1.
    """
    if not 0.0 < alpha < profile.alpha_inf:
        raise ValueError(
            f"alpha={alpha} outside (0, alpha_inf={profile.alpha_inf:.6g})"
        )
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    return _horizon(profile, alpha, (1.0 - epsilon) / profile.kappa_q)


# ---------------------------------------------------------------------------
# B_{u,q} composition combinatorics.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _composition_weight(total: int, parts: int) -> int:
    """Sum over compositions k_1+...+k_parts = total, k_i >= 2, of prod (k_i!)^2."""
    if parts == 1:
        return math.factorial(total) ** 2 if total >= 2 else 0
    acc = 0
    for k in range(2, total - 2 * (parts - 1) + 1):
        acc += math.factorial(k) ** 2 * _composition_weight(total - k, parts - 1)
    return acc


def composition_count(u: int, q: int) -> int:
    """Number of compositions of 2q into u parts, each part >= 2:
    C(2q - u - 1, u - 1)."""
    _check_uq(u, q)
    return math.comb(2 * q - u - 1, u - 1)


def _check_uq(u: int, q: int) -> None:
    if q < 2 or u < 1 or u > q - 1:
        raise ValueError(f"need 1 <= u <= q-1 with q >= 2, got u={u}, q={q}")


def b_uq_exact(u: int, q: int, rho: float) -> float:
    """Exact B_{u,q} coefficient:

    (q!/u!)*(1/rho)^u*(2/log(1/rho))^(2q-u) * sum over compositions
    k_1+...+k_u = 2q (k_i >= 2) of prod (k_i!)^2, with the composition sum
    in exact integer arithmetic.  Raises ValueError if it overflows.
    """
    _check_uq(u, q)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    if q > B_UQ_EXACT_MAX_Q:
        raise ValueError(
            f"q={q} exceeds the exact-integer range (q <= {B_UQ_EXACT_MAX_Q}); "
            "use b_uq_upper"
        )
    weight = _composition_weight(2 * q, u)
    head = math.factorial(q) // math.factorial(u)
    log_inv_rho = math.log(1.0 / rho)
    try:
        scale = (1.0 / rho) ** u * (2.0 / log_inv_rho) ** (2 * q - u)
    except OverflowError:
        scale = math.inf
    return _finite_buq(float(head * weight) * scale, u, q, rho)


def b_uq_upper(u: int, q: int, rho: float) -> float:
    """Closed-form upper bound on B_{u,q}, evaluated in log-space:

    (e*q/(q-u))^(q-u) * (e*(2q-u-1)/(2q-2u))^(2q-2u) * ((2q-2u+2)!)^2
      * (2/log(1/rho))^(2q) * (2*log(1/rho)/rho)^u.

    Raises ValueError past the float range.
    """
    _check_uq(u, q)
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    log_inv_rho = math.log(1.0 / rho)
    log_l = math.log(log_inv_rho)
    logv = (
        (q - u) * (1.0 + math.log(q) - math.log(q - u))
        + (2 * q - 2 * u) * (1.0 + math.log(2 * q - u - 1) - math.log(2 * q - 2 * u))
        + 2.0 * math.lgamma(2 * q - 2 * u + 3)
        + 2 * q * (math.log(2.0) - log_l)
        + u * (math.log(2.0) + log_l - math.log(rho))
    )
    return _finite_buq(math.exp(logv) if logv <= _LOG_FLOAT_MAX else math.inf, u, q, rho)


def _finite_buq(value: float, u: int, q: int, rho: float) -> float:
    """``value``, a B_{u,q}(rho) coefficient; ValueError if it overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"B_{{{u},{q}}}({rho}) overflows the float range")
    return value


# ---------------------------------------------------------------------------
# The assembled Rosenthal bound.
# ---------------------------------------------------------------------------


def rosenthal_bound(inputs: RosenthalInputs, constants: RosenthalConstants) -> float:
    """2q-th moment bound on a centered additive functional of the chain:

    e*moment_gq*var_pi^q
      + e*(8*kappa)^(2q)*pi_v_alpha^(q+1)*vartheta_alpha^q
          * sum_{u=1}^{q-1} B_{u,q}(rho_alpha)*g_nq^u*m_q^(2(q-u))
      + vartheta_alpha*m_q^(2q)*(2q+1)^(2q)*(xi_v_alpha + pi_v_alpha)
          * (1 - rho_alpha^(1/(2q)))^(-2q)

    assembled in log-sum-exp.  B_{u,q} uses the exact-integer path, so q
    inherits its q <= 12 range.
    """
    if constants.rho_alpha is None or constants.vartheta_alpha is None or constants.kappa is None:
        raise ValueError(
            "constants carry no Wasserstein rates; run attach_wasserstein first"
        )
    if not 0.0 < constants.rho_alpha < 1.0:
        raise ValueError(f"rho_alpha must be in (0,1), got {constants.rho_alpha}")
    q = inputs.q
    rho_a = constants.rho_alpha
    vth_a = constants.vartheta_alpha
    kap = constants.kappa
    logs: list[float] = []

    def push(factors: list[tuple[float, float]]) -> None:
        # factors: (base, exponent) pairs; a zero base with positive exponent
        # kills the term.
        logv = 0.0
        for base, expo in factors:
            if expo == 0.0:
                continue
            if base == 0.0:
                return
            logv += expo * math.log(base)
        logs.append(logv)

    push([(math.e, 1.0), (inputs.moment_gq, 1.0), (inputs.var_pi, float(q))])
    for u in range(1, q):
        push(
            [
                (math.e, 1.0),
                (8.0 * kap, 2.0 * q),
                (inputs.pi_v_alpha, q + 1.0),
                (vth_a, float(q)),
                (b_uq_exact(u, q, rho_a), 1.0),
                (inputs.g_nq, float(u)),
                (inputs.m_q, 2.0 * (q - u)),
            ]
        )
    push(
        [
            (vth_a, 1.0),
            (inputs.m_q, 2.0 * q),
            (2.0 * q + 1.0, 2.0 * q),
            (inputs.xi_v_alpha + inputs.pi_v_alpha, 1.0),
            (1.0 - rho_a ** (1.0 / (2.0 * q)), -2.0 * q),
        ]
    )
    if not logs:
        return 0.0
    return math.exp(_logsumexp(logs))


# ---------------------------------------------------------------------------
# Decreasing-stepsize geometric-sum identity.
# ---------------------------------------------------------------------------


def geometric_sum_check(stepsizes: np.ndarray, a: float | np.ndarray) -> float | np.ndarray:
    """Residual of the weighted geometric-sum identity

        | sum_j alpha_j * prod_{l>j} (1 - alpha_l*a)
          - (1/a)*(1 - prod_l (1 - alpha_l*a)) |

    over a non-increasing stepsize sequence with alpha_0 < 1/a.

    A (k, L) stack of sequences with a length-k vector ``a`` gives the k
    residuals as an array, each with the bits of its row's own 1-D call.
    Every check runs per row, and a stack raises the 1-D error of its first
    failing row.
    """
    st = np.asarray(stepsizes, dtype=float)
    one = st.ndim == 1
    if one and st.size:
        rows, a_rows = st[None], np.reshape(np.asarray(a, dtype=float), 1)
    elif st.ndim == 2 and st.size and np.shape(a) == st.shape[:1]:
        rows, a_rows = st, np.asarray(a, dtype=float)
    elif st.ndim == 2:
        raise ValueError(
            "a stack of stepsizes must have shape (k, L) with k, L >= 1 and a shape (k,), "
            f"got {st.shape} and {np.shape(a)}"
        )
    else:
        raise ValueError(f"stepsizes must be a nonempty 1-D sequence, got shape {st.shape}")
    bad = np.stack([
        a_rows <= 0.0,
        np.any(rows < 0.0, axis=1),
        np.any(np.diff(rows, axis=1) > 0.0, axis=1),
        rows[:, 0] * a_rows >= 1.0,
    ])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        check = int(np.argmax(bad[:, i]))
        a_i = a if one else a_rows[i]
        if check == 0:
            raise ValueError(f"a must be > 0, got {a_i}")
        if check == 1:
            raise ValueError("stepsizes must be >= 0")
        if check == 2:
            raise ValueError("stepsizes must be non-increasing")
        raise ValueError(
            f"largest stepsize {rows[i, 0]} must stay below 1/a = {1.0 / a_i:.6g}"
        )
    factors = 1.0 - a_rows[:, None] * rows
    # tail[:, j] = prod_{l > j} factors[:, l]; each row's sum and product
    # reduce a contiguous row, as the 1-D call's do
    tail = np.ones_like(rows)
    tail[:, :-1] = np.cumprod(factors[:, ::-1], axis=1)[:, ::-1][:, 1:]
    lhs = np.sum(rows * tail, axis=1)
    rhs = (1.0 - np.prod(factors, axis=1)) / a_rows
    residuals = np.abs(lhs - rhs)
    return float(residuals[0]) if one else residuals
