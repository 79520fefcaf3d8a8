"""Dense linear-algebra kernel: Lyapunov geometry of the driving matrix.

Everything here is exact desk-scale linear algebra (d <= 32 or so).  One
solver (``_solve_stationary``) serves the package's four covariance
equations ``abar @ S + S @ abar.T - alpha * K[S] = C``: the Lyapunov geometry
Q and the asymptotic covariance Sigma (K = 0), the Riccati scale S^alpha
(K[S] = abar S abar.T) and the exact stationary covariance V of
``lsalab.noise`` (K[S] = E[A S A.T]).  It vectorizes the equation into one
dense d^2 x d^2 system (Kronecker form; ``_kron`` forms the same products as
``np.kron`` by one broadcast, without its per-call overhead), solves it,
symmetrizes the result and checks it against an explicit residual tolerance.
Validation lives at the public entries: ``solve_lyapunov``, ``solve_sigma``
and ``solve_riccati`` each check their own inputs once (finite entries, then
the stepsize, then the Hurwitz condition, whose one predicate is
``_require_hurwitz``).  ``lsalab.noise.exact_stationary_cov`` checks only its
stepsize, since a model checks its ``abar`` when it is built, and
``_solve_stationary`` assumes an already validated ``abar``.
``spectral_profile`` gets Q through ``solve_lyapunov``, and a norm in a
profile's geometry is ``q_norm_mat(m, profile.q)``.  Q's Kronecker system
(of ``abar.T``) is Sigma's (of ``abar``) transposed, entry for entry, so the
lyapunov experiment's blocks build one Kronecker sum per dimension group and
solve Q on its transposed view; the public solves build their own.

The private kernels (``_solve_stationary``, ``_kron``, ``_kron_sum``,
``_norms``, ``_spd_roots``, ``_geometry`` and the checks) take a stack of
matrices, shape ``(n, d, d)``, and make every check per matrix, raising for
the first one that fails the error a single call would raise for it.  The
public 2-D functions are calls on a stack of one.  numpy's stacked ``solve``,
``svd``, ``eigh``, ``eigvals`` and ``matmul`` give each slice the bits of the
2-D call, so a stacked caller (``lsalab.experiments``' lyapunov blocks) gets
the same results as the public functions, at a fraction of their per-call
overhead on small matrices.
The solve is O(d^6).  A Bartels-Stewart / Stein route in O(d^3) is deferred:
the exact kernels E[A (x) A] of the bounded-factor and TD(0) models have no
Stein structure, so it would be a second solver beside this one and would
change results in the last bits, and at d <= 8, the largest any experiment
uses, a solve takes well under a millisecond either way.

Conventions: the driving matrix ``abar`` has eigenvalues with positive real
part (the recursion theta - alpha*A*theta is then stable for small alpha);
unadorned norms are spectral (operator 2-) norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Margin used when certifying that every eigenvalue has positive real part.
EIG_MARGIN = 1e-9

# Relative residual accepted from the dense solvers.
SOLVER_TOL = 1e-10

# Eigenvalues of a would-be SPD matrix below this (relative to the largest)
# are treated as zero and rejected.
SPD_EIG_FLOOR = 1e-12


class NotHurwitzError(ValueError):
    """Driving matrix has an eigenvalue whose real part is not positive."""


class NotSpdError(ValueError):
    """Matrix expected to be symmetric positive definite is not."""


class SolverResidualError(RuntimeError):
    """A dense solve produced a residual above the accepted tolerance."""


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return _require_finite(m, name)


def _require_finite(m: np.ndarray, name: str) -> np.ndarray:
    """Raise unless every entry of ``m`` (one matrix or a stack) is finite."""
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack, a view as ``m.T`` is of one."""
    return m.swapaxes(-1, -2)


def _norms(m: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a stack; 0.0 if empty."""
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[..., 0] if sv.shape[-1] else np.zeros(sv.shape[:-1])


def spectral_norm(m: np.ndarray) -> float:
    """Operator 2-norm (largest singular value) of a matrix; 0.0 if empty.

    The same singular values as ``np.linalg.norm(m, 2)``, read directly, so
    the value is bit-identical without that wrapper's dispatch cost.
    """
    return float(_norms(np.asarray(m, dtype=float)))


def _logsumexp(a) -> float:
    """log(sum(exp(a))) of a non-empty real 1-D array.

    The steps of ``scipy.special.logsumexp`` (scipy 1.17) for real input
    without weights, so the result is the same bits without its import cost:
    the maxima are split out of the shifted sum and counted, and where that
    is not finite the direct ``log(sum(exp(a)))`` is the result.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.sum(top, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, or of stacks slice by slice, by one broadcast."""
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    return (x[..., :, None, :, None] * y[..., None, :, None, :]).reshape(
        lead + (x.shape[-2] * y.shape[-2], x.shape[-1] * y.shape[-1])
    )


def _require_hurwitz(abar: np.ndarray) -> np.ndarray:
    """Raise NotHurwitzError unless the finite matrix, or every matrix of the
    finite stack, ``abar`` is Hurwitz: every eigenvalue has real part >
    ``EIG_MARGIN``, so the fixed-stepsize recursion contracts for small alpha."""
    eig = np.linalg.eigvals(abar)
    bad = ~(eig.real.min(axis=-1) > EIG_MARGIN)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise NotHurwitzError(
            f"driving matrix has an eigenvalue with real part <= {EIG_MARGIN}: "
            f"eigenvalues {eig[first]}"
        )
    return abar


def _check_residual(
    lhs: np.ndarray, rhs: np.ndarray, rhs_norm: np.ndarray, what: str
) -> np.ndarray:
    """Gate a stack of solves on ``||lhs - rhs||``; return ``||lhs - rhs|| / (1 + ||rhs||)``."""
    resid = _norms(lhs - rhs)
    tol = SOLVER_TOL * (1.0 + rhs_norm)
    bad = ~(resid <= tol)
    if bad.any():
        i = np.argmax(bad)
        raise SolverResidualError(
            f"{what}: residual {resid[i]:.3e} exceeds {np.broadcast_to(tol, bad.shape)[i]:.3e}"
        )
    return resid / (1.0 + rhs_norm)


def _kron_sum(abar: np.ndarray) -> np.ndarray:
    """Vectorized ``S -> abar @ S + S @ abar.T`` in numpy's row-major vec, per slice."""
    eye = np.eye(abar.shape[-1])
    return _kron(eye, abar) + _kron(abar, eye)


def _solve_stationary(
    abar: np.ndarray,
    rhs: np.ndarray,
    alpha,
    kernel: np.ndarray | None,
    what: str,
    ksum: np.ndarray | None = None,
    rhs_norm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``abar @ S + S @ abar.T - alpha * K[S] = rhs`` for symmetric S, per slice.

    ``abar`` is a stack ``(n, d, d)`` that must already be validated
    (finite, Hurwitz); this is only the solve, the symmetrization and the
    residual gate, which raises for the first slice that misses it.
    ``rhs`` is a stack or one ``(d, d)`` matrix shared by every slice.
    ``alpha`` is one stepsize or one per slice.  ``kernel`` is K in numpy's
    row-major vec (``kernel @ vec(S) == vec(K[S])``), a stack or one shared
    matrix, read only when some alpha is nonzero.  A caller solving several
    equations with the same ``abar`` or ``rhs`` may pass ``_kron_sum(abar)``
    as ``ksum`` and ``_norms(rhs)`` as ``rhs_norm``.  Returns the stack S and
    the gate's relative residuals ``||lhs - rhs|| / (1 + ||rhs||)``.
    """
    n, d, _ = abar.shape
    k = _kron_sum(abar) if ksum is None else ksum
    alpha = np.asarray(alpha)[..., None, None]
    if alpha.any():
        k = k - alpha * kernel
    s = np.linalg.solve(k, rhs.reshape(rhs.shape[:-2] + (d * d, 1))).reshape(n, d, d)
    s = 0.5 * (s + _t(s))
    lhs = abar @ s + s @ _t(abar)
    if alpha.any():
        lhs = lhs - alpha * (kernel @ s.reshape(n, d * d, 1)).reshape(n, d, d)
    if rhs_norm is None:
        rhs_norm = _norms(rhs)
    return s, _check_residual(lhs, rhs, rhs_norm, what)


def _lyapunov_q(
    abar: np.ndarray, ksum: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Q of every matrix of a validated stack, and the gate's relative residuals.

    Q's system is ``_kron_sum(_t(abar))``, which is ``_t(_kron_sum(abar))``
    entry for entry, so a caller that holds ``ksum = _kron_sum(abar)`` for
    Sigma's solve may pass it and the transposed view is solved.  The
    residual is ``||abar.T q + q abar - I|| / 2``, since ``||I||`` is 1.
    """
    return _solve_stationary(
        _t(abar), np.eye(abar.shape[-1]), 0.0, None, "lyapunov solve",
        None if ksum is None else _t(ksum),
    )


def solve_lyapunov(abar: np.ndarray) -> np.ndarray:
    """Solve ``abar.T @ Q + Q @ abar = I`` for symmetric positive definite Q.

    Vectorized form: ``(kron(I, abar.T) + kron(abar.T, I)) vec(Q) = vec(I)``.
    The result is the squared-norm-defining matrix of the geometry in which
    one step of the deterministic recursion is a contraction.
    """
    abar = _require_hurwitz(_as_square(abar, "abar"))
    return _lyapunov_q(abar[None])[0][0]


def solve_sigma(abar: np.ndarray, sigma_eps: np.ndarray) -> np.ndarray:
    """Solve ``abar @ S + S @ abar.T = sigma_eps`` for symmetric S.

    S is the asymptotic (alpha -> 0) covariance of the rescaled iterate
    error driven by noise with covariance ``sigma_eps``.
    """
    sigma_eps = _as_square(sigma_eps, "sigma_eps")
    abar = _require_hurwitz(_as_square(abar, "abar"))
    return _solve_stationary(abar[None], sigma_eps, 0.0, None, "sigma solve")[0][0]


def solve_riccati(abar: np.ndarray, sigma_eps: np.ndarray, alpha: float) -> np.ndarray:
    """Solve ``abar @ S + S @ abar.T - alpha * abar @ S @ abar.T = sigma_eps``.

    S is the fixed-stepsize stationary covariance scale: the stationary
    covariance of the linearized iterate error is alpha * S.  At alpha = 0
    this degenerates to :func:`solve_sigma`.
    """
    abar = _as_square(abar, "abar")
    sigma_eps = _as_square(sigma_eps, "sigma_eps")
    if not 0.0 <= alpha:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    abar = _require_hurwitz(abar)
    return _solve_stationary(
        abar[None], sigma_eps, alpha, _kron(abar, abar), "riccati solve"
    )[0][0]


def _spd_roots(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spd_sqrt`` of every matrix of a finite stack; raises for the first non-SPD one."""
    q = 0.5 * (q + _t(q))
    w, v = np.linalg.eigh(q)
    bad = (w[:, -1] <= 0.0) | (w[:, 0] <= SPD_EIG_FLOOR * w[:, -1])
    if bad.any():
        raise NotSpdError(f"matrix is not numerically SPD: eigenvalues {w[np.argmax(bad)]}")
    sqrt_w = np.sqrt(w)[:, None, :]
    return (v * sqrt_w) @ _t(v), (v / sqrt_w) @ _t(v)


def spd_sqrt(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix.

    Uses the symmetric eigendecomposition; eigenvalues below
    SPD_EIG_FLOOR * lambda_max are rejected as numerically singular.
    """
    root, inv_root = _spd_roots(_as_square(q, "q")[None])
    return root[0], inv_root[0]


def q_norm_mat(m: np.ndarray, q: np.ndarray) -> float:
    """Weighted operator norm: spectral norm of ``q^(1/2) @ m @ q^(-1/2)``."""
    m = _as_square(m, "m")
    root, inv_root = spd_sqrt(q)
    return spectral_norm(root @ m @ inv_root)


@dataclass(frozen=True)
class SpectralProfile:
    """Lyapunov geometry of a driving matrix, with the derived step limits.

    Attributes
    ----------
    abar : mean driving matrix.
    q : solution of ``abar.T @ q + q @ abar = I``.
    a : contraction rate 1 / (2 * ||q||).
    alpha_inf : largest admissible stepsize, (1/2) * ||abar||_q^-2 * ||q||^-1.
    kappa_q : condition number of q.
    c_a : almost-sure bound on ||A_n|| supplied by the model.
    b_q : 2 * sqrt(kappa_q) * c_a (bounded-noise product-moment constant).
    """

    abar: np.ndarray
    q: np.ndarray
    a: float
    alpha_inf: float
    kappa_q: float
    c_a: float
    b_q: float

    @property
    def dim(self) -> int:
        return self.abar.shape[0]


def _py_squares(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of every entry, a stack's ``||abar||_q``, as a Python float.

    numpy's array ``** 2`` multiplies, which can round differently in the
    last bit from the libm ``pow`` behind Python's float ``** 2``, and the
    geometry has always squared one Python float at a time.  Raises
    ValueError for the first square that overflows.
    """
    squares = []
    for v in x.tolist():
        try:
            squares.append(v**2)
        except OverflowError:
            raise ValueError(f"||abar||_q = {v:.6g} squared overflows the float range") from None
    return np.array(squares)


def _geometry(abar: np.ndarray, q: np.ndarray, c_a, abar_norm: np.ndarray) -> tuple:
    """``spectral_profile``'s a and alpha_inf on a stack, after Q's solve.

    ``abar`` is a validated stack, ``q`` its Lyapunov solutions, ``c_a``
    one bound or one per slice and ``abar_norm`` the stack's ``_norms``.
    Raises for the first slice whose ``c_a`` is not finite or is below
    ``||abar||``, or whose ``||abar||_q`` squared overflows.  Returns the
    stacks a and alpha_inf and the factors ``spd_sqrt`` gives of each q.
    """
    bad = ~np.isfinite(c_a) | (c_a < abar_norm)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(
            f"c_a={np.broadcast_to(c_a, bad.shape)[i]} must be finite and "
            f">= ||abar|| = {abar_norm[i]:.6g}"
        )
    q_norm = _norms(q)
    a = 1.0 / (2.0 * q_norm)
    root, inv_root = _spd_roots(q)
    alpha_inf = 0.5 / (_py_squares(_norms(root @ abar @ inv_root)) * q_norm)
    return a, alpha_inf, root, inv_root


def spectral_profile(abar: np.ndarray, c_a: float) -> SpectralProfile:
    """Solve the Lyapunov equation and package the derived constants.

    ``c_a`` must dominate ``||abar||`` (it is an almost-sure bound on the
    random driving matrices, and the mean cannot exceed it).
    ``solve_lyapunov`` makes the Hurwitz check, ahead of the check on ``c_a``.
    """
    abar = _as_square(abar, "abar")
    q = solve_lyapunov(abar)
    stack = abar[None]
    a, alpha_inf, _, _ = _geometry(stack, q[None], c_a, _norms(stack))
    w = np.linalg.eigvalsh(q)
    kappa_q = float(w[-1] / w[0])
    return SpectralProfile(
        abar=abar,
        q=q,
        a=float(a[0]),
        alpha_inf=float(alpha_inf[0]),
        kappa_q=kappa_q,
        c_a=float(c_a),
        b_q=float(2.0 * np.sqrt(kappa_q) * c_a),
    )


def _horizon(profile: SpectralProfile, alpha: float, target: float) -> int:
    """Smallest n with (1 - a*alpha/2)^(n/2) <= target, at least 1.

    ceil(2 * log(target) / log(1 - a*alpha/2)), and 1 when target >= 1.
    Raises ValueError unless 0 < 1 - a*alpha/2 < 1.
    """
    rate = 1.0 - profile.a * alpha / 2.0
    if not 0.0 < rate < 1.0:
        raise ValueError(f"need 0 < 1 - a*alpha/2 < 1, got {rate}")
    if target >= 1.0:
        return 1
    return max(1, math.ceil(2.0 * math.log(target) / math.log(rate)))


def alpha_p_inf(profile: SpectralProfile, p: float) -> float:
    """Largest stepsize for which p-th product moments stay uniformly bounded.

    min(alpha_inf, a / (2 * b_q^2 * (p - 1))); the second cap is vacuous at
    p = 1.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1:
        return profile.alpha_inf
    return min(profile.alpha_inf, profile.a / (2.0 * profile.b_q**2 * (p - 1.0)))
