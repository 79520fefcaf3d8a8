"""Noise models: joint laws for the random pairs (A_n, b_n).

A model is built from the mean pair (abar, bbar), the scale constants used
by the bound evaluators (c_a, sigma_b) and a sampler, whose ``atoms`` and
``weights`` are the law of A.  It checks once that abar is Hurwitz and the
law's atoms finite, and derives from its law the dimension, the target
theta_star solving ``abar @ theta_star = bbar``, the exact covariance
``sigma_eps_exact`` of the effective noise

    eps_n = (b_n - bbar) - (A_n - abar) @ theta_star

and the kernel ``kernel_exact`` = E[kron(A_n, A_n)]; a builder only checks
its parameters and writes down the law.  Each
built-in sampler owns a fixed word layout: an n-step path reads the A-noise
words of all n steps first, then all b-noise words, so a path is a pure
function of ``(seed, stream_id, n)`` and never depends on batching or
scheduling, and a window of its steps reads the same slices of both.  A
consumer that needs only the A draws reads only the A-word prefix.

Every built-in law gives A_n finite support: two values for the +-1 chains,
two matrices ``abar -+ eta*M`` for the bounded factor and the S^2 rank-one
matrices of the state pairs for TD(0) on S states.  One sampler decodes
them all from the law's table: each step's A word decodes to an atom index
by inversion of ``(atoms, weights)`` (``lsalab.rng._inverse``), so the
two-point laws compare ``u < weights[1]``, no atom of weight 0 is drawn and
``replace(sampler, weights=w)`` draws by w.  b is the atom's row of a b
table plus sigma*g: the two-point laws share one row, bbar, TD(0) has
r(x) phi(x) for each pair and sigma == 0, and a law with sigma == 0 has no
b words.  A sampler reads no stream: one path's words (``sample_path``) or
a window of a block's (``engine._drive``, a row per trajectory) decode to
indices, so a batch kernel gathers what it needs per atom from small tables
built from ``atoms``.
The atoms, built once with the model, come from the same elementwise
operations in the same order as a matrix decode, so they give the same bits.

All built-in models satisfy the standing noise assumptions: ||A_n|| <= c_a
almost surely, and ||b_n - bbar|| sub-Gaussian with scale sigma_b
(sigma * sqrt(d) for the Gaussian-vector models, i.e. the RMS of the norm;
exact range bounds for the finite-state model).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from lsalab.linalg import (
    _as_square,
    _kron,
    _require_finite,
    _require_hurwitz,
    _solve_stationary,
    spectral_norm,
    spectral_profile,
)
from lsalab.rng import _inverse, _normals, uniform_open01


@dataclass(frozen=True)
class _TableSampler:
    """The law of (A, b) as a table: A = atoms[k] with probability weights[k].

    ``atoms`` has shape (K, d, d) and ``weights`` shape (K,); b = b_atoms[k]
    + sigma * g with g a standard Gaussian vector, where ``b_atoms`` has one
    row per atom, shape (K, d), or one row shared by all, shape (1, d).
    With sigma > 0 the n*d Gaussian words of b follow the n A words.
    ``_words(n, with_b)`` is the number of words per trajectory of an n-step
    path: all of them, or only the A-word prefix.  The sampler only decodes
    word arrays of B trajectories; their windows, offsets and buffer are
    ``engine._drive``'s.  ``_index(u)`` decodes A words u, shape (B, steps),
    to indices into ``atoms``, and ``_b(index, g)`` gives those steps' b
    draws, shape (B, steps, d), in place over their b words g, shape
    (B, steps*d), or with g None (a law without b words) from ``b_atoms``
    alone.  ``_held(with_b)`` is the bytes per trajectory and step that the
    decoded draws hold outside their words.
    """

    atoms: np.ndarray
    weights: np.ndarray
    b_atoms: np.ndarray
    sigma: float

    def _words(self, n: int, with_b: bool) -> int:
        return n + n * self.b_atoms.shape[1] if with_b and self.sigma != 0.0 else n

    def _held(self, with_b: bool) -> int:
        # the index, and b where it is gathered: b decoded over its words, or
        # a view of a shared row, holds nothing more
        index = np.min_scalar_type(self.weights.size - 1).itemsize
        return index + 8 * self.b_atoms.shape[1] if with_b and len(self.b_atoms) > 1 else index

    def _index(self, u: np.ndarray) -> np.ndarray:
        return _inverse(u, self.weights)

    def _b(self, index: np.ndarray, g: np.ndarray | None) -> np.ndarray:
        d = self.b_atoms.shape[1]
        # a shared row is broadcast, so nothing is gathered
        shared = len(self.b_atoms) == 1
        mean = self.b_atoms[0] if shared else self.b_atoms[index]
        if g is None:
            return np.broadcast_to(mean, index.shape + (d,)) if shared else mean
        # mean + sigma * g, rounded as that expression rounds it
        g = _normals(g, out=g).reshape(len(g), -1, d)
        g *= self.sigma
        g += mean
        return g


@dataclass(frozen=True)
class LsaModel:
    """A fully specified instance of the fixed-stepsize linear recursion.

    ``abar`` must be Hurwitz (``NotHurwitzError`` otherwise) and the
    sampler's ``atoms`` and ``b_atoms`` finite (``ValueError``).  Over the
    atoms of nonzero weight, in atom order, ``sigma_eps_exact`` is sigma^2 I
    plus the sum of ``weights[k] * outer(eps_k, eps_k)``, eps_k = (row k of
    ``b_atoms`` - bbar) - (atoms[k] - abar) @ theta_star, and
    ``kernel_exact`` = E[kron(A, A)], shape (d^2, d^2), the sum of
    ``weights[k] * kron(atoms[k], atoms[k])``.  With numpy's row-major vec,
    ``kron(A, A) @ vec(X) == vec(A @ X @ A.T)``, so this kernel drives every
    exact second-moment recursion of the iterates.
    """

    abar: np.ndarray
    bbar: np.ndarray
    c_a: float
    sigma_b: float
    sampler: _TableSampler
    dim: int = field(init=False)
    theta_star: np.ndarray = field(init=False)
    sigma_eps_exact: np.ndarray = field(init=False)
    kernel_exact: np.ndarray = field(init=False)

    def __post_init__(self):
        abar = _require_hurwitz(_as_square(self.abar, "abar"))
        # every derived value is a sum over the atoms, so an atom that
        # overflowed would make them inf or nan
        _require_finite(self.sampler.atoms, "the law of A")
        _require_finite(self.sampler.b_atoms, "the law of b")
        d = abar.shape[0]
        theta_star = np.linalg.solve(abar, self.bbar)
        atoms, weights, sigma = self.sampler.atoms, self.sampler.weights, self.sampler.sigma
        # a law with one b row shares it between all atoms
        b_rows = np.broadcast_to(self.sampler.b_atoms, (weights.size, d))
        # each term is exactly symmetric, so their sum is too
        sigma_eps = sigma**2 * np.eye(d)
        kernel = np.zeros((d * d, d * d))
        for k in np.flatnonzero(weights):
            eps = (b_rows[k] - self.bbar) - (atoms[k] - abar) @ theta_star
            sigma_eps += weights[k] * np.outer(eps, eps)
            kernel += weights[k] * _kron(atoms[k], atoms[k])
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "theta_star", theta_star)
        object.__setattr__(self, "sigma_eps_exact", sigma_eps)
        object.__setattr__(self, "kernel_exact", kernel)

    def sample_path(self, gen: Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """One n-step path's draws, A of shape (n, d, d) and b of shape (n, d),
        decoded from one row of ``gen``'s words in the sampler's layout."""
        sampler = self.sampler
        u = uniform_open01(gen, (1, sampler._words(n, with_b=True)))
        index = sampler._index(u[:, :n])
        b = sampler._b(index, u[:, n:] if u.shape[1] > n else None)
        return sampler.atoms[index[0]], np.array(b[0])


def eps_subgauss_const(model: LsaModel) -> float:
    """Sub-Gaussian scale of ||eps||: sqrt(2*sigma_b^2 + 8*c_a^2*||theta_star||^2)."""
    t2 = float(np.dot(model.theta_star, model.theta_star))
    return float(np.sqrt(2.0 * model.sigma_b**2 + 8.0 * model.c_a**2 * t2))


# ---------------------------------------------------------------------------
# Two-point laws: the +-1 chains and the bounded multiplicative factor.
# ---------------------------------------------------------------------------


# A = -1 (index 0) or +1 (index 1)
_SIGN_ATOMS = np.array([-1.0, 1.0]).reshape(2, 1, 1)
_SIGN_ATOMS.setflags(write=False)


def _sign_model(q_a: float, sigma: float) -> LsaModel:
    """Scalar recursion with A = +-1, P(A = +1) = q_a, and b ~ N(0, sigma^2)."""
    if not 0.5 < q_a < 1.0:
        raise ValueError(f"q_a must lie in (1/2, 1), got {q_a}")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return LsaModel(
        abar=np.array([[2.0 * q_a - 1.0]]),
        bbar=np.zeros(1),
        c_a=1.0,
        sigma_b=float(sigma),
        sampler=_TableSampler(
            _SIGN_ATOMS, np.array([1 - q_a, q_a]), np.zeros((1, 1)), float(sigma)
        ),
    )


def biased_rademacher_model(q_a: float) -> LsaModel:
    """Scalar recursion with A = +-1, P(A = +1) = q_a in (1/2, 1), b = 0.

    The mean 2*q_a - 1 is positive, so the recursion is stable in every
    moment of low enough order, yet moments of order above a finite
    threshold blow up exponentially; tails of the n-step product are exact
    Binomial sums.
    """
    return _sign_model(q_a, 0.0)


def rademacher_gaussian_model(q_a: float, sigma: float) -> LsaModel:
    """Scalar recursion with A = +-1 (P(+1) = q_a) and b ~ N(0, sigma^2)."""
    return _sign_model(q_a, sigma)


def bounded_factor_model(
    abar: np.ndarray,
    bbar: np.ndarray,
    m: np.ndarray,
    eta: float,
    sigma: float,
) -> LsaModel:
    """A = abar + eta * zeta * M with a fair sign zeta; b = bbar + sigma * g.

    The multiplicative noise is bounded (two-point), the additive noise
    Gaussian.  ``c_a = ||abar|| + eta * ||M||``, and the effective-noise
    covariance that the model derives from the two atoms is
    ``sigma^2 * I + eta^2 * (M theta*) (M theta*)^T`` up to rounding.
    """
    abar = _as_square(abar, "abar")
    m = _as_square(m, "m")
    bbar = _require_finite(np.asarray(bbar, dtype=float).reshape(-1), "bbar")
    d = abar.shape[0]
    if bbar.shape != (d,) or m.shape != (d, d):
        raise ValueError("abar, bbar, m have inconsistent shapes")
    for name, value in (("eta", eta), ("sigma", sigma)):
        if not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    # zeta = -1 (index 0) or +1 (index 1), each with probability 1/2; an atom
    # that overflows is rejected by LsaModel, so it needs no warning here
    with np.errstate(over="ignore"):
        atoms = abar + eta * _SIGN_ATOMS * m
    return LsaModel(
        abar=abar,
        bbar=bbar,
        c_a=float(spectral_norm(abar) + eta * spectral_norm(m)),
        sigma_b=float(sigma * np.sqrt(d)),
        sampler=_TableSampler(atoms, np.full(2, 0.5), bbar[None], float(sigma)),
    )


# ---------------------------------------------------------------------------
# Temporal-difference evaluation on a finite-state reward process.
# ---------------------------------------------------------------------------


def stationary_law(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solves pi @ p = pi with sum(pi) = 1 directly: the last equation of
    (p.T - I) @ pi = 0 is replaced by sum(pi) = 1.  That system is
    nonsingular exactly when the law is unique (periodic chains included);
    otherwise, as for p = I, raises ValueError.
    """
    p = _as_square(p, "p")
    s = p.shape[0]
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
        raise ValueError("p must be row-stochastic")
    system = p.T - np.eye(s)
    system[-1] = 1.0
    if np.linalg.matrix_rank(system) < s:
        raise ValueError("p has no unique stationary law: it has more than one closed class")
    pi = np.linalg.solve(system, np.eye(s)[-1])
    # rounding can leave a state of probability 0 slightly negative
    return np.maximum(pi, 0.0)


def td_zero_model(
    p: np.ndarray, rewards: np.ndarray, phi: np.ndarray, gamma: float
) -> LsaModel:
    """Temporal-difference(0) evaluation pairs on a finite reward process.

    Pairs (x_n, x_n') are drawn i.i.d., the state from the stationary law
    pi of ``p`` and the successor from ``p[x_n]``, as one atom of weight
    ``pi[x] p[x, x']``; then

        A_n = phi(x_n) (phi(x_n) - gamma * phi(x_n'))^T,
        b_n = r(x_n) * phi(x_n).

    The mean pair, the stationary law, c_a (max over transitions of the
    rank-one norm), sigma_b (max over states of ||b - bbar||) and the exact
    effective-noise covariance are all finite sums over the state space.
    """
    p = _as_square(p, "p")
    rewards = _require_finite(np.asarray(rewards, dtype=float).reshape(-1), "rewards")
    phi = _require_finite(np.asarray(phi, dtype=float), "phi")
    s = p.shape[0]
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    if phi.ndim != 2 or phi.shape[0] != s or rewards.shape != (s,):
        raise ValueError("p, rewards, phi have inconsistent shapes")
    pi = stationary_law(p)
    d_pi = np.diag(pi)
    abar = phi.T @ d_pi @ (phi - gamma * (p @ phi))
    bbar = phi.T @ (pi * rewards)
    # atom x * S + x' is phi(x) (phi(x) - gamma phi(x'))^T, of weight
    # pi[x] p[x, x'], with b row r(x) phi(x), for every pair of states
    states = np.repeat(np.arange(s), s)
    f, f_next = phi[states], phi[np.tile(np.arange(s), s)]
    sampler = _TableSampler(
        atoms=f[:, :, None] * (f - gamma * f_next)[:, None, :],
        weights=(pi[:, None] * p).reshape(-1),
        b_atoms=rewards[states][:, None] * f,
        sigma=0.0,
    )
    # the almost-sure bound c_a over reachable transitions
    c_a = 0.0
    for k in np.flatnonzero(sampler.weights):
        norm_next = np.linalg.norm(f[k] - gamma * f_next[k])
        c_a = max(c_a, float(np.linalg.norm(f[k]) * norm_next))
    sigma_b = float(max(np.linalg.norm(rewards[x] * phi[x] - bbar) for x in range(s)))
    return LsaModel(
        abar=abar,
        bbar=bbar,
        c_a=max(c_a, float(spectral_norm(abar))),
        sigma_b=sigma_b,
        sampler=sampler,
    )


def lyapunov_witness(model: LsaModel):
    """Spectral profile of the model's mean matrix (convenience wrapper)."""
    return spectral_profile(model.abar, model.c_a)


# ---------------------------------------------------------------------------
# Exact second-moment structure of the random matrices.
# ---------------------------------------------------------------------------


def _second_moment_transfer(model: LsaModel, alpha: float) -> np.ndarray:
    """One-step map E[kron(G, G)] of vec(E[x x.T]), G = I - alpha*A, shape (d^2, d^2).

    In numpy's row-major vec, ``kron(G, G) @ vec(X) == vec(G @ X @ G.T)``.
    """
    g = np.eye(model.dim) - alpha * model.abar
    return _kron(g, g) + alpha**2 * (model.kernel_exact - _kron(model.abar, model.abar))


def exact_stationary_cov(model: LsaModel, alpha: float) -> np.ndarray:
    """Exact stationary covariance of theta - theta_star at stepsize alpha.

    The stationary V solves

        abar @ V + V @ abar.T - alpha * E[A V A.T] = alpha * Sigma_eps,

    the fixed point of the one-step map V -> E[(I-alpha*A) V (I-alpha*A).T]
    + alpha^2 * Sigma_eps.  Unlike the linearized stationary scale
    (``solve_riccati``, which replaces E[A . A.T] by abar . abar.T), this
    keeps the multiplicative noise exactly, so it is the true limit of
    Var(theta_n) whenever that limit exists.  ``abar`` needs no check here:
    a model's is Hurwitz by construction.  Raises for a stepsize that is not
    positive and finite, when the second-moment map is not a contraction at
    this stepsize, and, like the other covariance solves, when the solution
    misses its residual tolerance.
    """
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    transfer = _second_moment_transfer(model, alpha)
    radius = float(np.max(np.abs(np.linalg.eigvals(transfer))))
    if radius >= 1.0:
        raise ValueError(
            f"second moment of the iterates has no stationary value at "
            f"alpha={alpha} (one-step transfer has spectral radius {radius:.6g})"
        )
    rhs = alpha * model.sigma_eps_exact
    return _solve_stationary(
        model.abar[None], rhs, alpha, model.kernel_exact, "stationary covariance"
    )[0][0]
