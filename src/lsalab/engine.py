"""Simulation engine: trajectories, error decomposition, Monte Carlo estimates.

Determinism contract: trajectory j reads its own counter stream
``stream(seed, j)`` in the model's fixed word layout, so it is a pure
function of ``(model, alpha, seed, j)``.  The batch routines
(``final_errors``, ``mc_norm_moment``, ``coupled_w2`` and the error
decomposition ``_decomposed_errors``) all step through one driver,
``_drive``: it runs the trajectories in chunks of fixed rows, as many as fit
whole paths in a float budget but never fewer than a row floor, and reads
a chunk's paths a window of steps at a time into one word buffer per drive
(window offsets and buffer reuse live there; the sampler only decodes the
words), so that a chunk's draws stay in the budget at any horizon.  The
streams are counter-based, so a window reads its words bit for bit
wherever it starts.  It tiles the start
state over each chunk and applies the caller's step to it, each row with a
lone trajectory's arithmetic (``_matvec``).  One streaming reducer,
``_Moments``, gives every Monte Carlo mean and sample variance: it reduces
fixed granules of _GRANULE trajectories, aligned to the trajectory index,
and merges them in a fixed pairwise tree (Chan, Golub & LeVeque), so results
are bit-identical however trajectories are chunked, windowed or scheduled
and rows do not depend on the chunk budget; a drive that feeds it cuts its
chunks at whole granules.  ``coupled_w2`` reduces its per-step values, a
batch of steps at a time, as the driver produces them, so no estimator holds
an (n_traj, n + 1) array.  Equal values give a variance
of exactly 0.  ``mc_norm_moment`` and ``coupled_w2`` take their random
products from one product kernel, ``_products``, the only caller of the
driver that reads A's words alone.  A's law has finite support, so a batch
routine builds its A-dependent step matrices (such as I - alpha*A and A -
abar) once per call, one per atom of the sampler, and each step gathers them
by the decoded atom indices: the same numpy operations on the same values as
a per-step computation, hence the same bits.  ``run_trajectory``,
``run_decomposed`` and ``product`` are the single-trajectory references;
``run_decomposed`` runs the batch decomposition's step (``_decomposition``)
through the driver on one row drawn from its own generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.random import Generator

from lsalab.linalg import SpectralProfile, _horizon, _logsumexp
from lsalab.noise import LsaModel, _second_moment_transfer, lyapunov_witness
from lsalab.rng import _block_uniforms, stream, uniform_open01

# Monte Carlo statistics are reduced in granules of this many trajectories,
# aligned to the trajectory index (see _Moments).
_GRANULE = 256

# A chunk's draws and step temporaries stay under about this many floats, and
# a chunk holds at least _CHUNK_ROWS trajectories, or all of them if fewer: a
# longer path than fits at that many rows is drawn in windows of steps (see
# _layout), so a step's numpy calls serve as many rows at any horizon.
_CHUNK_FLOAT_BUDGET = 1_000_000
_CHUNK_ROWS = 4 * _GRANULE


class TrajectoryBlowup(RuntimeError):
    """A simulated iterate became non-finite.

    Attributes carry the step index (and trajectory index for batch runs) so
    callers can report the failure instead of crashing.
    """

    def __init__(self, step: int, trajectory: int | None = None):
        self.step = step
        self.trajectory = trajectory
        where = f"step {step}" if trajectory is None else f"trajectory {trajectory}, step {step}"
        super().__init__(f"iterate became non-finite at {where}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo point estimate with its standard error."""

    value: float
    std_err: float
    n_samples: int


@dataclass(frozen=True)
class TrajectoryDecomposition:
    """Exact four-term split of the final error theta_n - theta_star.

    gamma_term: product-of-factors transient carrying theta_0 - theta_star;
    j0: linear noise accumulation driven by the mean matrix;
    j1: first-order multiplicative-noise correction;
    h1: the remainder.  The four parts sum to theta_err (validated here to
    1e-9 relative -- they are the same arithmetic regrouped); ``residual``
    is the identity's relative residual.
    """

    gamma_term: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    h1: np.ndarray
    theta_err: np.ndarray
    residual: float = field(init=False)

    def __post_init__(self):
        terms = np.stack([self.theta_err, self.gamma_term, self.h1, self.j1, self.j0])
        object.__setattr__(self, "residual", float(_decomposition_residuals(terms[None])[0]))


def _decomposition_residuals(terms: np.ndarray) -> np.ndarray:
    """Relative residuals of theta_err = gamma_term + j0 + j1 + h1, shape (N,).

    ``terms`` (N, 5, d) holds rows theta_err, gamma_term, h1, j1, j0, as
    ``_decomposed_errors`` returns them.  Row i's residual is
    ||gamma_term + j0 + j1 + h1 - theta_err|| / max(||theta_err||, 1e-30);
    raises ValueError if a residual norm exceeds 1e-9 times the largest
    norm of its row's five terms.  A NaN residual raises nothing: it fails
    the caller's tolerance check instead.
    """
    theta_err, gamma_term, h1, j1, j0 = terms.transpose(1, 0, 2)[..., None]
    resid = np.sqrt(_sq_norms(gamma_term + j0 + j1 + h1 - theta_err))
    norms = np.sqrt(_sq_norms(terms.reshape(-1, terms.shape[2], 1))).reshape(terms.shape[:2])
    scale = np.maximum(norms.max(axis=1), 1e-30)
    bad = resid > 1e-9 * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"decomposition identity violated: residual {resid[i]:.3e} vs scale {scale[i]:.3e}"
        )
    return resid / np.maximum(norms[:, 0], 1e-30)


def _check_run_args(model: LsaModel, alpha: float, n: int) -> None:
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def run_trajectory(
    model: LsaModel, alpha: float, theta0: np.ndarray, n: int, gen: Generator
) -> np.ndarray:
    """Iterate theta_{k+1} = theta_k - alpha*(A_{k+1} theta_k - b_{k+1}).

    Returns the full path, shape (n+1, d).  Raises TrajectoryBlowup with the
    offending step index if an iterate becomes non-finite.
    """
    _check_run_args(model, alpha, n)
    theta = np.asarray(theta0, dtype=float).reshape(model.dim).copy()
    path = np.empty((n + 1, model.dim))
    path[0] = theta
    if n == 0:
        return path
    a_seq, b_seq = model.sample_path(gen, n)
    for k in range(n):
        theta = theta - alpha * (a_seq[k] @ theta - b_seq[k])
        if not np.all(np.isfinite(theta)):
            raise TrajectoryBlowup(step=k + 1)
        path[k + 1] = theta
    return path


def run_decomposed(
    model: LsaModel, alpha: float, theta0: np.ndarray, n: int, gen: Generator
) -> TrajectoryDecomposition:
    """Run the recursion and its four-term error decomposition on shared draws.

    All five recursions (the iterate itself, the transient product term, and
    the three noise terms) consume the same (A_k, b_k) sequence, so the
    identity  theta_err = gamma_term + j0 + j1 + h1  holds to rounding error.
    The single-trajectory reference of the batch kernel ``_decomposed_errors``,
    with the same step (``_decomposition``); its one drive raises
    TrajectoryBlowup at the first step whose theta_err is not finite.
    """
    _check_run_args(model, alpha, n)
    start, step = _decomposition(model, alpha, theta0)
    words = uniform_open01(gen, (1, model.sampler._words(n, with_b=True)))

    def check(rows, k, state):
        # as in run_trajectory, a non-finite start is named at step 1
        if k and not np.all(np.isfinite(state[:, 0])):
            raise TrajectoryBlowup(step=k)

    end = _drive(model, n, start, step, words=words, observe=check)
    theta_err, gamma_term, h1, j1, j0 = end[0, :5, :, 0]
    return TrajectoryDecomposition(gamma_term=gamma_term, j0=j0, j1=j1, h1=h1, theta_err=theta_err)


# The seven decomposition rows are theta_err, gamma_term, h1, j1, j0, j0, j1;
# a step's products come out in stack order and are put back in this order.
_DECOMPOSE_ROWS = [0, 1, 2, 3, 4, 4, 3]


def _decomposition(model: LsaModel, alpha: float, theta0: np.ndarray):
    """The (7, d, 1) start state of the error decomposition and its step.

    At step 0, theta_err = gamma_term = theta0 - theta_star.  A step is one
    stacked product of [G_k, G_k, G_k, G_mean, G_mean, delta_k, delta_k]
    with the rows, with G_k = I - alpha*A_k, G_mean = I - alpha*abar and
    delta_k = A_k - abar; then theta_err and j0 add alpha*eps_k, with
    eps_k = (b_k - bbar) - delta_k @ theta_star, h1 subtracts
    alpha*(delta_k j1) and j1 subtracts alpha*(delta_k j0).  The stacks and
    the drifts delta_k @ theta_star are built once per atom of the sampler.
    """
    d = model.dim
    start = np.zeros((7, d, 1))
    start[0:2, :, 0] = np.asarray(theta0, dtype=float).reshape(d) - model.theta_star
    atoms = model.sampler.atoms
    eye = np.eye(d)
    stacks = np.empty((len(atoms), 7, d, d))
    stacks[:, 0:3] = (eye - alpha * atoms)[:, None]
    stacks[:, 3:5] = eye - alpha * model.abar
    delta = atoms - model.abar
    stacks[:, 5:7] = delta[:, None]
    drifts = delta @ model.theta_star

    def step(state, index, b_k):
        p = _matvec(stacks.take(index, axis=0), state)
        p[:, 5:7] *= alpha
        p[:, 2:4] -= p[:, 6:4:-1]
        eps = (b_k[..., 0] - model.bbar) - drifts.take(index, axis=0)
        p[:, 0:5:4] += (alpha * eps)[:, None, :, None]
        return p[:, _DECOMPOSE_ROWS]

    return start, step


def product(model: LsaModel, alpha: float, n: int, gen: Generator) -> np.ndarray:
    """Random product Gamma_{1:n} = (I - alpha*A_n) ... (I - alpha*A_1).

    n = 0 returns the identity.
    """
    _check_run_args(model, alpha, n)
    d = model.dim
    gamma = np.eye(d)
    if n == 0:
        return gamma
    a_seq, _ = model.sample_path(gen, n)
    eye = np.eye(d)
    for k in range(n):
        gamma = (eye - alpha * a_seq[k]) @ gamma
    return gamma


def _layout(model: LsaModel, n: int, with_b: bool, state_floats: int, n_traj: int, reduced=False):
    """(rows, window, width, b_words): chunk rows, window steps, buffer words a row, b words a step.

    Per trajectory, a step of a window holds its words in the buffer (its A
    word, or its b words where they are more: ``width`` / ``window`` of
    them), its decoded draws beside them (``sampler._held``), and a step on
    a state of ``state_floats`` floats holds the state, its update and the
    gathered (d, d) step matrices: at most d + 2 floats per state float.  A
    chunk is as many trajectories as fit whole paths in the budget, but at
    least _CHUNK_ROWS (all n_traj, if fewer); a ``reduced`` drive, whose
    states feed ``_Moments``, rounds them down to whole granules, at least
    one, where it takes more than one chunk.  A window is as many steps as
    fit in the budget beside the chunk's states, at least 1, and the path's
    windows are made as even as whole steps allow.
    """
    sampler = model.sampler
    b_words = sampler._words(1, with_b) - 1
    # a step's A word, or its b words where they are more
    words = max(1, b_words)
    step_bytes = 8 * words + sampler._held(with_b)
    state_bytes = 8 * (model.dim + 2) * state_floats
    budget = 8 * _CHUNK_FLOAT_BUDGET
    rows = max(1, min(n_traj, max(_CHUNK_ROWS, budget // (n * step_bytes + state_bytes))))
    if reduced and rows < n_traj:
        rows = min(n_traj, max(_GRANULE, rows - rows % _GRANULE))
    fit = max(1, (budget // rows - state_bytes) // step_bytes)
    windows = max(1, -(-n // fit))
    window = max(1, -(-n // windows))
    return rows, window, window * words, b_words


def _drive(
    model: LsaModel, n: int, start: np.ndarray, step, seed: int = 0, n_traj: int = 1, *,
    with_b: bool = True, words: np.ndarray | None = None, observe=None, reference=None,
) -> np.ndarray:
    """Final states of n_traj trajectories of n steps, shape (n_traj, *start.shape).

    Trajectory j reads stream(seed, j), or with ``words`` the one row of
    words given, shape (1, words); with_b=False reads only the A words.
    Trajectories run in chunks of fixed rows, and each chunk's paths are
    drawn and decoded a window of steps at a time (``_layout`` sizes both).
    Window [s, s + w) reads A words [s, s + w) into the drive's one buffer,
    from its start, for the sampler to decode to atom indices, then b words
    [n + s*d, n + (s + w)*d), none for a law without b words, into the same
    buffer to decode in place; its draws are dropped before the next window
    is drawn.  Each chunk starts from ``start`` tiled, and
    ``step(state, index_k, b_k)`` returns the chunk's next state from the
    step's atom indices and b draws (shape (rows, d, 1), or None).
    ``observe(rows, k, state)`` sees the state of trajectories ``rows`` (a
    slice) at each step k = 0..n, the tiled start at k = 0; a drive with
    ``observe`` is laid out as one that feeds the reducer.  With
    ``reference``, a function of a trajectory's generator that raises
    TrajectoryBlowup at its first non-finite step, a final iterate (the
    leading d floats of a state) that is not finite raises TrajectoryBlowup
    with the first such trajectory and the step its reference names.
    """
    sampler = model.sampler
    chunk, window, width, b_words = _layout(
        model, n, with_b, start.size, n_traj, reduced=observe is not None
    )
    out = np.empty((n_traj,) + start.shape)
    buffer = np.empty(chunk * width)
    for lo in range(0, n_traj, chunk):
        hi = min(lo + chunk, n_traj)

        def draw(n_words, first):
            u = buffer[: (hi - lo) * n_words].reshape(hi - lo, n_words)
            if words is None:
                return _block_uniforms(seed, lo, hi, n_words, first, out=u)
            u[...] = words[:, first : first + n_words]
            return u

        state = np.tile(start, (hi - lo,) + (1,) * start.ndim)
        if observe is not None:
            observe(slice(lo, hi), 0, state)
        for s in range(0, n, window):
            w = min(window, n - s)
            index = sampler._index(draw(w, s))
            # no b words, no draw: even a zero-width one resets Philox per row
            g = draw(w * b_words, n + s * b_words) if b_words else None
            b = sampler._b(index, g) if with_b else None
            for i in range(w):
                state = step(state, index[:, i], None if b is None else b[:, i, :, None])
                if observe is not None:
                    observe(slice(lo, hi), s + i + 1, state)
            # the window's draws die before the next window is drawn
            del index, g, b
        out[lo:hi] = state
        if reference is not None:
            bad = ~np.all(np.isfinite(state.reshape(hi - lo, -1)[:, : model.dim]), axis=1)
            if np.any(bad):
                j = lo + int(np.argmax(bad))
                try:
                    reference(stream(seed, j))
                except TrajectoryBlowup as exc:
                    raise TrajectoryBlowup(exc.step, trajectory=j) from None
                raise TrajectoryBlowup(n, trajectory=j)
    return out


def _matvec(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g[i] @ x[i] for stacks g (B, r, c) and x (B, c, m), bit-identical per slice.

    A stacked matmul is one BLAS call per slice; a contraction of length 1
    multiplies elementwise instead (a stacked 1x1 matmul costs ~10x more).
    """
    return g * x if g.shape[-1] == 1 else g @ x


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms x[i] . x[i] of a (B, d, 1) stack, shape (B,)."""
    return _matvec(np.swapaxes(x, 1, 2), x)[:, 0, 0]


def final_errors(
    model: LsaModel, alpha: float, theta0: np.ndarray, n: int, n_traj: int, seed: int
) -> np.ndarray:
    """theta_n - theta_star for n_traj independent trajectories, shape (n_traj, d).

    Trajectory j uses stream(seed, j).  Raises TrajectoryBlowup (with the
    trajectory index) if any trajectory leaves the finite range.
    """
    _check_run_args(model, alpha, n)
    theta0 = np.asarray(theta0, dtype=float).reshape(model.dim)
    atoms = model.sampler.atoms
    theta = _drive(
        model, n, theta0[:, None],
        lambda x, index, b_k: x - alpha * (_matvec(atoms.take(index, axis=0), x) - b_k),
        seed, n_traj, reference=partial(run_trajectory, model, alpha, theta0, n),
    )
    return theta[:, :, 0] - model.theta_star


def _decomposed_errors(
    model: LsaModel, alpha: float, theta0: np.ndarray, n: int, n_traj: int, seed: int
) -> np.ndarray:
    """Decomposition terms of n_traj trajectories, shape (n_traj, 5, d).

    Row j holds theta_err, gamma_term, h1, j1, j0 of
    ``run_decomposed(model, alpha, theta0, n, stream(seed, j))``, bit for bit.
    Raises TrajectoryBlowup (with the trajectory index) if any theta_err
    leaves the finite range.
    """
    _check_run_args(model, alpha, n)
    start, step = _decomposition(model, alpha, theta0)
    end = _drive(
        model, n, start, step, seed, n_traj,
        reference=partial(run_decomposed, model, alpha, theta0, n),
    )
    return np.ascontiguousarray(end[:, :5, :, 0])


class _Moments:
    """Count, mean and M2 of per-trajectory values in ``width`` columns, streamed.

    Trajectories fall in granules of _GRANULE consecutive indices from 0
    (the last may be shorter).  A granule's column is reduced from its
    values shifted by its first value: their mean d, one numpy sum, then
    M2 = the sum of (shifted - d)^2, with mean = first + d, so equal values
    give their own value and an M2 of exactly 0.  Granules are merged in
    index order on a binary-counter stack by Chan, Golub & LeVeque's update,
    so the tree depends on n_traj alone.  ``add`` takes the trajectories in
    blocks of whole granules, column by column from 0 to width - 1, and
    batches a block's columns so that one reduction serves several.  Each
    column is reduced alone, so the bits depend only on the trajectory
    indices, not on the blocks or the batches.  For blocks of at most R
    trajectories it holds O((R / _GRANULE + log n_traj) * width) floats of
    granules and stack, and a batch of at most _GRANULE floats a column.
    """

    def __init__(self, n_traj: int, width: int):
        self.n_traj, self.width = n_traj, width
        self.batch = np.empty((0, 0))  # sized by _fit from the first block
        self.first = 0  # the batch's first column
        self.mean, self.m2 = np.empty((2, (-(-n_traj // _GRANULE)).bit_length() + 1, width))
        self.counts: list[int] = []

    def _fit(self, rows: int) -> None:
        """Size the batch and the leaves for blocks of ``rows`` trajectories."""
        # a batch holds at most _GRANULE floats a column, and its reduction's
        # temporaries stay small beside a chunk's draws
        self.batch = np.empty((max(1, min(64, self.width, self.width * _GRANULE // rows)), rows))
        # a block's granules wait here until its last column is added
        leaves = -(-rows // _GRANULE)
        self.leaf_mean, self.leaf_m2 = np.empty((2, leaves, self.width))
        self.leaf_n = [0] * leaves

    def add(self, rows: slice, k: int, values: np.ndarray) -> None:
        """Column k's values, shape (hi - lo,), of trajectories rows = lo:hi.

        A block is whole granules, the run's shorter last one included;
        one that splits a granule raises ValueError.
        """
        lo, hi = rows.start, rows.stop
        if lo % _GRANULE or (hi % _GRANULE and hi != self.n_traj):
            raise ValueError(f"rows {lo}:{hi} split a granule of {_GRANULE} trajectories")
        # the driver's first block is its largest; a larger block resizes at
        # its column 0, when no batched column or leaf is pending
        if hi - lo > self.batch.shape[1]:
            self._fit(hi - lo)
        self.batch[k - self.first, : hi - lo] = values
        if k - self.first + 1 < len(self.batch) and k < self.width - 1:
            return
        # columns first..k of the block, reduced in place (v, its rows) by granule
        cols, v = slice(self.first, k + 1), self.batch[: k + 1 - self.first, : hi - lo]
        self.first = (k + 1) % self.width
        whole = (hi - lo) // _GRANULE * _GRANULE
        leaf = self._reduce(v[:, :whole].reshape(len(v), -1, _GRANULE), 0, cols)
        if whole < hi - lo:  # the run's last granule, shorter
            leaf = self._reduce(v[:, None, whole:], leaf, cols)
        if k == self.width - 1:
            for i in range(leaf):
                self._push(i)

    def _reduce(self, v: np.ndarray, leaf: int, cols: slice) -> int:
        """Columns ``cols`` of granules v (columns, m, count), in place, into
        leaves leaf..leaf+m; the next leaf."""
        _, m, count = v.shape
        # an overflowed first value shifts by 0, so that the mean is inf, not nan
        shift = np.where(np.isfinite(v[:, :, :1]), v[:, :, :1], 0.0)
        v -= shift
        d = v.sum(axis=2) / count
        v -= d[:, :, None]
        np.square(v, out=v)
        self.leaf_m2[leaf : leaf + m, cols] = v.sum(axis=2).T
        self.leaf_mean[leaf : leaf + m, cols] = (shift[:, :, 0] + d).T
        self.leaf_n[leaf : leaf + m] = [count] * m
        return leaf + m

    def _push(self, i: int) -> None:
        top = len(self.counts)
        self.mean[top], self.m2[top] = self.leaf_mean[i], self.leaf_m2[i]
        self.counts.append(self.leaf_n[i])
        while len(self.counts) > 1 and self.counts[-1] == self.counts[-2]:
            self._merge()

    def _merge(self) -> None:
        """Merge the top node of the stack into the one below it."""
        n_b = self.counts.pop()
        n_a = self.counts[-1]
        j, total = len(self.counts) - 1, n_a + n_b
        a, b = self.mean[j], self.mean[j + 1]
        delta = b - a
        # a mean that overflowed adds as itself: inf + a finite mean is inf
        a += np.where(np.isfinite(a) & np.isfinite(b), delta * (n_b / total), b)
        self.m2[j] += self.m2[j + 1]
        self.m2[j] += delta * delta * (n_a * n_b / total)
        self.counts[-1] = total

    def mean_var(self) -> tuple[np.ndarray, np.ndarray]:
        """Each column's mean and sample variance M2 / (N - 1), shape (width,) each."""
        while len(self.counts) > 1:
            self._merge()
        if self.counts != [self.n_traj]:
            raise ValueError(f"reduced {sum(self.counts)} of {self.n_traj} trajectories")
        return self.mean[0], self.m2[0] / (self.n_traj - 1)


def _mean_var(x: np.ndarray) -> tuple[float, float]:
    """Mean and sample variance of a sample x of shape (N,), N >= 2 (see _Moments)."""
    moments = _Moments(len(x), 1)
    moments.add(slice(0, len(x)), 0, x)
    mean, var = moments.mean_var()
    return float(mean[0]), float(var[0])


def _products(
    model: LsaModel, alpha: float, n: int, start: np.ndarray, n_traj: int, seed: int, observe=None
) -> np.ndarray:
    """Products (I - alpha*A_n) ... (I - alpha*A_1) @ start of n_traj >= 2 trajectories.

    The one product kernel: it checks its arguments before any work and
    builds I - alpha*A once per atom.  Returns the final states, or with
    ``observe``, a map of a stack of states to one float each, the mean and
    sample variance of its values at steps k = 0..n, each shape (n + 1,),
    reduced step by step (``_Moments``).
    """
    _check_run_args(model, alpha, n)
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    factors = np.eye(model.dim) - alpha * model.sampler.atoms
    if observe is None:
        meter = moments = None
    else:
        moments = _Moments(n_traj, n + 1)

        def meter(rows, k, state):
            moments.add(rows, k, observe(state))

    end = _drive(
        model, n, start, lambda x, index, _: _matvec(factors.take(index, axis=0), x),
        seed, n_traj, with_b=False, observe=meter,
    )
    return end if observe is None else moments.mean_var()


def mc_norm_moment(
    model: LsaModel, alpha: float, n: int, p: float, n_traj: int, seed: int
) -> McEstimate:
    """Monte Carlo estimate of E^(1/p) ||Gamma_{1:n}||^p over n_traj products.

    The standard error comes from the delta method applied to the sample mean
    of X_j = ||Gamma_j||^p: se(est) = (1/p) * mean^(1/p - 1) * se(mean).
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    gamma = _products(model, alpha, n, np.eye(model.dim), n_traj, seed)
    if model.dim == 1:
        x = np.abs(gamma[:, 0, 0]) ** p
    else:  # scalar powers, as for one product: numpy's array power rounds differently
        x = np.array([v**p for v in np.linalg.norm(gamma, 2, axis=(1, 2)).tolist()])
    mean, var = _mean_var(x)
    se_mean = math.sqrt(var) / math.sqrt(n_traj)
    if mean <= 0.0:
        return McEstimate(value=0.0, std_err=0.0, n_samples=n_traj)
    value = mean ** (1.0 / p)
    std_err = (1.0 / p) * mean ** (1.0 / p - 1.0) * se_mean
    return McEstimate(value=value, std_err=std_err, n_samples=n_traj)


def cov_j0(model: LsaModel, alpha: float, n: int) -> np.ndarray:
    """Exact covariance of the linear noise term after n steps.

    Sigma_0 = 0;  Sigma_{k+1} = (I - alpha*abar) Sigma_k (I - alpha*abar)^T
    + alpha^2 * Sigma_eps.  As n grows this approaches alpha * S where S
    solves the discretized-Riccati equation.
    """
    _check_run_args(model, alpha, n)
    g = np.eye(model.dim) - alpha * model.abar
    sig = np.zeros((model.dim, model.dim))
    drive = alpha**2 * model.sigma_eps_exact
    for _ in range(n):
        sig = g @ sig @ g.T + drive
    return 0.5 * (sig + sig.T)


def stationary_horizon(profile: SpectralProfile, alpha: float, tol: float) -> int:
    """Burn-in length n with sqrt(kappa_q * d) * (1 - a*alpha/2)^(n/2) <= tol.

    ceil(2 * log(tol / sqrt(kappa_q * d)) / log(1 - a*alpha/2)), at least 1.
    """
    if not 0.0 < tol:
        raise ValueError(f"tol must be positive, got {tol}")
    return _horizon(profile, alpha, tol / math.sqrt(profile.kappa_q * profile.dim))


def sample_stationary(model: LsaModel, alpha: float, n_samples: int, seed: int) -> np.ndarray:
    """Approximate stationary samples by forward burn-in from theta_star.

    Each sample is the endpoint of an independent trajectory of length
    N(alpha, tol) started at theta_star, with tol = 1e-8 * (1 + ||theta_star||)
    and N read from ``lyapunov_witness(model)``.  Returns shape (n_samples, d).
    """
    tol = 1e-8 * (1.0 + float(np.linalg.norm(model.theta_star)))
    n = stationary_horizon(lyapunov_witness(model), alpha, tol)
    return model.theta_star + final_errors(model, alpha, model.theta_star, n, n_samples, seed)


def coupled_w2(
    model: LsaModel,
    alpha: float,
    n: int,
    theta0_a: np.ndarray,
    theta0_b: np.ndarray,
    n_traj: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Synchronous-coupling contraction curve.

    Two copies of the recursion share every (A, b) draw, so their difference
    satisfies Delta_{k+1} = (I - alpha*A_{k+1}) Delta_k.  Returns the per-step
    estimates of E^(1/2) ||Delta_k||^2 for k = 0..n and their delta-method
    standard errors, each of shape (n+1,), from n_traj >= 2 coupled pairs.
    """
    d = model.dim
    delta0 = np.asarray(theta0_a, dtype=float).reshape(d) - np.asarray(
        theta0_b, dtype=float
    ).reshape(d)
    mean, var = _products(model, alpha, n, delta0[:, None], n_traj, seed, observe=_sq_norms)
    se_mean = np.sqrt(var) / math.sqrt(n_traj)
    value = np.sqrt(mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        return value, np.where(mean > 0.0, se_mean / (2.0 * value), 0.0)


def coupled_exact_sq(
    model: LsaModel, alpha: float, n: int, delta0: np.ndarray
) -> np.ndarray:
    """Exact E||Delta_k||^2, k = 0..n, for the synchronous coupling.

    vec(E[Delta_k Delta_k.T]) evolves by the one-step second-moment transfer
    E[(I - alpha*A) (x) (I - alpha*A)] built from the kernel E[A (x) A] that
    the model derives from its sampler's ``(atoms, weights)``; each entry of
    the returned curve is the trace of the matrixized state.  This is the
    deterministic counterpart of the Monte Carlo curve from
    :func:`coupled_w2` (squared scale).  Once the state overflows, the
    curve stays +inf.
    """
    _check_run_args(model, alpha, n)
    d = model.dim
    delta0 = np.asarray(delta0, dtype=float).reshape(d)
    transfer = _second_moment_transfer(model, alpha)
    state = np.outer(delta0, delta0).reshape(-1)
    out = np.empty(n + 1)
    idx = np.arange(d) * (d + 1)
    out[0] = float(np.sum(state[idx]))
    for k in range(n):
        state = transfer @ state
        trace = float(np.sum(state[idx]))
        if not math.isfinite(trace):
            # the moment overflowed; zero transfer entries times its inf
            # entries would make the later traces nan
            out[k + 1 :] = math.inf
            break
        out[k + 1] = trace
    return out


# ---------------------------------------------------------------------------
# Exact scalar oracles: product moments of any scalar law, tails of the +-1 chain.
# ---------------------------------------------------------------------------


def exact_product_moment(model: LsaModel, alpha: float, p: float, n: int) -> float:
    """Exact E|Gamma_{1:n}|^p of a one-dimensional model, from A's atom table.

    That is (sum_k w_k |1 - alpha*a_k|^p)^n over the sampler's atoms a_k and
    weights w_k, as exp(n * logsumexp_k(log w_k + p log|1 - alpha*a_k|)) so
    that no intermediate term overflows; a zero weight or factor adds no term.
    """
    _check_run_args(model, alpha, n)
    if model.dim != 1 or not p > 0.0:
        raise ValueError(f"need a one-dimensional model and p > 0, got dim={model.dim}, p={p}")
    step = alpha * model.sampler.atoms[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # log1p keeps small steps' last bits; past step 1 the factor is -(step - 1)
        log_factor = np.where(step <= 1.0, np.log1p(-step), np.log(step - 1.0))
        terms = np.log(model.sampler.weights) + p * log_factor
    return float(np.exp(n * _logsumexp(terms))) if n else 1.0


def rademacher_exact_tail(q_a: float, alpha: float, n: int, t: float) -> float:
    """Exact P(theta_n >= t) for the same recursion, via the Binomial CDF.

    theta_n = (1-alpha)^K (1+alpha)^(n-K) with K ~ Binomial(n, q_a), so the
    event is K <= k* with k* = floor((n log(1+alpha) - log t) / log((1+alpha)/(1-alpha))),
    clamped to [-1, n].  The CDF is summed in integers: with q_a = a/b
    exactly (b a power of two) and c = b - a, the terms
    T_i = C(n, i) a^i c^(n-i) follow T_{i+1} = T_i (n-i) a / ((i+1) c)
    without remainder, and P(K <= k*) = sum_{i <= k*} T_i / b^n, rounded
    once.
    """
    if not 0.0 < q_a < 1.0:
        raise ValueError(f"q_a must lie in (0, 1), got {q_a}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if t <= 0.0:
        return 1.0
    log_ratio = math.log1p(alpha) - math.log1p(-alpha)
    k_star = math.floor((n * math.log1p(alpha) - math.log(t)) / log_ratio)
    k_star = max(-1, min(n, k_star))
    if k_star < 0:
        return 0.0
    a, b = float(q_a).as_integer_ratio()
    c = b - a
    term = total = c**n
    for i in range(k_star):
        term = term * (n - i) * a // ((i + 1) * c)
        total += term
    # int / int is correctly rounded
    return total / b**n


# ---------------------------------------------------------------------------
# Empirical statistics for sampled ensembles.
# ---------------------------------------------------------------------------


def empirical_quantile(samples: np.ndarray, level: float) -> float:
    """Interpolated order statistic (numpy's linear interpolation rule)."""
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must lie in [0, 1], got {level}")
    return float(np.quantile(np.asarray(samples, dtype=float).reshape(-1), level))


def empirical_ks(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov statistic of a sample against a supplied CDF."""
    x = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
