"""Simulation engine: decomposition identity, exact scalar oracles,
chunking invariance, stationary sampling, and the coupled contraction curve."""

from __future__ import annotations

import ast
import itertools
import math
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lsalab
import lsalab.engine as engine
from lsalab.engine import (
    McEstimate,
    TrajectoryBlowup,
    cov_j0,
    coupled_exact_sq,
    coupled_w2,
    empirical_ks,
    empirical_quantile,
    exact_product_moment,
    final_errors,
    mc_norm_moment,
    product,
    rademacher_exact_tail,
    run_decomposed,
    run_trajectory,
    sample_stationary,
    stationary_horizon,
)
from lsalab.experiments import ExperimentConfig, resolve, run
from lsalab.linalg import _logsumexp, solve_riccati
from lsalab.noise import (
    biased_rademacher_model,
    bounded_factor_model,
    exact_stationary_cov,
    lyapunov_witness,
    rademacher_gaussian_model,
    td_zero_model,
)
from lsalab.rng import stream


def _chunks(patch, budget: int, rows: int) -> None:
    """Chunks of at least ``rows`` trajectories under a budget of ``budget`` floats."""
    patch.setattr(engine, "_CHUNK_FLOAT_BUDGET", budget)
    patch.setattr(engine, "_CHUNK_ROWS", rows)


def gm_model():
    """Scalar A = 1 + 0.5*zeta, b ~ N(0,1)."""
    return bounded_factor_model(
        np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 0.5, 1.0
    )


def d8_model():
    """The 8-dimensional banded bounded-factor model of the benchmark."""
    band = np.diag(np.ones(7), 1)
    abar = np.eye(8) + 0.25 * (band - band.T)
    m = 0.5 * np.eye(8) + 0.25 * (band + band.T)
    return bounded_factor_model(abar, np.ones(8), m, 0.5, 1.0)


def small_td():
    p = np.array([[0.2, 0.8], [0.6, 0.4]])
    rewards = np.array([1.0, -1.0])
    phi = np.array([[1.0, 0.2], [0.3, 1.0]])
    return td_zero_model(p, rewards, phi, gamma=0.8)


class TestRunTrajectory:
    def test_deterministic_recursion_by_hand(self):
        # eta = 0, sigma = 0: theta_{k+1} = (1 - alpha) theta_k + alpha * b
        model = bounded_factor_model(
            np.array([[1.0]]), np.array([2.0]), np.array([[1.0]]), 0.0, 0.0
        )
        path = run_trajectory(model, 0.25, np.array([0.0]), 3, stream(0, 0))
        expected = [0.0, 0.5, 0.875, 1.15625]
        assert np.allclose(path[:, 0], expected, atol=1e-14)

    def test_path_shape_and_start(self):
        model = small_td()
        theta0 = np.array([0.3, -0.2])
        path = run_trajectory(model, 0.05, theta0, 10, stream(1, 0))
        assert path.shape == (11, 2)
        assert np.allclose(path[0], theta0)

    def test_blowup_reports_step(self):
        model = gm_model()
        with np.errstate(all="ignore"), pytest.raises(TrajectoryBlowup) as info:
            run_trajectory(model, 1e150, np.array([1.0]), 500, stream(2, 0))
        assert info.value.step >= 1

    def test_rejects_bad_args(self):
        model = gm_model()
        with pytest.raises(ValueError):
            run_trajectory(model, 0.0, np.zeros(1), 5, stream(3, 0))
        with pytest.raises(ValueError):
            run_trajectory(model, 0.1, np.zeros(1), -1, stream(3, 0))


class TestDecomposition:
    @pytest.mark.parametrize("maker,alpha", [
        (gm_model, 0.1),
        (small_td, 0.05),
        (lambda: rademacher_gaussian_model(0.75, 1.0), 0.1),
    ])
    def test_parts_sum_to_error(self, maker, alpha):
        model = maker()
        theta0 = model.theta_star + 1.0
        for trial in range(10):
            dec = run_decomposed(model, alpha, theta0, 150, stream(4, trial))
            assert dec.residual <= 1e-9

    def test_matches_direct_run_on_shared_stream(self):
        model = small_td()
        theta0 = np.array([1.0, 1.0])
        dec = run_decomposed(model, 0.05, theta0, 80, stream(5, 0))
        path = run_trajectory(model, 0.05, theta0, 80, stream(5, 0))
        assert np.allclose(dec.theta_err, path[-1] - model.theta_star, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_blowup_reports_first_bad_step(self, dim):
        # b = 0 and A reads only the leading words, so the first s steps of
        # an s-step and an (s - 1)-step run share their draws
        model = bounded_factor_model(np.eye(dim), np.zeros(dim), 0.9 * np.eye(dim), 1.0, 0.0)
        theta0 = np.ones(dim)
        with np.errstate(all="ignore"), pytest.raises(TrajectoryBlowup) as info:
            run_decomposed(model, 1e77, theta0, 40, stream(35, 0))
        step = info.value.step
        assert step > 1
        with np.errstate(all="ignore"):
            run_decomposed(model, 1e77, theta0, step - 1, stream(35, 0))
            with pytest.raises(TrajectoryBlowup):
                run_decomposed(model, 1e77, theta0, step, stream(35, 0))

    @pytest.mark.parametrize("alpha, blows_up", [(1e77, True), (0.1, False)])
    def test_one_drive_names_a_blowup_or_returns_the_row(self, alpha, blows_up, monkeypatch):
        # the model of test_blowup_reports_first_bad_step: the step check
        # rides the row's one drive, so a failing row is not driven again
        model = bounded_factor_model(np.eye(2), np.zeros(2), 0.9 * np.eye(2), 1.0, 0.0)
        drives, drive = [], engine._drive

        def spy(*args, **kwargs):
            drives.append(kwargs.get("observe"))
            return drive(*args, **kwargs)

        monkeypatch.setattr(engine, "_drive", spy)
        with np.errstate(all="ignore"):
            if blows_up:
                with pytest.raises(TrajectoryBlowup) as info:
                    run_decomposed(model, alpha, np.ones(2), 40, stream(35, 0))
                assert info.value.step > 1
            else:
                assert run_decomposed(model, alpha, np.ones(2), 40, stream(35, 0)).residual <= 1e-9
        assert len(drives) == 1 and drives[0] is not None

    def test_a_non_finite_start_is_named_at_step_one(self):
        # step 0 is the start itself; every reference and batch kernel names
        # the first step whose iterate is not finite, here step 1
        model = gm_model()
        theta0, n = np.array([np.inf]), 5
        with np.errstate(all="ignore"):
            for reference in (run_trajectory, run_decomposed):
                with pytest.raises(TrajectoryBlowup) as info:
                    reference(model, 0.1, theta0, n, stream(37, 0))
                assert (info.value.trajectory, info.value.step) == (None, 1)
            for batch in (final_errors, engine._decomposed_errors):
                with pytest.raises(TrajectoryBlowup) as info:
                    batch(model, 0.1, theta0, n, 3, 37)
                assert (info.value.trajectory, info.value.step) == (0, 1)

    def test_noise_free_start_kills_transient(self):
        # started at theta_star the transient term carries zero
        model = gm_model()
        dec = run_decomposed(model, 0.1, model.theta_star, 50, stream(6, 0))
        assert np.allclose(dec.gamma_term, 0.0)

    def test_identity_guard_raises_on_corrupt_parts(self):
        from lsalab.engine import TrajectoryDecomposition

        with pytest.raises(ValueError, match="decomposition identity"):
            TrajectoryDecomposition(
                gamma_term=np.array([1.0]),
                j0=np.array([0.0]),
                j1=np.array([0.0]),
                h1=np.array([0.0]),
                theta_err=np.array([2.0]),
            )


def d2_model():
    """A 2-dimensional bounded-factor model with a nonzero target."""
    return bounded_factor_model(
        np.array([[1.0, 0.3], [-0.2, 0.8]]), np.array([1.0, -0.5]),
        np.array([[0.5, 0.1], [0.1, 0.4]]), 0.5, 1.0,
    )


class TestDecomposedErrors:
    @pytest.mark.parametrize("maker", [gm_model, d2_model, d8_model, small_td])
    def test_rows_are_the_bytes_of_run_decomposed(self, maker, monkeypatch):
        model = maker()
        alpha, theta0, n, n_traj, seed = 0.05, model.theta_star + 1.0, 30, 12, 41
        expected = []
        for j in range(n_traj):
            dec = run_decomposed(model, alpha, theta0, n, stream(seed, j))
            expected.append(np.stack([dec.theta_err, dec.gamma_term, dec.h1, dec.j1, dec.j0]))
        expected = np.stack(expected)
        for budget, rows in ((engine._CHUNK_FLOAT_BUDGET, engine._CHUNK_ROWS), (3000, 5)):
            _chunks(monkeypatch, budget, rows)
            terms = engine._decomposed_errors(model, alpha, theta0, n, n_traj, seed)
            assert terms.shape == (n_traj, 5, model.dim)
            assert terms.tobytes() == expected.tobytes()

    def test_blowup_reports_first_trajectory_and_step(self, monkeypatch):
        # as in TestFinalErrors: A = diag(1 +- 0.9), so only some of the
        # trajectories overflow within four steps at alpha = 1e77
        model = bounded_factor_model(np.eye(2), np.zeros(2), 0.9 * np.eye(2), 1.0, 0.0)
        alpha, theta0, n, n_traj, seed = 1e77, np.ones(2), 4, 64, 36
        expected = None
        with np.errstate(all="ignore"):
            for j in range(n_traj):
                try:
                    run_decomposed(model, alpha, theta0, n, stream(seed, j))
                except TrajectoryBlowup as exc:
                    expected = (j, exc.step)
                    break
        assert expected is not None and expected[0] > 0
        for budget, rows in ((engine._CHUNK_FLOAT_BUDGET, engine._CHUNK_ROWS), (250, 7)):
            _chunks(monkeypatch, budget, rows)
            with np.errstate(all="ignore"), pytest.raises(TrajectoryBlowup) as info:
                engine._decomposed_errors(model, alpha, theta0, n, n_traj, seed)
            assert (info.value.trajectory, info.value.step) == expected


class TestDecompositionResiduals:
    @pytest.mark.parametrize("maker", [gm_model, d2_model, d8_model])
    def test_rows_are_the_bytes_of_per_row_norms(self, maker):
        model = maker()
        terms = engine._decomposed_errors(model, 0.05, model.theta_star + 1.0, 30, 40, 42)
        expected = []
        for theta_err, gamma_term, h1, j1, j0 in terms:
            resid = float(np.linalg.norm(gamma_term + j0 + j1 + h1 - theta_err))
            expected.append(resid / max(float(np.linalg.norm(theta_err)), 1e-30))
        residuals = engine._decomposition_residuals(terms)
        assert residuals.tobytes() == np.array(expected).tobytes()

    def test_violated_identity_raises_and_nan_passes_through(self):
        terms = np.zeros((3, 5, 2))
        terms[:, 0] = terms[:, 1] = 1.0  # theta_err = gamma_term: residual 0
        terms[1, 2, 0] = math.nan
        residuals = engine._decomposition_residuals(terms)
        assert residuals[0] == residuals[2] == 0.0 and math.isnan(residuals[1])
        terms[2, 4, 1] = 1e-3
        with pytest.raises(ValueError, match="identity violated: residual 1.000e-03"):
            engine._decomposition_residuals(terms)


class TestProduct:
    def test_pure_product_drives_noise_free_error(self):
        # with b = 0 and theta* = 0, theta_n = Gamma_{1:n} theta_0
        model = biased_rademacher_model(0.75)
        gamma = product(model, 0.1, 40, stream(7, 0))
        path = run_trajectory(model, 0.1, np.array([1.5]), 40, stream(7, 0))
        assert path[-1, 0] == pytest.approx(gamma[0, 0] * 1.5, rel=1e-12)

    def test_zero_steps_is_identity(self):
        model = small_td()
        assert np.array_equal(product(model, 0.1, 0, stream(8, 0)), np.eye(2))


class TestFinalErrors:
    def test_scalar_matches_per_trajectory_runs(self):
        model = gm_model()
        errs = final_errors(model, 0.1, np.array([2.0]), 30, 16, seed=11)
        for j in range(16):
            path = run_trajectory(model, 0.1, np.array([2.0]), 30, stream(11, j))
            assert errs[j, 0] == pytest.approx(
                path[-1, 0] - model.theta_star[0], abs=1e-12
            )

    def test_multidim_matches_per_trajectory_runs(self):
        model = small_td()
        errs = final_errors(model, 0.05, model.theta_star, 25, 8, seed=12)
        for j in range(8):
            path = run_trajectory(model, 0.05, model.theta_star, 25, stream(12, j))
            assert np.allclose(errs[j], path[-1] - model.theta_star, atol=1e-12)

    def test_chunk_budget_does_not_change_results(self, monkeypatch):
        model = gm_model()
        full = final_errors(model, 0.1, np.array([1.0]), 50, 64, seed=13)
        _chunks(monkeypatch, 200, 10)
        tiny = final_errors(model, 0.1, np.array([1.0]), 50, 64, seed=13)
        assert np.array_equal(full, tiny)

    @pytest.mark.parametrize("maker", [d8_model, small_td])
    def test_multidim_chunk_budget_does_not_change_results(self, maker, monkeypatch):
        model = maker()
        full = final_errors(model, 0.05, model.theta_star + 1.0, 20, 40, seed=31)
        _chunks(monkeypatch, 2000, 6)
        tiny = final_errors(model, 0.05, model.theta_star + 1.0, 20, 40, seed=31)
        assert np.array_equal(full, tiny)

    def test_multidim_blowup_reports_first_trajectory_and_step(self, monkeypatch):
        # A = diag(1 +- 0.9): with alpha = 1e77, four steps overflow only on
        # the all-plus sign pattern, so some trajectories blow up and some not
        model = bounded_factor_model(np.eye(2), np.zeros(2), 0.9 * np.eye(2), 1.0, 0.0)
        alpha, theta0, n, n_traj, seed = 1e77, np.ones(2), 4, 64, 36
        expected = None
        with np.errstate(all="ignore"):
            for j in range(n_traj):
                try:
                    run_trajectory(model, alpha, theta0, n, stream(seed, j))
                except TrajectoryBlowup as exc:
                    expected = (j, exc.step)
                    break
        assert expected is not None and expected[0] > 0
        for budget, rows in ((engine._CHUNK_FLOAT_BUDGET, engine._CHUNK_ROWS), (250, 7)):
            _chunks(monkeypatch, budget, rows)
            with np.errstate(all="ignore"), pytest.raises(TrajectoryBlowup) as info:
                final_errors(model, alpha, theta0, n, n_traj, seed)
            assert (info.value.trajectory, info.value.step) == expected

    def test_blowup_carries_trajectory_index(self):
        model = gm_model()
        with np.errstate(all="ignore"), pytest.raises(TrajectoryBlowup) as info:
            final_errors(model, 1e150, np.array([1.0]), 400, 8, seed=14)
        assert info.value.trajectory is not None
        assert 0 <= info.value.trajectory < 8
        assert info.value.step >= 1


# Each batch estimator, whether it reads the b words, and the floats of its
# start state at dimension d (engine._layout sizes chunks and windows by both).
_ESTIMATORS = {
    "final_errors": (
        lambda model, n, n_traj: final_errors(model, 0.1, np.zeros(model.dim), n, n_traj, 7),
        True,
        lambda d: d,
    ),
    "decomposed_errors": (
        lambda model, n, n_traj: engine._decomposed_errors(
            model, 0.1, np.zeros(model.dim), n, n_traj, 7
        ),
        True,
        lambda d: 7 * d,
    ),
    "mc_norm_moment": (
        lambda model, n, n_traj: mc_norm_moment(model, 0.1, n, 2.0, n_traj, 7),
        False,
        lambda d: d * d,
    ),
    "coupled_w2": (
        lambda model, n, n_traj: coupled_w2(
            model, 0.1, n, np.ones(model.dim), np.zeros(model.dim), n_traj, 7
        ),
        False,
        lambda d: d,
    ),
}


def _window_budget(model, with_b: bool, state_floats: int, rows: int, window: int) -> int:
    """The float budget at which chunks of ``rows`` trajectories draw their
    paths in windows of ``window`` steps: a step's words in the buffer, its
    decoded draws and d + 2 floats per state float, per trajectory."""
    sampler = model.sampler
    step_bytes = 8 * max(1, sampler._words(1, with_b) - 1) + sampler._held(with_b)
    state_bytes = 8 * (model.dim + 2) * state_floats
    return -(-rows * (window * step_bytes + state_bytes) // 8)


def _spy_on_windows(monkeypatch, model) -> dict:
    """Record a drive's word buffers, chunks, stream draws and windows, and
    what its decoded draws hold.

    ``draws`` holds (words, first word) of each block drawn from the
    streams, ``lengths`` the steps of each window, read from the A words
    the sampler decodes, ``b_words`` the b words it decodes for each window
    (None for a law without them), ``decoded`` the bytes of each window's
    decoded draws that are not views of words, and ``earlier_alive`` how
    many earlier windows' decoded draws are still alive when a window's A
    words are decoded.
    """
    keys = ("chunks", "draws", "lengths", "b_words", "decoded", "earlier_alive")
    seen = {key: [] for key in keys}
    seen["buffers"], alive = set(), []
    draw = engine._block_uniforms
    sampler = type(model.sampler)
    index_of, b_of = sampler._index, sampler._b

    def spy(seed, lo, hi, n_words, start=0, out=None):
        seen["buffers"].add(id(out.base))
        seen["draws"].append((n_words, start))
        if start == 0:
            seen["chunks"].append((lo, hi))
        return draw(seed, lo, hi, n_words, start, out=out)

    def index_spy(self, u):
        seen["lengths"].append(u.shape[1])
        seen["earlier_alive"].append(sum(ref() is not None for ref in alive))
        index = index_of(self, u)
        alive.append(weakref.ref(index))
        seen["decoded"].append(index.nbytes)
        return index

    def b_spy(self, index, g):
        seen["b_words"].append(None if g is None else g.shape[1])
        b = b_of(self, index, g)
        # b decoded over its words, or a view of bbar, holds no memory of
        # its own
        if b.flags.owndata:
            alive.append(weakref.ref(b))
            seen["decoded"][-1] += b.nbytes
        return b

    monkeypatch.setattr(engine, "_block_uniforms", spy)
    monkeypatch.setattr(sampler, "_index", index_spy)
    monkeypatch.setattr(sampler, "_b", b_spy)
    return seen


def _window_draws(model, n: int, with_b: bool, starts: list[int], window: int) -> list:
    """(words, first word) of each stream draw of windows at ``starts``: a
    window's A words, then its b words where the law has them."""
    b_words = model.sampler._words(1, with_b) - 1
    draws = []
    for s in starts:
        w = min(window, n - s)
        draws += [(w, s)] + ([(w * b_words, n + s * b_words)] if b_words else [])
    return draws


class TestChunkMemory:
    @pytest.mark.parametrize("maker", [gm_model, small_td, d8_model])
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_one_buffer_and_one_window_of_draws_alive_at_a_time(self, name, maker, monkeypatch):
        estimate, with_b, state_floats = _ESTIMATORS[name]
        model = maker()
        n, n_traj, window = 3000, 100, 1000
        # forty trajectories a chunk, so 40, 40, 20, and paths that do
        # not fit whole: each is drawn in three windows of 1000 steps; the
        # reducer's granules of 20 keep coupled_w2's chunks at 40
        budget = _window_budget(model, with_b, state_floats(model.dim), 40, 1100)
        _chunks(monkeypatch, budget, 40)
        monkeypatch.setattr(engine, "_GRANULE", 20)
        seen = _spy_on_windows(monkeypatch, model)
        held, peaks = [], []
        spied, drive = engine._block_uniforms, engine._drive

        def first_draw(seed, lo, hi, n_words, start=0, out=None):
            if not held:
                # what the estimator holds before its first chunk, such as
                # its output arrays, is not chunk memory; the buffer is
                buffer_bytes = out.base.nbytes
                held.append((tracemalloc.get_traced_memory()[0] - buffer_bytes, buffer_bytes))
                tracemalloc.reset_peak()
            return spied(seed, lo, hi, n_words, start, out=out)

        def drive_peak(*args, **kwargs):
            # what an estimator makes of the drive's results is not chunk
            # memory either
            out = drive(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(engine, "_block_uniforms", first_draw)
        monkeypatch.setattr(engine, "_drive", drive_peak)
        tracemalloc.start()
        try:
            estimate(model, n, n_traj)
        finally:
            tracemalloc.stop()
        assert seen["chunks"] == [(0, 40), (40, 80), (80, 100)]
        assert seen["lengths"] == [window] * 9
        assert seen["draws"] == _window_draws(model, n, with_b, [0, window, 2 * window] * 3, window)
        assert len(seen["buffers"]) == 1  # every window draws into the drive's one buffer
        assert seen["earlier_alive"] == [0] * 9
        ((before, buffer_bytes),), (peak,) = held, peaks
        drawn = buffer_bytes + max(seen["decoded"])
        assert drawn <= 8 * budget
        assert peak - before <= 1.25 * drawn, (peak, held, seen["decoded"])

    def test_a_long_path_is_drawn_in_windows_under_the_budget(self):
        # at the row floor, the words of whole paths of 3000 steps would take
        # more than four budgets
        model, n, n_traj = gm_model(), 3000, engine._CHUNK_ROWS
        budget_bytes = 8 * engine._CHUNK_FLOAT_BUDGET
        assert 8 * n_traj * model.sampler._words(n, True) > 4 * budget_bytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            final_errors(model, 0.1, np.zeros(1), n, n_traj, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.1 * budget_bytes, peak - before

    @pytest.mark.parametrize("maker", [gm_model, small_td])
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_what_an_estimator_holds_before_its_first_chunk(self, name, maker, monkeypatch):
        # with n_traj >> _GRANULE an (n_traj, n + 1) array of per-step values
        # exceeds the bound: what is held besides the drive's buffer is
        # O(_GRANULE * n) floats of statistics and O(d * d) floats per
        # trajectory of states
        estimate, _, _ = _ESTIMATORS[name]
        model = maker()
        n, n_traj = 200, 16 * engine._GRANULE
        held = []
        draw = engine._block_uniforms

        def spy(seed, lo, hi, n_words, start=0, out=None):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0] - out.base.nbytes)
            return draw(seed, lo, hi, n_words, start, out=out)

        monkeypatch.setattr(engine, "_block_uniforms", spy)
        tracemalloc.start()
        try:
            estimate(model, n, n_traj)
        finally:
            tracemalloc.stop()
        (before,) = held
        floats = 2 * engine._GRANULE * (n + 1) + 8 * n_traj * model.dim**2
        assert before <= 8 * floats < 8 * n_traj * (n + 1), (before, floats)


def _bits(result) -> bytes:
    """The bytes of a drive's result: arrays, estimates, decompositions and tuples of them."""
    if isinstance(result, tuple):
        return b"".join(map(_bits, result))
    if isinstance(result, McEstimate):
        return np.array([result.value, result.std_err]).tobytes()
    if isinstance(result, engine.TrajectoryDecomposition):
        return _bits((result.theta_err, result.gamma_term, result.h1, result.j1, result.j0))
    return np.asarray(result).tobytes()


# The batch estimators and run_decomposed as (the bytes of a run of n steps,
# whether it reads the b words, its state floats at dimension d, its
# trajectories).
_DRIVES = {
    **{
        name: (lambda model, n, f=f: _bits(f(model, n, 13)), with_b, floats, 13)
        for name, (f, with_b, floats) in _ESTIMATORS.items()
    },
    "run_decomposed": (
        lambda model, n: _bits(run_decomposed(model, 0.1, np.ones(model.dim), n, stream(7, 3))),
        True,
        lambda d: 7 * d,
        1,
    ),
}


class TestDrawWindows:
    @pytest.mark.parametrize("maker", [gm_model, small_td, d8_model])
    @pytest.mark.parametrize("name", sorted(_DRIVES))
    def test_windows_give_the_bits_of_whole_paths(self, name, maker, monkeypatch):
        # windows of 7 steps and of 1, in chunks of 5 trajectories: with n
        # odd, most windows start at A words and b words (n + s*d) that are
        # not whole Philox counters of four words
        drive, with_b, state_floats, n_traj = _DRIVES[name]
        model, n = maker(), 37
        floats, rows = state_floats(model.dim), min(5, n_traj)
        # granules of a chunk's rows, so that coupled_w2's drive keeps them
        monkeypatch.setattr(engine, "_GRANULE", rows)
        assert engine._layout(model, n, with_b, floats, n_traj)[:2] == (n_traj, n)
        whole = drive(model, n)
        for window in (7, 1):
            with monkeypatch.context() as patch:
                _chunks(patch, _window_budget(model, with_b, floats, rows, window), rows)
                seen = _spy_on_windows(patch, model)
                assert drive(model, n) == whole
            starts = list(range(0, n, window)) * -(-n_traj // rows)
            lengths = [min(window, n - s) for s in starts]
            assert seen["lengths"] == lengths
            b_words = engine._layout(model, n, with_b, floats, n_traj)[3]
            assert seen["b_words"] == ([w * b_words or None for w in lengths] if with_b else [])
            if name != "run_decomposed":  # which reads the words it is given
                assert seen["draws"] == _window_draws(model, n, with_b, starts, window)
            assert any((n + s * model.dim) % 4 for s in starts[1:]) and window % 4
            assert seen["earlier_alive"] == [0] * len(starts)

    @pytest.mark.parametrize(
        "maker", [small_td, lambda: biased_rademacher_model(0.75)],
        ids=["small_td", "biased_rademacher"],
    )
    @pytest.mark.parametrize("name", ["final_errors", "decomposed_errors"])
    def test_a_law_without_b_words_draws_only_its_a_words(self, name, maker, monkeypatch):
        # sigma == 0: each window draws its A words and nothing else, not
        # even a block of no words, which would reset the generator per row
        estimate, with_b, state_floats = _ESTIMATORS[name]
        model, n, n_traj, rows, window = maker(), 37, 13, 5, 7
        assert with_b and model.sampler._words(n, with_b) == n
        budget = _window_budget(model, with_b, state_floats(model.dim), rows, window)
        _chunks(monkeypatch, budget, rows)
        seen = _spy_on_windows(monkeypatch, model)
        estimate(model, n, n_traj)
        starts = list(range(0, n, window)) * -(-n_traj // rows)
        assert len(set(starts)) > 1
        assert seen["draws"] == [(min(window, n - s), s) for s in starts]
        assert seen["b_words"] == [None] * len(starts)

    @pytest.mark.parametrize("maker", [gm_model, small_td, d8_model])
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_chunk_rows_do_not_fall_with_n_and_windows_keep_the_budget(self, name, maker):
        # a chunk's words and decoded draws stay in the budget at any
        # horizon, without its rows falling below the floor
        _, with_b, state_floats = _ESTIMATORS[name]
        model = maker()
        floats = state_floats(model.dim)
        held, last, n_traj = model.sampler._held(with_b), math.inf, 10**6
        # the reducer's drive takes whole granules, every other drive the
        # rows its budget allows
        unit = engine._GRANULE if name == "coupled_w2" else 1
        for n in (1, 2, 10, 37, 200, 719, 1456, 7350, 10**5, 10**7, 10**9):
            rows, window, width, _ = engine._layout(
                model, n, with_b, floats, n_traj, reduced=name == "coupled_w2"
            )
            windows = -(-n // window)
            assert engine._CHUNK_ROWS <= rows <= last, n
            assert rows % unit == 0, n
            more = _window_budget(model, with_b, floats, rows + unit, n)
            assert rows == engine._CHUNK_ROWS or more > engine._CHUNK_FLOAT_BUDGET, n
            assert rows == engine._CHUNK_ROWS or windows == 1, n  # whole paths above the floor
            assert window == -(-n // windows), n  # windows as even as whole steps allow
            assert rows * (8 * width + window * held) <= 8 * engine._CHUNK_FLOAT_BUDGET, n
            last = rows

    def test_the_mc_batch_drives_keep_their_chunks(self, monkeypatch):
        # perfbench's mc-batch invocations: (n, n_traj, chunk rows, chunks)
        # of each drive; only wasserstein's coupled_w2 feeds the reducer
        seen, layout = [], engine._layout

        def spy(model, n, with_b, state_floats, n_traj, reduced=False):
            out = layout(model, n, with_b, state_floats, n_traj, reduced)
            seen.append((n, n_traj, out[0], -(-n_traj // out[0])))
            return out

        monkeypatch.setattr(engine, "_layout", spy)
        expected = {
            ("bounds", 20000): [(10, 20000, 20000, 1), (50, 20000, 16877, 2),
                                (200, 20000, 4385, 5)],
            ("clt", 10000): [(719, 10000, 1231, 9), (1456, 10000, 1024, 10)],
            ("wasserstein", 20000): [(200, 20000, 4352, 5)],
        }
        for (name, n_traj), drives in expected.items():
            seen.clear()
            run(resolve(ExperimentConfig(experiment=name, n_traj=n_traj)))
            assert seen == drives, name


def _callers(names: set[str]) -> set[str]:
    """Where in lsalab a function of one of ``names`` is called: the module
    and the classes and outermost function around each call, say
    ``noise.LsaModel.sample_path``; a nested function counts as the one it
    is nested in."""
    callers = set()

    def visit(node, where: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (getattr(func, "id", None) or getattr(func, "attr", None)) in names:
                    callers.add(where)
            defines = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            inner = f"{where}.{child.name}" if defines and not in_function else where
            visit(child, inner, in_function or defines and not isinstance(child, ast.ClassDef))

    for path in sorted(Path(lsalab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return callers


class TestOneLoop:
    def test_only_the_driver_draws_and_steps_chunks(self):
        # a function that draws a block of stream rows, or decodes a
        # sampler's words, is a second loop over steps beside engine._drive;
        # one path (LsaModel.sample_path) decodes its one row of words alone
        assert _callers({"_block_uniforms"}) == {"engine._drive"}
        assert _callers({"_index", "_b"}) == {"engine._drive", "noise.LsaModel.sample_path"}


class TestMcNormMoment:
    def test_estimates_exact_product_moment(self):
        model = biased_rademacher_model(0.75)
        est = mc_norm_moment(model, 0.1, 50, 2.0, n_traj=40_000, seed=15)
        exact = exact_product_moment(model, 0.1, 2.0, 50) ** 0.5
        assert isinstance(est, McEstimate)
        assert abs(est.value - exact) <= 4.0 * est.std_err

    def test_chunking_invariance(self, monkeypatch):
        model = biased_rademacher_model(0.75)
        a = mc_norm_moment(model, 0.1, 20, 2.0, n_traj=256, seed=16)
        _chunks(monkeypatch, 100, 9)
        b = mc_norm_moment(model, 0.1, 20, 2.0, n_traj=256, seed=16)
        assert a == b

    @pytest.mark.parametrize("maker", [d8_model, small_td])
    def test_multidim_matches_per_trajectory_products(self, maker, monkeypatch):
        model = maker()
        n, p, n_traj, seed = 15, 3.0, 12, 33
        x = np.array([
            np.linalg.norm(product(model, 0.05, n, stream(seed, j)), 2) ** p
            for j in range(n_traj)
        ])
        est = mc_norm_moment(model, 0.05, n, p, n_traj, seed)
        # the batch products have the single-trajectory bits
        assert est.value == engine._mean_var(x)[0] ** (1.0 / p)
        mean = math.fsum(x) / n_traj
        assert est.value == pytest.approx(mean ** (1.0 / p), rel=1e-13, abs=0.0)
        _chunks(monkeypatch, 2000, 5)
        assert mc_norm_moment(model, 0.05, n, p, n_traj, seed) == est

    def test_rejects_bad_inputs(self):
        model = biased_rademacher_model(0.75)
        with pytest.raises(ValueError):
            mc_norm_moment(model, 0.1, 10, 0.0, 100, 0)
        with pytest.raises(ValueError):
            mc_norm_moment(model, 0.1, 10, 2.0, 1, 0)


def _reduce_in_blocks(values: np.ndarray, cuts: list[int], granule: int):
    """engine._Moments over values (n_traj, width) in granules of ``granule``,
    in blocks split at ``cuts`` rounded down to whole granules."""
    n_traj, width = values.shape
    edges = sorted({0, n_traj, *(c - c % granule for c in cuts if c < n_traj)})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_GRANULE", granule)
        moments = engine._Moments(n_traj, width)
        for lo, hi in zip(edges, edges[1:]):
            for k in range(width):
                moments.add(slice(lo, hi), k, values[lo:hi, k].copy())
        return moments.mean_var()


class TestMoments:
    @settings(max_examples=150, deadline=None)
    @given(
        n_traj=st.integers(2, 70), width=st.integers(1, 3), granule=st.sampled_from([1, 3, 4, 256]),
        cuts=st.lists(st.integers(1, 69), max_size=8), seed=st.integers(0, 2**32 - 1),
        constant=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_blocks_do_not_change_the_bits_and_a_constant_has_no_spread(
        self, n_traj, width, granule, cuts, seed, constant
    ):
        if constant is None:
            gen = np.random.default_rng(seed)
            values = gen.standard_normal((n_traj, width)) * 10.0 ** gen.integers(-3, 4, width)
        else:
            values = np.full((n_traj, width), constant)
        mean, var = _reduce_in_blocks(values, [], granule)
        split_mean, split_var = _reduce_in_blocks(values, cuts, granule)
        assert (split_mean.tobytes(), split_var.tobytes()) == (mean.tobytes(), var.tobytes())
        if constant is not None:
            assert np.all(mean == constant) and np.all(var == 0.0)
        else:
            for k, col in enumerate(values.T):
                ref = math.fsum(col) / n_traj
                ref_var = math.fsum((col - ref) ** 2) / (n_traj - 1)
                assert mean[k] == pytest.approx(ref, rel=1e-13, abs=1e-13 * np.abs(col).max())
                assert var[k] == pytest.approx(ref_var, rel=1e-12)

    @pytest.mark.parametrize("cuts", [[], [1], [2, 3]])
    @pytest.mark.parametrize("granule", [1, 2, 256])
    def test_an_overflowed_value_makes_the_mean_inf(self, granule, cuts):
        values = np.array([[1.0], [math.inf], [2.0], [3.0], [math.inf]])
        with np.errstate(invalid="ignore"):
            mean, var = _reduce_in_blocks(values, cuts, granule)
        assert mean[0] == math.inf and math.isnan(var[0])

    @pytest.mark.parametrize("lo,hi", [(0, 3), (2, 4), (1, 8), (4, 7), (6, 10)])
    def test_a_block_that_splits_a_granule_raises(self, lo, hi, monkeypatch):
        # granules 0:4, 4:8 and the run's last, shorter one, 8:10
        monkeypatch.setattr(engine, "_GRANULE", 4)
        moments = engine._Moments(10, 1)
        with pytest.raises(ValueError, match=f"rows {lo}:{hi} split a granule of 4"):
            moments.add(slice(lo, hi), 0, np.zeros(hi - lo))
        for start, stop in ((0, 8), (8, 10)):
            moments.add(slice(start, stop), 0, np.arange(start, stop, dtype=float))
        assert moments.mean_var()[0][0] == 4.5


class TestCovJ0:
    def test_recursion_against_direct_sum(self):
        model = small_td()
        alpha, n = 0.05, 12
        g = np.eye(2) - alpha * model.abar
        expected = np.zeros((2, 2))
        for k in range(n):
            gk = np.linalg.matrix_power(g, k)
            expected += alpha**2 * gk @ model.sigma_eps_exact @ gk.T
        assert np.allclose(cov_j0(model, alpha, n), expected, atol=1e-13)

    def test_long_horizon_approaches_riccati_scale(self):
        model = gm_model()
        alpha = 0.1
        target = alpha * solve_riccati(model.abar, model.sigma_eps_exact, alpha)
        far = cov_j0(model, alpha, 2000)
        assert np.allclose(far, target, rtol=1e-10)


class TestStationary:
    def test_horizon_achieves_tolerance(self):
        model = gm_model()
        prof = lyapunov_witness(model)
        for alpha, tol in [(0.1, 1e-8), (0.02, 1e-6)]:
            n = stationary_horizon(prof, alpha, tol)
            rate = 1.0 - prof.a * alpha / 2.0
            scale = math.sqrt(prof.kappa_q * prof.dim)
            assert scale * rate ** (n / 2.0) <= tol * (1 + 1e-12)
            if n > 1:
                assert scale * rate ** ((n - 1) / 2.0) > tol

    def test_sample_stationary_variance_matches_exact(self):
        model = gm_model()
        alpha = 0.1
        samples = sample_stationary(model, alpha, 20_000, seed=17)
        v_exact = exact_stationary_cov(model, alpha)[0, 0]
        v_hat = samples[:, 0].var(ddof=1)
        se = v_hat * math.sqrt(2.0 / (samples.shape[0] - 1))
        assert abs(v_hat - v_exact) <= 5.0 * se

    def test_horizon_rejects_oversized_step(self):
        model = gm_model()
        prof = lyapunov_witness(model)
        with pytest.raises(ValueError):
            stationary_horizon(prof, 1e9, 1e-8)


class TestCoupling:
    def test_exact_curve_scalar_closed_form(self):
        # E (1 - alpha A)^2 = (1-alpha)^2 + alpha^2 eta^2 for A = 1 + eta zeta
        model = gm_model()
        alpha, n = 0.1, 60
        base = (1.0 - alpha) ** 2 + (alpha * 0.5) ** 2
        curve = coupled_exact_sq(model, alpha, n, np.array([2.0]))
        expected = 4.0 * base ** np.arange(n + 1)
        assert np.allclose(curve, expected, rtol=1e-12)

    def test_mc_curve_matches_exact_within_se(self):
        model = gm_model()
        alpha, n = 0.1, 80
        value, std_err = coupled_w2(
            model, alpha, n, np.array([1.0]), np.array([-1.0]), n_traj=4000, seed=18
        )
        exact = np.sqrt(coupled_exact_sq(model, alpha, n, np.array([2.0])))
        assert value[0] == pytest.approx(2.0)
        z = np.abs(value[1:] - exact[1:]) / std_err[1:]
        assert z.max() <= 5.0

    def test_multidim_coupling_runs(self):
        model = small_td()
        value, std_err = coupled_w2(
            model, 0.05, 20, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            n_traj=500, seed=19,
        )
        assert value.shape == (21,)
        assert np.all(value >= 0)
        exact = np.sqrt(coupled_exact_sq(model, 0.05, 20, np.array([1.0, -1.0])))
        z = np.abs(value[1:] - exact[1:]) / np.maximum(std_err[1:], 1e-12)
        assert z.max() <= 5.0


    @pytest.mark.parametrize("maker", [gm_model, d8_model, small_td])
    def test_chunk_budget_does_not_change_curve(self, maker, monkeypatch):
        model = maker()
        args = (model, 0.05, 20, model.theta_star + 1.0, model.theta_star - 1.0, 40, 34)
        # granules of one trajectory, which divide any chunk, so that the
        # tiny budget splits d8_model's trajectories in chunks of 19
        monkeypatch.setattr(engine, "_GRANULE", 1)
        value, std_err = coupled_w2(*args)
        _chunks(monkeypatch, 2000, 6)
        tiny_value, tiny_err = coupled_w2(*args)
        assert np.array_equal(value, tiny_value)
        assert np.array_equal(std_err, tiny_err)

    @pytest.mark.parametrize("granule", [5, 1])
    @pytest.mark.parametrize("maker", [gm_model, small_td])
    def test_curve_is_a_two_pass_fsum_of_per_trajectory_squared_norms(
        self, maker, granule, monkeypatch
    ):
        model = maker()
        alpha, n, n_traj, seed = 0.05, 20, 23, 35
        delta0 = np.ones(model.dim)
        eye = np.eye(model.dim)
        sq = np.empty((n_traj, n + 1))  # per-trajectory reference, a batch of one
        for j in range(n_traj):
            a_seq, _ = model.sample_path(stream(seed, j), n)
            delta = delta0.reshape(1, -1, 1)
            sq[j, 0] = engine._sq_norms(delta)[0]
            for k in range(n):
                delta = engine._matvec((eye - alpha * a_seq[k])[None], delta)
                sq[j, k + 1] = engine._sq_norms(delta)[0]
        mean = np.array([math.fsum(col) / n_traj for col in sq.T])
        var = np.array([math.fsum((col - m) ** 2) / (n_traj - 1) for col, m in zip(sq.T, mean)])
        expected = np.sqrt(var / n_traj) / (2.0 * np.sqrt(mean))
        # uneven chunks: 23 trajectories in chunks of 5, each path drawn in
        # windows of one step, with granules of 5 (one a chunk, and the
        # shorter last one) or of 1 (merged within and across chunks)
        _chunks(monkeypatch, 1, 5)
        monkeypatch.setattr(engine, "_GRANULE", granule)
        value, std_err = coupled_w2(model, alpha, n, delta0, np.zeros(model.dim), n_traj, seed)
        # the chunked reduction has the bits of one block of the reference
        moments = engine._Moments(n_traj, n + 1)
        for k, col in enumerate(sq.T):
            moments.add(slice(0, n_traj), k, col)
        ref_mean, ref_var = moments.mean_var()
        ref_value = np.sqrt(ref_mean)
        assert value.tobytes() == ref_value.tobytes()
        ref_err = np.sqrt(ref_var) / math.sqrt(n_traj) / (2.0 * ref_value)
        assert std_err.tobytes() == ref_err.tobytes()
        assert np.allclose(value, np.sqrt(mean), rtol=1e-13, atol=0.0)
        assert np.allclose(std_err, expected, rtol=1e-13, atol=0.0)
        # every trajectory starts at delta0: step 0 has no spread
        assert (value[0], std_err[0]) == (math.sqrt(sq[0, 0]), 0.0)

    @pytest.mark.parametrize("n_traj", [0, 1])
    def test_rejects_fewer_than_two_trajectories(self, n_traj):
        # one trajectory has no sample standard error; none has no mean
        model = gm_model()
        with pytest.raises(ValueError, match="n_traj"):
            coupled_w2(model, 0.1, 10, np.ones(1), np.zeros(1), n_traj, 0)


def _sign_chain_moment(q_a, alpha, p, n):
    """The +-1 chain's closed form {q_a (1-alpha)^p + (1-q_a) (1+alpha)^p}^n,
    in log space: the reference that the atom-table moment reproduces."""
    log_base = _logsumexp(
        [math.log(q_a) + p * math.log1p(-alpha), math.log1p(-q_a) + p * math.log1p(alpha)]
    )
    return float(np.exp(n * log_base))


class TestRademacherOracles:
    def test_one_step_base_decay_value(self):
        # q(1-alpha)^2 + (1-q)(1+alpha)^2 = 0.91 at (q, alpha) = (0.75, 0.1)
        chain = biased_rademacher_model(0.75)
        assert exact_product_moment(chain, 0.1, 2.0, 1) == pytest.approx(0.91, rel=1e-12)

    def test_atom_table_moment_is_the_closed_form_bit_for_bit(self):
        grid = itertools.product(
            (0.55, 0.6, 0.7, 0.75, 0.9), (0.01, 0.05, 0.1, 0.3), (2, 3, 4, 12.07, 41),
            (1, 10, 50, 200, 1000),
        )
        with np.errstate(over="ignore"):  # the largest p and n overflow to inf in both
            for q, alpha, p, n in grid:
                got = exact_product_moment(biased_rademacher_model(q), alpha, p, n)
                assert got == _sign_chain_moment(q, alpha, p, n), (q, alpha, p, n)

    def test_moment_needs_a_scalar_model_and_a_positive_order(self):
        square = bounded_factor_model(np.eye(2), np.zeros(2), np.eye(2), 0.5, 1.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            exact_product_moment(square, 0.1, 2.0, 3)
        with pytest.raises(ValueError, match="p > 0"):
            exact_product_moment(biased_rademacher_model(0.75), 0.1, 0.0, 3)

    def test_high_precision_base_at_blowup_order(self):
        # at p = 41 the one-step base exceeds 1: growth in n
        with mpmath.workdps(60):
            q = mpmath.mpf(3) / 4
            base = q * mpmath.mpf("0.9") ** 41 + (1 - q) * mpmath.mpf("1.1") ** 41
        got = exact_product_moment(biased_rademacher_model(0.75), 0.1, 41.0, 1)
        assert got == pytest.approx(float(base), rel=1e-12)
        assert float(base) > 1.0

    def test_moment_vs_brute_force_enumeration(self):
        # n small enough to enumerate all sign patterns exactly
        q, alpha, n, p = 0.6, 0.2, 10, 3.0
        total = 0.0
        for k in range(n + 1):
            weight = math.comb(n, k) * q**k * (1 - q) ** (n - k)
            total += weight * ((1 - alpha) ** k * (1 + alpha) ** (n - k)) ** p
        assert exact_product_moment(biased_rademacher_model(q), alpha, p, n) == pytest.approx(
            total, rel=1e-12
        )

    def test_tail_vs_brute_force_enumeration(self):
        q, alpha, n = 0.6, 0.2, 12
        for t in (0.01, 0.5, 1.0, 3.0):
            total = 0.0
            for k in range(n + 1):
                value = (1 - alpha) ** k * (1 + alpha) ** (n - k)
                if value >= t:
                    total += math.comb(n, k) * q**k * (1 - q) ** (n - k)
            assert rademacher_exact_tail(q, alpha, n, t) == pytest.approx(
                total, rel=1e-12, abs=1e-15
            )

    def test_tail_is_the_correctly_rounded_binomial_cdf(self):
        # q_a is read as the binary fraction it is, as the integer sum reads it
        for q, alpha, n, t in (
            (0.75, 0.1, 400, 0.05), (0.75, 0.1, 1000, 1.0), (0.6, 0.2, 12, 0.5),
            (0.7, 0.05, 999, 0.3), (0.9, 0.3, 50, 2.0), (0.51, 0.01, 2000, 1.0),
        ):
            k_star = math.floor(
                (n * math.log1p(alpha) - math.log(t)) / (math.log1p(alpha) - math.log1p(-alpha))
            )
            k_star = max(-1, min(n, k_star))
            with mpmath.workdps(80):
                qm = mpmath.mpf(q)
                exact = mpmath.fsum(
                    mpmath.binomial(n, i) * qm**i * (1 - qm) ** (n - i)
                    for i in range(k_star + 1)
                )
            assert rademacher_exact_tail(q, alpha, n, t) == float(exact), (q, alpha, n, t)

    def test_tail_vs_monte_carlo(self):
        model = biased_rademacher_model(0.75)
        alpha, n, t = 0.1, 200, 1e-4
        errs = final_errors(model, alpha, np.array([1.0]), n, 20_000, seed=20)
        p_hat = (errs[:, 0] >= t).mean()
        p_exact = rademacher_exact_tail(0.75, alpha, n, t)
        se = math.sqrt(p_exact * (1 - p_exact) / 20_000)
        assert abs(p_hat - p_exact) <= 5.0 * max(se, 1e-4)

    def test_tail_edge_cases(self):
        assert rademacher_exact_tail(0.75, 0.1, 10, 1e-12) == pytest.approx(1.0)
        assert rademacher_exact_tail(0.75, 0.1, 10, 100.0) == 0.0
        assert rademacher_exact_tail(0.75, 0.1, 0, 0.5) == 1.0


class TestEmpiricalStats:
    def test_quantile_matches_numpy(self):
        x = stream(21, 0).standard_normal(1001)
        assert empirical_quantile(x, 0.9) == pytest.approx(np.quantile(x, 0.9))
        with pytest.raises(ValueError):
            empirical_quantile(x, 1.5)

    def test_ks_matches_scipy(self):
        x = stream(23, 0).standard_normal(2000)
        ours = empirical_ks(x, stats.norm.cdf)
        ref = stats.kstest(x, "norm").statistic
        assert ours == pytest.approx(ref, rel=1e-10)
