"""Dense solver layer: worked instances, independent solver routes, geometry.

The Kronecker-form solvers are cross-checked against scipy's Schur-based
Lyapunov solvers (a genuinely different algorithm), and the derived
contraction constants are checked against their defining inequalities.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsalab.linalg import (
    NotHurwitzError,
    NotSpdError,
    SolverResidualError,
    _kron,
    _kron_sum,
    _logsumexp,
    _lyapunov_q,
    _require_hurwitz,
    _t,
    alpha_p_inf,
    q_norm_mat,
    solve_lyapunov,
    solve_riccati,
    solve_sigma,
    spd_sqrt,
    spectral_norm,
    spectral_profile,
)
from lsalab.noise import bounded_factor_model, exact_stationary_cov
from lsalab.rng import stream


def random_hurwitz(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Random matrix with eigenvalues in the open right half plane."""
    g = gen.standard_normal((dim, dim))
    r = gen.standard_normal((dim, dim))
    return g @ g.T / dim + 0.1 * np.eye(dim) + 0.5 * (r - r.T)


def random_spd(gen: np.random.Generator, dim: int) -> np.ndarray:
    w = gen.standard_normal((dim, dim))
    return w @ w.T / dim + 0.1 * np.eye(dim)


class TestSolveLyapunov:
    def test_shear_instance_by_hand(self):
        # abar = [[1, 1], [0, 1]]: expanding abar.T q + q abar = I entrywise
        # gives q11 = 1/2, q12 = -1/4, q22 = 3/4.
        q = solve_lyapunov(np.array([[1.0, 1.0], [0.0, 1.0]]))
        expected = np.array([[0.5, -0.25], [-0.25, 0.75]])
        assert np.allclose(q, expected, atol=1e-12)

    def test_scalar_closed_form(self):
        # 2 q abar = 1  =>  q = 1 / (2 abar)
        assert solve_lyapunov(np.array([[0.5]]))[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert solve_lyapunov(np.array([[2.0]]))[0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_matches_schur_route(self):
        for trial in range(25):
            gen = stream(101, trial)
            dim = 1 + trial % 8
            abar = random_hurwitz(gen, dim)
            q = solve_lyapunov(abar)
            ref = scipy.linalg.solve_continuous_lyapunov(abar.T, np.eye(dim))
            assert np.allclose(q, ref, rtol=1e-9, atol=1e-11)
            assert np.allclose(q, q.T)

    def test_rejects_unstable_matrix(self):
        with pytest.raises(NotHurwitzError):
            solve_lyapunov(np.array([[-1.0]]))
        with pytest.raises(NotHurwitzError):
            # one eigenvalue on the imaginary axis
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        # the message lists every eigenvalue of the rejected matrix
        with pytest.raises(NotHurwitzError, match=r"eigenvalues \[ 1\. -1\.\]"):
            solve_lyapunov(np.array([[1.0, 3.0], [0.0, -1.0]]))


def _with_abar(abar: np.ndarray):
    """A valid scalar model whose mean driving matrix is replaced by ``abar``."""
    model = bounded_factor_model(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 0.5, 1.0)
    return dataclasses.replace(model, abar=abar)


_UNSTABLE = np.array([[-1.0]])


class TestEntryValidation:
    """Each public entry validates its own input: finite, then alpha, then Hurwitz."""

    @pytest.mark.parametrize("solve", [
        solve_lyapunov,
        lambda a: solve_sigma(a, np.eye(1)),
        lambda a: solve_riccati(a, np.eye(1), 0.1),
        lambda a: spectral_profile(a, c_a=1.0),
        lambda a: spectral_profile(a, c_a=0.5),  # a too-small c_a does not mask it
        lambda a: exact_stationary_cov(_with_abar(a), 0.1),
    ], ids=["lyapunov", "sigma", "riccati", "profile", "profile-small-c_a", "exact-cov"])
    def test_unstable_driving_matrix_rejected(self, solve):
        with pytest.raises(NotHurwitzError):
            solve(_UNSTABLE)

    @pytest.mark.parametrize("solve, match", [
        (lambda: solve_lyapunov(np.array([[np.nan]])), "abar has non-finite"),
        (lambda: solve_sigma(np.array([[np.inf]]), np.eye(1)), "abar has non-finite"),
        (lambda: solve_sigma(_UNSTABLE, np.array([[np.nan]])), "sigma_eps has non-finite"),
        (lambda: solve_riccati(np.array([[np.nan]]), np.eye(1), -0.1), "abar has non-finite"),
        (lambda: solve_riccati(_UNSTABLE, np.array([[np.inf]]), -0.1),
         "sigma_eps has non-finite"),
        (lambda: solve_riccati(_UNSTABLE, np.eye(1), -0.1), "alpha must be >= 0"),
        (lambda: spectral_profile(np.array([[np.nan]]), c_a=1.0), "abar has non-finite"),
        (lambda: spectral_profile(np.array([[0.5]]), c_a=0.4), "c_a=0.4 must be"),
        # a model's abar is Hurwitz by construction, so only alpha is left to check
        (lambda: exact_stationary_cov(_with_abar(np.array([[1.0]])), -0.1),
         "alpha must be positive"),
        (lambda: exact_stationary_cov(_with_abar(np.array([[1.0]])), np.nan),
         "alpha must be positive"),
    ], ids=["lyapunov-nan", "sigma-abar-inf", "sigma-rhs-nan", "riccati-nan-before-alpha",
            "riccati-rhs-before-alpha", "riccati-alpha-before-hurwitz", "profile-nan",
            "profile-c_a", "exact-cov-alpha", "exact-cov-nan-alpha"])
    def test_error_precedence(self, solve, match):
        with pytest.raises(ValueError, match=match) as info:
            solve()
        assert not isinstance(info.value, NotHurwitzError)


class TestSolveSigma:
    def test_diagonal_instance(self):
        # abar = diag(2, 4), sigma_eps = I: sigma = diag(1/4, 1/8).
        sigma = solve_sigma(np.diag([2.0, 4.0]), np.eye(2))
        assert np.allclose(sigma, np.diag([0.25, 0.125]), atol=1e-13)

    def test_matches_schur_route(self):
        for trial in range(25):
            gen = stream(202, trial)
            dim = 1 + trial % 8
            abar = random_hurwitz(gen, dim)
            sigma_eps = random_spd(gen, dim)
            sigma = solve_sigma(abar, sigma_eps)
            ref = scipy.linalg.solve_continuous_lyapunov(abar, sigma_eps)
            assert np.allclose(sigma, ref, rtol=1e-9, atol=1e-11)


class TestSolveRiccati:
    def test_scalar_closed_form(self):
        # 2 abar s - alpha abar^2 s = sigma_eps  =>  s = sigma / (abar (2 - alpha abar))
        abar, alpha, se = 0.5, 0.1, 2.0
        s = solve_riccati(np.array([[abar]]), np.array([[se]]), alpha)
        assert s[0, 0] == pytest.approx(se / (abar * (2.0 - alpha * abar)), rel=1e-13)

    def test_matches_discrete_lyapunov_route(self):
        # abar s + s abar.T - alpha abar s abar.T = sigma_eps is the same
        # equation as s = g s g.T + alpha sigma_eps with g = I - alpha abar.
        for trial in range(25):
            gen = stream(303, trial)
            dim = 1 + trial % 8
            abar = random_hurwitz(gen, dim)
            sigma_eps = random_spd(gen, dim)
            alpha = 0.05 / max(1.0, spectral_norm(abar))
            s = solve_riccati(abar, sigma_eps, alpha)
            g = np.eye(dim) - alpha * abar
            ref = scipy.linalg.solve_discrete_lyapunov(g, alpha * sigma_eps)
            assert np.allclose(s, ref, rtol=1e-9, atol=1e-11)

    def test_reduces_to_sigma_as_alpha_vanishes(self):
        gen = stream(404, 0)
        abar = random_hurwitz(gen, 3)
        sigma_eps = random_spd(gen, 3)
        sigma = solve_sigma(abar, sigma_eps)
        s = solve_riccati(abar, sigma_eps, 1e-9)
        assert np.allclose(s, sigma, rtol=1e-6)

    def test_alpha_zero_is_sigma_and_negative_rejected(self):
        abar = np.array([[1.0]])
        se = np.eye(1)
        assert solve_riccati(abar, se, 0.0)[0, 0] == pytest.approx(
            solve_sigma(abar, se)[0, 0], rel=1e-14
        )
        with pytest.raises(ValueError):
            solve_riccati(abar, se, -0.1)


class TestNormsAndRoots:
    def test_spd_sqrt_roundtrip(self):
        gen = stream(505, 0)
        q = random_spd(gen, 5)
        root, inv_root = spd_sqrt(q)
        assert np.allclose(root @ root, q, atol=1e-12)
        assert np.allclose(root @ inv_root, np.eye(5), atol=1e-12)

    def test_spd_sqrt_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_q_norms_reduce_to_euclidean_at_identity(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert q_norm_mat(m, np.eye(2)) == pytest.approx(spectral_norm(m), abs=1e-14)

    def test_q_norm_operator_consistency(self):
        gen = stream(506, 0)
        q = random_spd(gen, 4)
        m = gen.standard_normal((4, 4))
        bound = q_norm_mat(m, q)
        for _ in range(50):
            x = gen.standard_normal(4)
            y = m @ x
            assert np.sqrt(y @ q @ y) <= bound * np.sqrt(x @ q @ x) * (1 + 1e-12)


def small_matrices():
    """Finite matrices with 1..8 rows and 1..8 columns, square or not."""
    return st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
        lambda shape: arrays(
            np.float64,
            shape,
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )


class TestFastHelpersAreBitIdentical:
    @given(small_matrices())
    @settings(max_examples=200, deadline=None)
    def test_spectral_norm_is_numpy_operator_norm(self, m):
        expected = float(np.linalg.norm(m, 2))
        assert np.float64(spectral_norm(m)).tobytes() == np.float64(expected).tobytes()

    def test_spectral_norm_of_empty_matrix_is_zero(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0
        assert spectral_norm(np.zeros((0, 3))) == 0.0

    @given(small_matrices(), small_matrices())
    @settings(max_examples=200, deadline=None)
    def test_kron_is_numpy_kron(self, x, y):
        fast = _kron(x, y)
        assert fast.shape == np.kron(x, y).shape
        assert fast.tobytes() == np.kron(x, y).tobytes()

    @given(
        st.lists(
            st.one_of(
                st.floats(-800.0, 800.0),
                st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 7),
    )
    @example([-np.inf] * 3, 0)
    @example([-np.inf, 1.5, -np.inf], 0)
    @example([np.inf, 1.5], 0)
    @example([np.nan, 1.5], 0)
    @example([0.3, 1.5, -2.0, 1.5], 0)
    @settings(max_examples=400, deadline=None)
    def test_logsumexp_is_scipy_logsumexp(self, entries, ties):
        a = np.array(entries)
        a[:ties] = np.max(a)  # the first entries tie at the maximum
        with np.errstate(all="ignore"):
            expected = np.float64(scipy.special.logsumexp(a))
        got = np.float64(_logsumexp(a))
        assert (np.isnan(got) and np.isnan(expected)) or got.tobytes() == expected.tobytes()


@st.composite
def stable_problems(draw):
    """(abar, sigma, alpha): Hurwitz abar (symmetric part >= 0.1 I), SPD sigma,
    and a stepsize at which the Riccati system stays well posed."""
    d = draw(st.integers(1, 8))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    g, r, w = (draw(arrays(np.float64, (d, d), elements=entries)) for _ in range(3))
    abar = g @ g.T / d + 0.1 * np.eye(d) + 0.5 * (r - r.T)
    sigma = w @ w.T / d + 0.1 * np.eye(d)
    alpha = draw(st.floats(0.0, 0.5)) * 0.1 / spectral_norm(abar) ** 2
    return abar, sigma, alpha


def _kronecker_solve(k: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    d = rhs.shape[0]
    s = np.linalg.solve(k, rhs.reshape(-1)).reshape(d, d)
    return 0.5 * (s + s.T)


class TestOneStationarySolver:
    """The solvers give the bytes of the Kronecker systems they replace."""

    @given(stable_problems())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_the_inline_kronecker_formulas(self, problem):
        abar, sigma, alpha = problem
        eye = np.eye(len(abar))
        lyap = _kronecker_solve(np.kron(eye, abar.T) + np.kron(abar.T, eye), eye)
        plain = np.kron(eye, abar) + np.kron(abar, eye)
        riccati = _kronecker_solve(plain - alpha * np.kron(abar, abar), sigma)
        riccati_0 = _kronecker_solve(plain - 0.0 * np.kron(abar, abar), sigma)
        assert solve_lyapunov(abar).tobytes() == lyap.tobytes()
        assert solve_sigma(abar, sigma).tobytes() == _kronecker_solve(plain, sigma).tobytes()
        assert solve_riccati(abar, sigma, alpha).tobytes() == riccati.tobytes()
        assert solve_riccati(abar, sigma, 0.0).tobytes() == riccati_0.tobytes()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_kron_sum_of_the_transpose_is_the_transposed_kron_sum(self, d):
        # Q's system (of abar.T) is read as the transposed view of Sigma's
        # (of abar): the same bytes, signed zeros included
        gen = stream(808, d)
        a = gen.standard_normal((6, d, d))
        a[0] = 0.0
        a[1] = -0.0
        cells = gen.integers(0, 3, size=(4, d, d))
        a[2:] = np.where(cells == 0, 0.0, np.where(cells == 1, -0.0, a[2:]))
        assert np.signbit(a[1]).all() and not np.signbit(a[0]).any()
        assert _kron_sum(_t(a)).tobytes() == _t(_kron_sum(a)).copy().tobytes()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_q_on_the_shared_kron_sum_is_solve_lyapunov(self, d):
        abar = np.stack([random_hurwitz(stream(909, 8 * d + k), d) for k in range(5)])
        q, _ = _lyapunov_q(abar, _kron_sum(abar))
        for i in range(len(abar)):
            assert q[i].tobytes() == solve_lyapunov(abar[i]).tobytes(), i


class TestSpectralProfile:
    def test_scalar_constants(self):
        # abar = 1/2: q = 1, a = 1/2, alpha_inf = 1/(2 * (1/2)^2) ... with
        # q = 1 the weighted norm of abar is 1/2, so alpha_inf = 2.
        prof = spectral_profile(np.array([[0.5]]), c_a=1.0)
        assert prof.q[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert prof.a == pytest.approx(0.5, abs=1e-14)
        assert prof.alpha_inf == pytest.approx(2.0, rel=1e-13)
        assert prof.kappa_q == pytest.approx(1.0, abs=1e-13)
        assert prof.b_q == pytest.approx(2.0, rel=1e-13)
        assert prof.dim == 1
        # a * alpha_inf = 1 exactly for every scalar model
        assert prof.a * prof.alpha_inf == pytest.approx(1.0, rel=1e-13)

    def test_alpha_inf_squares_the_q_norm_as_a_python_float(self):
        # at these means numpy's array ** 2 (a multiply) and Python's float
        # ** 2 (libm pow) round ||abar||_q^2 differently here; the stacked
        # geometry keeps the scalar formula's bits
        for v in (2.5540377991720398, 0.9365774958853861, 1.9857770930152059):
            abar = np.array([[v]])
            prof = spectral_profile(abar, c_a=2.0 * v)
            root, inv_root = spd_sqrt(prof.q)
            abar_qnorm = spectral_norm(root @ abar @ inv_root)
            assert prof.alpha_inf == 0.5 / (abar_qnorm**2 * spectral_norm(prof.q))

    def test_rejects_small_c_a(self):
        with pytest.raises(ValueError):
            spectral_profile(np.array([[2.0]]), c_a=1.0)

    def test_a_q_norm_whose_square_overflows_raises(self):
        # alpha_inf squares ||abar||_q = 1e200 as a Python float, which raises
        # OverflowError; the profile names it as a ValueError instead
        with pytest.raises(ValueError, match=r"\|\|abar\|\|_q = 1e\+200 squared overflows"):
            spectral_profile(np.array([[1e200]]), c_a=1e200)
        assert spectral_profile(np.array([[1e150]]), c_a=1e150).alpha_inf > 0.0

    def test_step_limit_product_never_exceeds_one(self):
        # a * alpha_inf = ||abar||_q^-2 / (4 ||q||^2 a) ... direct consequence
        # of 1 = ||abar.T q + q abar|| <= 2 ||q|| ||abar||: always <= 1.
        for trial in range(30):
            gen = stream(606, trial)
            dim = 1 + trial % 8
            abar = random_hurwitz(gen, dim)
            prof = spectral_profile(abar, c_a=2.0 * spectral_norm(abar))
            assert prof.a * prof.alpha_inf <= 1.0 + 1e-12

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_contraction_inequality_property(self, trial):
        # || I - alpha abar ||_q^2 <= 1 - a alpha on (0, alpha_inf]
        gen = stream(707, trial)
        dim = 1 + trial % 6
        abar = random_hurwitz(gen, dim)
        prof = spectral_profile(abar, c_a=2.0 * spectral_norm(abar))
        alpha = float(gen.uniform(0.0, 1.0)) * prof.alpha_inf
        if alpha == 0.0:
            return
        g = np.eye(dim) - alpha * abar
        assert q_norm_mat(g, prof.q) ** 2 <= 1.0 - prof.a * alpha + 1e-12

    def test_alpha_p_inf_caps(self):
        prof = spectral_profile(np.array([[0.5]]), c_a=1.0)
        assert alpha_p_inf(prof, 1.0) == pytest.approx(prof.alpha_inf)
        # a / (2 b_q^2 (p-1)) = 0.5 / (2 * 4 * 1) = 1/16 at p = 2
        assert alpha_p_inf(prof, 2.0) == pytest.approx(0.0625, rel=1e-13)
        assert alpha_p_inf(prof, 3.0) == pytest.approx(0.03125, rel=1e-13)
        assert alpha_p_inf(prof, 4.0) < alpha_p_inf(prof, 3.0)
        with pytest.raises(ValueError):
            alpha_p_inf(prof, 0.5)

    def test_hurwitz_check_boundary(self):
        _require_hurwitz(np.array([[1.0]]))
        for abar in (np.array([[0.0]]), np.array([[1.0, 0.0], [0.0, -0.5]])):
            with pytest.raises(NotHurwitzError):
                _require_hurwitz(abar)


class TestResidualGuard:
    def test_solver_residual_error_is_runtime_error(self):
        assert issubclass(SolverResidualError, RuntimeError)
