"""Noise models: exact constants vs Monte Carlo, second-moment kernels,
stationary covariance, and the contraction witness."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsalab import linalg
from lsalab.engine import coupled_exact_sq, exact_product_moment
from lsalab.linalg import SolverResidualError, SpectralProfile, spectral_norm
from lsalab.noise import (
    _second_moment_transfer,
    biased_rademacher_model,
    bounded_factor_model,
    eps_subgauss_const,
    exact_stationary_cov,
    lyapunov_witness,
    rademacher_gaussian_model,
    stationary_law,
    td_zero_model,
)
from lsalab.rng import _block_uniforms, stream


# p, rewards, phi and gamma of a three-state TD(0) model
_THREE_STATE = (
    np.array([[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.5, 0.25, 0.25]]),
    np.array([1.0, -0.5, 2.0]),
    np.array([[1.0, 0.0], [0.5, 1.0], [-0.5, 0.5]]),
    0.9,
)


def three_state_td():
    return td_zero_model(*_THREE_STATE)


class TestBiasedRademacher:
    def test_exact_constants(self):
        model = biased_rademacher_model(0.75)
        assert model.abar[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert model.theta_star[0] == 0.0
        assert model.c_a == 1.0
        assert model.sigma_b == 0.0
        assert model.sigma_eps_exact[0, 0] == 0.0

    def test_sampler_law(self):
        model = biased_rademacher_model(0.75)
        a_seq, b_seq = model.sample_path(stream(0, 0), 50_000)
        assert a_seq.shape == (50_000, 1, 1)
        assert set(np.unique(a_seq)) == {-1.0, 1.0}
        assert np.all(b_seq == 0.0)
        p_hat = (a_seq > 0).mean()
        assert abs(p_hat - 0.75) < 5.0 * np.sqrt(0.75 * 0.25 / 50_000)

    def test_rejects_unbiased_or_degenerate(self):
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(ValueError):
                biased_rademacher_model(bad)


class TestRademacherGaussian:
    def test_noise_is_pure_additive(self):
        model = rademacher_gaussian_model(0.8, sigma=2.0)
        assert model.sigma_eps_exact[0, 0] == pytest.approx(4.0)
        a_seq, b_seq = model.sample_path(stream(1, 0), 20_000)
        # eps = b here (theta* = 0, bbar = 0)
        eps = (b_seq - model.bbar) - (a_seq - model.abar) @ model.theta_star
        assert np.allclose(eps, b_seq)
        assert abs(eps.var() - 4.0) < 5.0 * 4.0 * np.sqrt(2.0 / 20_000)


class TestBoundedFactor:
    def make(self):
        abar = np.array([[1.0, 0.3], [0.0, 2.0]])
        bbar = np.array([1.0, -1.0])
        m = np.array([[0.5, 0.0], [0.2, 0.4]])
        return bounded_factor_model(abar, bbar, m, eta=0.7, sigma=0.9)

    def test_mean_pair_and_fixed_point(self):
        model = self.make()
        assert np.allclose(model.abar @ model.theta_star, model.bbar)
        a_seq, b_seq = model.sample_path(stream(2, 0), 40_000)
        assert np.allclose(a_seq.mean(axis=0), model.abar, atol=0.02)
        assert np.allclose(b_seq.mean(axis=0), model.bbar, atol=0.03)

    def test_almost_sure_factor_bound(self):
        model = self.make()
        a_seq, _ = model.sample_path(stream(3, 0), 2_000)
        norms = np.linalg.norm(a_seq, ord=2, axis=(1, 2))
        assert norms.max() <= model.c_a + 1e-12

    def test_exact_noise_covariance_vs_mc(self):
        model = self.make()
        a_seq, b_seq = model.sample_path(stream(4, 0), 200_000)
        eps = (b_seq - model.bbar) - (a_seq - model.abar) @ model.theta_star
        assert abs(eps.mean(axis=0)).max() < 0.02
        mc_cov = eps.T @ eps / eps.shape[0]
        assert np.allclose(mc_cov, model.sigma_eps_exact, atol=0.03)

    def test_subgauss_const_formula(self):
        model = self.make()
        t2 = float(model.theta_star @ model.theta_star)
        expected = np.sqrt(2.0 * model.sigma_b**2 + 8.0 * model.c_a**2 * t2)
        assert eps_subgauss_const(model) == pytest.approx(expected, rel=1e-13)

    def test_rejects_unstable_mean(self):
        with pytest.raises(ValueError):
            bounded_factor_model(
                np.array([[-1.0]]), np.zeros(1), np.array([[1.0]]), 0.1, 1.0
            )


class TestTdZero:
    def test_stationary_law(self):
        p = np.array([[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.5, 0.25, 0.25]])
        pi = stationary_law(p)
        assert np.allclose(pi @ p, pi, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi > 0)
        with pytest.raises(ValueError):
            stationary_law(np.array([[0.5, 0.2], [0.3, 0.7]]))

    def test_rows_must_sum_to_one_to_within_rounding(self):
        # a row off by 4e-6 is within numpy's default relative tolerance
        p = np.array([[0.5, 0.5 + 4e-6], [0.25, 0.75]])
        with pytest.raises(ValueError, match="p must be row-stochastic"):
            stationary_law(p)

    def test_stationary_law_of_a_periodic_chain(self):
        # period 2: a power iteration from the uniform law never settles
        p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        assert np.allclose(stationary_law(p), [0.25, 0.5, 0.25], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", [
        np.eye(3),
        np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                  [0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 0.6, 0.4]]),
    ], ids=["identity", "two_closed_classes"])
    def test_chain_without_a_unique_law_is_rejected(self, p):
        with pytest.raises(ValueError, match="no unique stationary law"):
            stationary_law(p)

    def test_mean_pair_is_exact_state_sum(self):
        model = three_state_td()
        p = np.array([[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.5, 0.25, 0.25]])
        rewards = np.array([1.0, -0.5, 2.0])
        phi = np.array([[1.0, 0.0], [0.5, 1.0], [-0.5, 0.5]])
        pi = stationary_law(p)
        abar = np.zeros((2, 2))
        bbar = np.zeros(2)
        for x in range(3):
            for y in range(3):
                abar += pi[x] * p[x, y] * np.outer(phi[x], phi[x] - 0.9 * phi[y])
            bbar += pi[x] * rewards[x] * phi[x]
        assert np.allclose(model.abar, abar, atol=1e-12)
        assert np.allclose(model.bbar, bbar, atol=1e-12)

    def test_sampler_mean_matches_exact(self):
        model = three_state_td()
        a_seq, b_seq = model.sample_path(stream(5, 0), 120_000)
        assert np.allclose(a_seq.mean(axis=0), model.abar, atol=0.02)
        assert np.allclose(b_seq.mean(axis=0), model.bbar, atol=0.02)

    def test_noise_covariance_vs_mc(self):
        model = three_state_td()
        a_seq, b_seq = model.sample_path(stream(6, 0), 200_000)
        eps = (b_seq - model.bbar) - (a_seq - model.abar) @ model.theta_star
        mc_cov = eps.T @ eps / eps.shape[0]
        assert np.allclose(mc_cov, model.sigma_eps_exact, atol=0.02)

    def test_almost_sure_bound(self):
        model = three_state_td()
        a_seq, _ = model.sample_path(stream(7, 0), 3_000)
        norms = np.linalg.norm(a_seq, ord=2, axis=(1, 2))
        assert norms.max() <= model.c_a + 1e-12


class TestLyapunovWitness:
    def test_wraps_spectral_profile(self):
        model = biased_rademacher_model(0.75)
        prof = lyapunov_witness(model)
        assert isinstance(prof, SpectralProfile)
        assert np.allclose(prof.abar, model.abar)
        assert prof.c_a == model.c_a


class TestSecondMomentKernel:
    def test_rademacher_kernel_is_identity(self):
        # A in {+1, -1} scalar: A (x) A = 1 always.
        for model in (biased_rademacher_model(0.75), rademacher_gaussian_model(0.6, 1.0)):
            assert np.allclose(model.kernel_exact, np.eye(1))

    def test_bounded_factor_closed_form(self):
        abar = np.array([[1.0, 0.3], [0.0, 2.0]])
        m = np.array([[0.5, 0.0], [0.2, 0.4]])
        model = bounded_factor_model(abar, np.zeros(2), m, eta=0.7, sigma=0.9)
        expected = np.kron(abar, abar) + 0.7**2 * np.kron(m, m)
        assert np.allclose(model.kernel_exact, expected, atol=1e-13)

    @pytest.mark.parametrize("maker", [
        lambda: bounded_factor_model(
            np.array([[1.0, 0.3], [0.0, 2.0]]), np.zeros(2),
            np.array([[0.5, 0.0], [0.2, 0.4]]), 0.7, 0.9,
        ),
        three_state_td,
    ])
    def test_kernel_matches_mc(self, maker):
        model = maker()
        kernel = model.kernel_exact
        a_seq, _ = model.sample_path(stream(8, 0), 60_000)
        # kron(a, a)[i*d+k, j*d+l] = a[i,j] * a[k,l]
        mc = np.einsum("nij,nkl->ikjl", a_seq, a_seq).reshape(kernel.shape)
        mc /= a_seq.shape[0]
        assert np.allclose(mc, kernel, atol=0.02)
        # spot-check the einsum layout against an explicit kron average
        brute = sum(np.kron(a, a) for a in a_seq[:2000]) / 2000
        brute_mc = np.einsum(
            "nij,nkl->ikjl", a_seq[:2000], a_seq[:2000]
        ).reshape(kernel.shape) / 2000
        assert np.allclose(brute, brute_mc, atol=1e-12)

    @pytest.mark.parametrize("p", [
        np.array([[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.5, 0.25, 0.25]]),
        # unreachable transitions carry no weight
        np.array([[0.0, 0.7, 0.3], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
    ])
    def test_td_kernel_is_the_sum_over_transitions(self, p):
        rewards = np.array([1.0, -0.5, 2.0])
        phi = np.array([[1.0, 0.0], [0.5, 1.0], [-0.5, 0.5]])
        model = td_zero_model(p, rewards, phi, gamma=0.9)
        pi = stationary_law(p)
        brute = np.zeros((4, 4))
        for x in range(3):
            for x_next in range(3):
                a = np.outer(phi[x], phi[x] - 0.9 * phi[x_next])
                brute += pi[x] * p[x, x_next] * np.kron(a, a)
        assert np.allclose(model.kernel_exact, brute, rtol=1e-14, atol=1e-15)


def _td_reference(p, rewards, phi, gamma):
    """Kernel, noise covariance and c_a of a TD(0) model, written out as a
    double loop over the transitions with the model's mean pair."""
    model = td_zero_model(p, rewards, phi, gamma)
    pi = stationary_law(p)
    d = phi.shape[1]
    kernel, sig_eps, c_a = np.zeros((d * d, d * d)), np.zeros((d, d)), 0.0
    for x in range(len(p)):
        for x_next in range(len(p)):
            w = pi[x] * p[x, x_next]
            if w == 0.0:
                continue
            g = phi[x] - gamma * phi[x_next]
            a = np.outer(phi[x], g)
            eps = (rewards[x] * phi[x] - model.bbar) - (a - model.abar) @ model.theta_star
            sig_eps += w * np.outer(eps, eps)
            kernel += w * np.kron(a, a)
            c_a = max(c_a, float(np.linalg.norm(phi[x]) * np.linalg.norm(g)))
    c_a = max(c_a, float(spectral_norm(model.abar)))
    return model, kernel, 0.5 * (sig_eps + sig_eps.T), c_a


_TD_P = [
    np.array([[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.5, 0.25, 0.25]]),
    np.array([[0.0, 0.7, 0.3], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
]
_TD_REWARDS = np.array([1.0, -0.5, 2.0])
_TD_PHI = np.array([[1.0, 0.0], [0.5, 1.0], [-0.5, 0.5]])


def _factor_kernel(model, law):
    """A bounded-factor model and its closed-form kernel."""
    m = law["m"]
    return model, np.kron(model.abar, model.abar) + law["eta"] ** 2 * np.kron(m, m)


class TestKernelFromTheLaw:
    """kernel_exact is derived from the sampler's (atoms, weights) table."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda q=q, sg=sg: (rademacher_gaussian_model(q, sg), np.ones((1, 1))),
                       id=f"pm1-q{q}-sigma{sg}")
          for q in (0.75, 0.6) for sg in (0.0, 1.0)),
        pytest.param(lambda: _factor_kernel(*_factor(np.ones((1, 1)), np.ones((1, 1)), 0.5)),
                     id="scalar_factor"),
        pytest.param(lambda: _factor_kernel(*_banded_factor(8)), id="model_d8"),
        *(pytest.param(lambda p=p: _td_reference(p, _TD_REWARDS, _TD_PHI, 0.9)[:2], id=name)
          for p, name in zip(_TD_P, ("td_dense", "td_sparse"))),
    ])
    def test_bytes_equal_the_closed_form(self, make):
        model, closed_form = make()
        assert model.kernel_exact.tobytes() == closed_form.tobytes()

    def test_random_factor_kernels_are_the_closed_form_to_the_last_bits(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            abar = (1.0 + rng.random()) * np.eye(d) + 0.2 * rng.normal(size=(d, d))
            try:
                model, closed_form = _factor_kernel(
                    *_factor(abar, rng.normal(size=(d, d)), float(rng.random()))
                )
            except ValueError:
                continue
            gap = np.abs(model.kernel_exact - closed_form).max()
            assert gap <= 1e-15 * np.abs(closed_form).max()

    @pytest.mark.parametrize("p", _TD_P, ids=["td_dense", "td_sparse"])
    def test_td_noise_covariance_and_c_a_bytes_equal_the_double_loop(self, p):
        model, _, sig_eps, c_a = _td_reference(p, _TD_REWARDS, _TD_PHI, 0.9)
        assert model.sigma_eps_exact.tobytes() == sig_eps.tobytes()
        assert repr(model.c_a) == repr(c_a)

    @pytest.mark.parametrize("make", [
        lambda: biased_rademacher_model(0.75),
        lambda: rademacher_gaussian_model(0.6, 1.0),
        lambda: rademacher_gaussian_model(0.5 + 2.0**-20, 1.0),
        lambda: _banded_factor(3)[0],
    ], ids=["biased_rademacher", "pm1-q0.6", "pm1-q-just-above-half", "factor_d3"])
    def test_two_point_weights_are_a_law_exactly(self, make):
        weights = make().sampler.weights
        assert weights.shape == (2,)
        assert np.all(weights >= 0.0) and weights.sum() == 1.0

    @pytest.mark.parametrize("p", _TD_P, ids=["td_dense", "td_sparse"])
    def test_td_weights_are_the_transition_law(self, p):
        weights = td_zero_model(p, _TD_REWARDS, _TD_PHI, 0.9).sampler.weights
        assert weights.shape == (9,)
        assert np.all(weights >= 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        # a transition of probability 0 has weight 0, so its atom is skipped
        assert np.array_equal(weights == 0.0, p.reshape(-1) == 0.0)


class TestNoiseCovarianceFromTheLaw:
    """sigma_eps_exact is derived from the law: sigma^2 I plus the weighted
    outer products of each atom's effective noise."""

    @pytest.mark.parametrize("q_a, sigma", [
        (0.75, 0.0), (0.6, 1.0), (0.5 + 2.0**-20, 0.3), (0.75, 1e150),
    ])
    def test_sign_chains_are_sigma_squared(self, q_a, sigma):
        model = rademacher_gaussian_model(q_a, sigma)
        assert model.sigma_eps_exact.tobytes() == np.array([[sigma**2]]).tobytes()

    def test_random_factors_are_the_closed_form_to_the_last_bits(self):
        rng = np.random.default_rng(33)
        built = 0
        for _ in range(500):
            d = int(rng.integers(1, 5))
            abar = (1.0 + rng.random()) * np.eye(d) + 0.2 * rng.normal(size=(d, d))
            m, bbar = rng.normal(size=(d, d)), rng.normal(size=d)
            eta, sigma = float(rng.random()), float(rng.random())
            try:
                model = bounded_factor_model(abar, bbar, m, eta, sigma)
            except linalg.NotHurwitzError:
                continue
            built += 1
            m_theta = m @ model.theta_star
            closed_form = sigma**2 * np.eye(d) + eta**2 * np.outer(m_theta, m_theta)
            gap = np.abs(model.sigma_eps_exact - closed_form).max()
            assert gap <= 1e-15 * np.abs(closed_form).max()
        assert built > 400


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_sign_chain_sigma(self, value):
        with pytest.raises(ValueError, match="sigma must be finite"):
            rademacher_gaussian_model(0.75, value)

    @pytest.mark.parametrize("name", ["eta", "sigma", "bbar"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_bounded_factor(self, name, value):
        args = dict(abar=np.eye(2), bbar=np.ones(2), m=np.eye(2), eta=0.5, sigma=1.0)
        args[name] = np.array([1.0, value]) if name == "bbar" else value
        with pytest.raises(ValueError, match=name):
            bounded_factor_model(**args)

    @pytest.mark.parametrize("name", ["rewards", "phi"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_td_zero(self, name, value):
        args = dict(p=_TD_P[0], rewards=_TD_REWARDS.copy(), phi=_TD_PHI.copy(), gamma=0.9)
        args[name].flat[1] = value
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            td_zero_model(**args)


class TestExactStationaryCov:
    def test_scalar_closed_form(self):
        # A = 1 + 0.5 zeta, b ~ N(0,1): V = alpha / (2 - 1.25 alpha).
        model = bounded_factor_model(
            np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 0.5, 1.0
        )
        for alpha in (0.1, 0.05, 0.01):
            v = exact_stationary_cov(model, alpha)
            assert v[0, 0] == pytest.approx(alpha / (2.0 - 1.25 * alpha), rel=1e-12)

    def test_reduces_to_riccati_when_factor_deterministic(self):
        from lsalab.linalg import solve_riccati

        abar = np.array([[1.0, 0.3], [0.0, 2.0]])
        model = bounded_factor_model(abar, np.zeros(2), np.eye(2), eta=0.0, sigma=1.0)
        alpha = 0.05
        v = exact_stationary_cov(model, alpha)
        ref = alpha * solve_riccati(abar, model.sigma_eps_exact, alpha)
        assert np.allclose(v, ref, rtol=1e-10)

    def test_unstable_stepsize_rejected(self):
        model = bounded_factor_model(
            np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), 0.5, 1.0
        )
        # scalar transfer (1-alpha)^2 + 0.25 alpha^2 >= 1 iff alpha >= 1.6
        with pytest.raises(ValueError, match="no stationary value"):
            exact_stationary_cov(model, 1.7)
        exact_stationary_cov(model, 1.5)  # still stable just below

    @pytest.mark.parametrize("make", [
        lambda: bounded_factor_model(
            np.array([[1.0, 0.3], [-0.2, 2.0]]), np.array([1.0, -0.5]),
            np.array([[0.5, 0.0], [0.2, 0.4]]), 0.7, 0.9,
        ),
        three_state_td,
    ])
    def test_solves_its_equation_and_is_the_transfer_fixed_point(self, make):
        model, alpha = make(), 0.05
        v = exact_stationary_cov(model, alpha)
        kernel = model.kernel_exact
        d = model.dim
        scale = np.abs(v).max()
        lhs = model.abar @ v + v @ model.abar.T - alpha * (kernel @ v.reshape(-1)).reshape(d, d)
        assert np.allclose(lhs, alpha * model.sigma_eps_exact, rtol=0, atol=1e-12 * scale)
        fixed = _second_moment_transfer(model, alpha) @ v.reshape(-1)
        fixed += alpha**2 * model.sigma_eps_exact.reshape(-1)
        assert np.allclose(fixed, v.reshape(-1), rtol=0, atol=1e-12 * scale)

    def test_residual_gated(self, monkeypatch):
        model = three_state_td()
        exact_stationary_cov(model, 0.05)
        monkeypatch.setattr(linalg, "SOLVER_TOL", -1.0)
        with pytest.raises(SolverResidualError, match="stationary covariance"):
            exact_stationary_cov(model, 0.05)

    @given(
        st.integers(1, 8).flatmap(lambda d: st.tuples(*(
            arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
            for shape in ((d, d), (d, d), (d, d), (d,))
        ))),
        st.floats(0.0, 1.0),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_the_inline_kronecker_formula(self, draws, eta_frac, alpha_frac):
        g, r, m, bbar = draws
        d = len(bbar)
        abar = g @ g.T / d + 0.1 * np.eye(d) + 0.5 * (r - r.T)
        # every realization abar +- eta*m keeps its symmetric part >= 0.05 I,
        # so the second-moment map contracts for alpha < 0.1 / c_a^2
        model = bounded_factor_model(abar, bbar, m, eta=0.05 * eta_frac / d, sigma=0.8)
        alpha = alpha_frac * 0.1 / model.c_a**2
        eye = np.eye(d)
        k = np.kron(abar, eye) + np.kron(eye, abar) - alpha * model.kernel_exact
        v = np.linalg.solve(k, alpha * model.sigma_eps_exact.reshape(-1)).reshape(d, d)
        assert exact_stationary_cov(model, alpha).tobytes() == (0.5 * (v + v.T)).tobytes()

    def test_rejects_bad_alpha(self):
        model = biased_rademacher_model(0.75)
        with pytest.raises(ValueError):
            exact_stationary_cov(model, 0.0)
        with pytest.raises(ValueError):
            exact_stationary_cov(model, np.inf)


_NOISELESS_B = [
    lambda: biased_rademacher_model(0.75),
    lambda: rademacher_gaussian_model(0.7, 0.0),
    lambda: bounded_factor_model(np.eye(3) + 0.1, np.arange(3.0), 0.5 * np.eye(3), 0.5, sigma=0.0),
]


class TestWordLayout:
    @pytest.mark.parametrize("make", [
        lambda: biased_rademacher_model(0.75),
        lambda: rademacher_gaussian_model(0.7, 1.3),
        lambda: bounded_factor_model(np.eye(1), np.ones(1), np.eye(1), 0.5, 1.0),
        lambda: bounded_factor_model(np.eye(3) + 0.1, np.ones(3), 0.5 * np.eye(3), 0.5, 1.0),
        three_state_td,
    ] + _NOISELESS_B[1:])
    def test_block_decode_matches_sample_path(self, make):
        # step k of row j of a block draw is step k of stream(seed, j)'s path,
        # the A draws need only the A-word prefix, and a path decoded in
        # windows of any length, of words at offsets that are not whole
        # Philox counters, gives the draws of the whole block
        model = make()
        sampler, n, seed = model.sampler, 11, 9
        b_words = sampler._words(1, with_b=True) - 1
        full = _block_uniforms(seed, 2, 7, sampler._words(n, with_b=True))
        prefix = _block_uniforms(seed, 2, 7, sampler._words(n, with_b=False))
        paths = [model.sample_path(stream(seed, j), n) for j in range(2, 7)]

        def sliced(words):
            # copies: _b decodes its words in place
            return lambda n_words, start: words[:, start : start + n_words].copy()

        def offset(n_words, start):
            return _block_uniforms(seed, 2, 7, n_words, start)

        def windows(draw, window, with_b):
            # each window's A words [s, s + w), then its b words [n + s*d, n + (s + w)*d)
            for s in range(0, n, window):
                w = min(window, n - s)
                index = sampler._index(draw(w, s))
                g = draw(w * b_words, n + s * b_words) if b_words else None
                yield index, sampler._b(index, g) if with_b else None

        (index, b), = windows(sliced(full), n, True)
        for window, draw in itertools.product((n, 3, 1), (sliced(full), offset)):
            decoded = list(windows(draw, window, True))
            lengths = [min(window, n - s) for s in range(0, n, window)]
            assert [w.shape[1] for w, _ in decoded] == lengths
            assert np.array_equal(np.concatenate([w for w, _ in decoded], axis=1), index)
            assert np.array_equal(np.concatenate([w for _, w in decoded], axis=1), b)
        for window, draw in itertools.product((n, 4), (sliced(full), sliced(prefix), offset)):
            for s, (a_only, no_b) in zip(range(0, n, window), windows(draw, window, False)):
                assert no_b is None
                assert np.array_equal(a_only, index[:, s : s + window])
        for k in range(n):
            for row, (a_seq, b_seq) in enumerate(paths):
                assert np.array_equal(sampler.atoms[index[row, k]], a_seq[k])
                assert np.array_equal(b[row, k], b_seq[k])

    @pytest.mark.parametrize("make", [
        lambda: rademacher_gaussian_model(0.7, 1.3),
        lambda: bounded_factor_model(np.eye(3) + 0.1, np.ones(3), 0.5 * np.eye(3), 0.5, 1.0),
    ])
    def test_gaussian_b_is_decoded_over_its_words(self, make):
        sampler, n = make().sampler, 7
        words = _block_uniforms(3, 0, 4, sampler._words(n, with_b=True))
        u_b = words[:, n:].copy()
        bbar = sampler.b_atoms[0]
        expected = bbar + sampler.sigma * scipy.special.ndtri(u_b).reshape(4, n, -1)
        b = sampler._b(None, u_b)
        assert np.shares_memory(b, u_b)
        assert b.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("make", _NOISELESS_B)
    def test_noiseless_b_reads_only_the_a_words(self, make):
        model, n = make(), 11
        assert model.sampler._words(n, with_b=True) == n
        _, b_seq = model.sample_path(stream(4, 0), n)
        assert b_seq.shape == (n, model.dim)
        assert np.all(b_seq == model.bbar)


def _sign(q_a, sigma=None):
    """A +-1 chain and its law's construction arguments."""
    model = biased_rademacher_model(q_a) if sigma is None else rademacher_gaussian_model(q_a, sigma)
    return model, dict(q_a=q_a)


def _factor(abar, m, eta, sigma=1.0):
    """A bounded-factor model and its law's construction arguments."""
    return bounded_factor_model(abar, np.ones(len(abar)), m, eta, sigma), dict(eta=eta, m=m)


def _banded_factor(d):
    band = np.diag(np.ones(d - 1), 1)
    return _factor(np.eye(d) + 0.25 * (band - band.T), 0.5 * np.eye(d) + 0.25 * (band + band.T), 0.5)


def _closed_form_a(model, u, n, q_a=None, eta=None, m=None, td=None):
    """A draws of every step, shape (B, n, d, d), decoded as matrices from the words.

    Each law is decoded from its construction arguments, not from the
    sampler under test: a two-point law from q_a, or eta and m; TD(0) from
    ``td = (p, phi, gamma)``, whose pair (x, x') is the ``searchsorted``
    inversion of the pair law pi[x] p[x, x'] over its pairs of nonzero
    weight, the last pair at the bottom of (0, 1).
    """
    if q_a is not None:
        return ((u[:, :n] < q_a) * 2.0 - 1.0)[..., None, None]
    if eta is not None:
        zeta = (u[:, :n] < 0.5) * 2.0 - 1.0
        return model.abar + eta * zeta[..., None, None] * m
    p, phi, gamma = td
    pair = (stationary_law(p)[:, None] * p).reshape(-1)
    keep = np.flatnonzero(pair)
    tail = np.cumsum(pair[keep][::-1])
    pairs = keep[len(keep) - 1 - np.searchsorted(tail[:-1], u[:, :n], side="right")]
    x, x_next = np.divmod(pairs, len(p))
    f, f_next = phi[x], phi[x_next]
    return f[..., :, None] * (f - gamma * f_next)[..., None, :]


def _td(p, rewards, phi, gamma):
    """A TD(0) model and its law's construction arguments."""
    return td_zero_model(p, rewards, phi, gamma), dict(td=(p, phi, gamma))


# the largest open uniform, from the all-ones word
_TOP = 1.0 - 2.0**-54


class TestAtoms:
    @pytest.mark.parametrize("make", [
        lambda: _sign(0.75),
        lambda: _sign(0.7, sigma=1.3),
        lambda: _factor(np.array([[0.9]]), np.array([[0.7]]), 0.3),
        lambda: _banded_factor(3),
        lambda: _banded_factor(8),
        pytest.param(lambda: _td(*_THREE_STATE), id="three_state_td"),
        lambda: _sign(0.7, sigma=0.0),
        lambda: _factor(np.array([[0.9]]), np.array([[0.7]]), 0.3, sigma=0.0),
    ])
    def test_atoms_at_the_decoded_index_are_the_closed_form_draws(self, make):
        model, law = make()
        n = 40
        assert model.sampler._words(n, with_b=False) == n  # one A word a step
        u = _block_uniforms(13, 0, 25, n)
        index = model.sampler._index(u)
        expected = _closed_form_a(model, u, n, **law)
        assert model.sampler.atoms[index].tobytes() == expected.tobytes()

    def test_td_never_draws_a_successor_of_probability_zero(self):
        # row 0 reaches state 3 with probability 0, so pair 0 * 4 + 3 has an
        # empty interval, also at both ends of (0, 1) and at every boundary
        # between the pairs' intervals
        p = np.array([[0.7, 0.2, 0.1, 0.0], [0.25] * 4, [0.25] * 4, [0.25] * 4])
        phi = np.array([[1.0, 0.0], [0.5, 1.0], [-0.5, 0.5], [2.0, -1.0]])
        model, law = _td(p, np.ones(4), phi, 0.9)
        tail = np.cumsum(model.sampler.weights[::-1])[::-1]
        u = np.concatenate([
            _block_uniforms(5, 0, 1, 20_000)[0], tail, np.nextafter(tail, 0.0), [2.0**-54, _TOP],
        ]).clip(2.0**-54, _TOP)[None]
        index = model.sampler._index(u)
        assert 0 * 4 + 3 not in index
        assert set(np.flatnonzero(model.sampler.weights)) == set(index[0].tolist())
        assert model.sampler._index(np.array([[_TOP]])).tolist() == [[0]]
        expected = _closed_form_a(model, u, u.size, **law)
        assert model.sampler.atoms[index].tobytes() == expected.tobytes()


_KINDS = {
    "biased_rademacher": lambda: biased_rademacher_model(0.75),
    "rademacher_gaussian": lambda: rademacher_gaussian_model(0.7, 1.3),
    "bounded_factor": lambda: _banded_factor(3)[0],
    "td_zero": three_state_td,
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("table,name", [("atoms", "A"), ("b_atoms", "b")])
def test_a_law_with_a_non_finite_atom_is_rejected(kind, table, name):
    # the model derives theta_star, its noise covariance and its kernel from
    # the atoms, so an atom that is not finite is rejected before any of them
    model = _KINDS[kind]()
    values = getattr(model.sampler, table).copy()
    values.flat[-1] = np.inf
    with pytest.raises(ValueError, match=f"the law of {name} has non-finite entries"):
        replace(model, sampler=replace(model.sampler, **{table: values}))


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_law_with_other_weights_decodes_and_kernels_by_them(kind):
    # the law has one home, the (atoms, weights) table: a model whose
    # sampler carries other weights draws by them, and its kernel follows
    model = _KINDS[kind]()
    sampler = model.sampler
    k = sampler.weights.size
    w = np.linspace(1.0, 2.0, k)
    w[1 : k // 2] = 0.0
    w /= w.sum()
    tilted = replace(model, sampler=replace(sampler, weights=w))
    # atom j takes exactly [T[j + 1], T[j]) of (0, 1), T the top-down
    # cumulative weights of w; the first atom of nonzero weight takes the top
    tail = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    kept = np.flatnonzero(w)
    lo = np.maximum(tail[kept + 1], 2.0**-54)
    hi = np.nextafter(tail[kept], 0.0)
    hi[0] = _TOP
    u = np.concatenate([lo, hi])[None]
    index = tilted.sampler._index(u)
    assert index[0].tolist() == kept.tolist() * 2
    below = np.nextafter(lo[:-1], 0.0)[None]  # the top of the next atom down
    index = tilted.sampler._index(below)
    assert index[0].tolist() == kept[1:].tolist()
    kernel = sum(w[j] * np.kron(sampler.atoms[j], sampler.atoms[j]) for j in kept)
    assert np.allclose(tilted.kernel_exact, kernel, rtol=1e-14, atol=0.0)
    # and so does its noise covariance, the mean pair and theta_star being kept
    b_rows = np.broadcast_to(sampler.b_atoms, (k, model.dim))
    sig_eps = sampler.sigma**2 * np.eye(model.dim)
    for j in kept:
        eps = (b_rows[j] - model.bbar) - (sampler.atoms[j] - model.abar) @ model.theta_star
        sig_eps = sig_eps + w[j] * np.outer(eps, eps)
    assert np.array_equal(tilted.theta_star, model.theta_star)
    assert np.allclose(tilted.sigma_eps_exact, sig_eps, rtol=1e-14, atol=0.0)


def _paths(sampler, n, alpha=None):
    """Every path of k = 0..n steps of the law of A, by exhaustive enumeration.

    Yields, for each k, the products F_k ... F_1 of the K**k paths over the
    atoms of nonzero weight (F = A, or I - alpha*A given ``alpha``), shape
    (K**k, d, d), and their probabilities, each the product of its steps'
    weights.  Reads only the sampler's ``atoms`` and ``weights``.
    """
    keep = sampler.weights > 0.0
    atoms, weights = sampler.atoms[keep], sampler.weights[keep]
    d = atoms.shape[-1]
    factors = atoms if alpha is None else np.eye(d) - alpha * atoms
    prods, probs = np.eye(d)[None], np.ones(1)
    yield prods, probs
    for _ in range(n):
        prods = (factors[:, None] @ prods[None]).reshape(-1, d, d)
        probs = np.multiply.outer(weights, probs).reshape(-1)
        yield prods, probs


def _rel_gap(got, expected) -> float:
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def _sparse_td():
    return td_zero_model(_TD_P[1], _TD_REWARDS, _TD_PHI, 0.9)


# Models with non-symmetric atoms, so that a transposed Kronecker product
# changes their maps, and how many steps each enumeration takes.
_ENUMERATED = {
    "factor_d2": (lambda: _banded_factor(2)[0], 12),
    "factor_d3": (lambda: _banded_factor(3)[0], 12),
    "factor_d4": (lambda: _banded_factor(4)[0], 12),
    "td_dense": (three_state_td, 6),
    "td_sparse": (_sparse_td, 6),
}


class TestExhaustiveEnumeration:
    """The exact maps against every path of the atom table, to 1e-12 relative."""

    @pytest.mark.parametrize("make", [
        lambda: biased_rademacher_model(0.75),
        lambda: _factor(np.array([[0.9]]), np.array([[0.7]]), 0.3)[0],
        *(make for make, _ in _ENUMERATED.values()),
    ], ids=["biased_rademacher", "scalar_factor", *_ENUMERATED])
    def test_kernel_is_the_one_step_enumeration(self, make):
        model = make()
        _, (atoms, probs) = _paths(model.sampler, 1)
        expected = sum(w * np.kron(a, a) for a, w in zip(atoms, probs))
        assert _rel_gap(model.kernel_exact, expected) <= 1e-12

    @pytest.mark.parametrize("name", sorted(_ENUMERATED))
    def test_coupled_curve_and_frobenius_moment_are_the_path_averages(self, name):
        make, n = _ENUMERATED[name]
        model = make()
        alpha, d = 0.1, model.dim
        delta0 = np.linspace(1.0, -0.5, d)
        sq, frob = np.empty(n + 1), np.empty(n + 1)
        for k, (prods, probs) in enumerate(_paths(model.sampler, n, alpha)):
            sq[k] = probs @ np.sum((prods @ delta0) ** 2, axis=1)
            frob[k] = probs @ np.sum(prods**2, axis=(1, 2))
        assert _rel_gap(coupled_exact_sq(model, alpha, n, delta0), sq) <= 1e-12
        # E||Gamma_k||_F^2 = vec(I) . T^k vec(I) for the second-moment transfer T
        transfer = _second_moment_transfer(model, alpha)
        state, exact = np.eye(d).reshape(-1), np.empty(n + 1)
        for k in range(n + 1):
            exact[k] = np.trace(state.reshape(d, d))
            state = transfer @ state
        assert _rel_gap(exact, frob) <= 1e-12

    # alpha_inf is 2 for the +-1 chain at q_a = 0.75, so validation accepts
    # alpha = 1, where the +1 atom's factor is exactly 0, and alpha = 1.5,
    # where it is -0.5
    @pytest.mark.parametrize("make, alpha", [
        (lambda: biased_rademacher_model(0.75), 0.1),
        (lambda: biased_rademacher_model(0.75), 1.0),
        (lambda: biased_rademacher_model(0.75), 1.5),
        (lambda: rademacher_gaussian_model(0.6, 1.0), 0.3),
        (lambda: _factor(np.array([[1.0]]), np.array([[1.0]]), 0.5)[0], 0.1),
        (lambda: _factor(np.array([[0.9]]), np.array([[0.7]]), 0.3)[0], 1.2),
        # every factor is exactly 0: Gamma_0 = 1 and Gamma_k = 0 after
        (lambda: _factor(np.array([[1.0]]), np.array([[1.0]]), 0.0)[0], 1.0),
    ], ids=["pm1", "pm1-alpha1", "pm1-alpha1.5", "pm1-q0.6", "scalar_factor", "factor-alpha1.2",
            "noise_free-alpha1"])
    def test_scalar_product_moment_is_the_path_average(self, make, alpha):
        model, n = make(), 12
        for p in (2.0, 3.5):
            for k, (prods, probs) in enumerate(_paths(model.sampler, n, alpha)):
                expected = probs @ np.abs(prods[:, 0, 0]) ** p
                got = exact_product_moment(model, alpha, p, k)
                assert abs(got - expected) <= 1e-12 * expected, (p, k)
