"""Closed-form bound layer: hand-recomputed constants, exact dual-route
identities, dominance over exact oracles, and argument-window enforcement."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalab.bounds import (
    D1,
    FLAG_CONFIDENCE,
    FLAG_D1_EXPONENT,
    FLAG_D3_STEP_FACTOR,
    BoundReport,
    composite_hp_bound,
    d2_constant,
    d3_constant,
    d4_constant,
    j0_hp_bound,
    j1_h1_bounds,
    moments_to_hp,
    product_hp_bound,
    product_moment_bound,
    rademacher_bounds,
    rademacher_tail_thresholds,
    sigma_gap_bound,
    transient_hp_bound,
)
from lsalab.engine import exact_product_moment, rademacher_exact_tail
from lsalab.linalg import (
    q_norm_mat,
    solve_riccati,
    solve_sigma,
    spectral_norm,
    spectral_profile,
)
from lsalab.noise import biased_rademacher_model, bounded_factor_model, eps_subgauss_const
from lsalab.rng import stream


def scalar_profile():
    """abar = 1/2, |A| <= 1: q = 1, a = 1/2, alpha_inf = 2, b_q = 2."""
    return spectral_profile(np.array([[0.5]]), c_a=1.0)


def shear_profile():
    """2-D non-normal instance where a * alpha_inf < 1 strictly."""
    return spectral_profile(np.array([[1.0, 1.0], [0.0, 1.0]]), c_a=3.0)


class TestConstants:
    def test_d1_value(self):
        assert D1 == pytest.approx(60.0 * math.sqrt(3.0) * math.exp(4.0 / 3.0))
        assert D1 == pytest.approx(394.24953243804714, rel=1e-15)

    def test_d2_formula(self):
        prof = scalar_profile()
        expected = 540.0 * math.sqrt(3.0) * math.exp(1.0 / 3.0)
        assert d2_constant(prof, 1.0) == pytest.approx(expected, rel=1e-13)
        assert d2_constant(prof, 2.5) == pytest.approx(2.5 * expected, rel=1e-13)

    def test_d3_closed_form_when_margin_exists(self):
        prof = shear_profile()
        assert prof.a * prof.alpha_inf < 1.0 - 1e-6
        value, flag = d3_constant(prof, 1.0, 0.01)
        lead = 72.0 * math.sqrt(2.0) * prof.c_a * prof.kappa_q / prof.a
        assert flag is None
        assert value == pytest.approx(
            lead / (1.0 - prof.a * prof.alpha_inf), rel=1e-12
        )

    def test_d3_scalar_degeneracy_falls_back_to_step_factor(self):
        # every scalar profile has a * alpha_inf = 1 exactly, so the
        # closed-form geometric factor is infinite and the evaluation-stepsize
        # factor is used instead, with the flag attached.
        prof = scalar_profile()
        assert prof.a * prof.alpha_inf == pytest.approx(1.0, rel=1e-14)
        value, flag = d3_constant(prof, 1.0, 0.1)
        lead = 72.0 * math.sqrt(2.0) * prof.c_a * prof.kappa_q / prof.a
        assert flag == FLAG_D3_STEP_FACTOR
        assert value == pytest.approx(lead / (1.0 - 0.05), rel=1e-12)

    def test_d3_degenerate_with_no_step_margin_raises(self):
        prof = scalar_profile()
        with pytest.raises(ValueError, match="no.*contraction margin"):
            d3_constant(prof, 1.0, prof.alpha_inf)

    def test_d4_and_d5_scale_d3(self):
        prof = scalar_profile()
        d3, _ = d3_constant(prof, 1.0, 0.1)
        d4, _ = d4_constant(prof, 1.0, 0.1, p0=4.0)
        assert d4 == pytest.approx(
            4.0 * prof.c_a * math.sqrt(prof.kappa_q) * 1.0 * d3 / prof.a, rel=1e-12
        )


class TestProductMomentBound:
    def test_scalar_hand_formula(self):
        prof = scalar_profile()
        # (1 - a*alpha + (p-1)*b_q^2*alpha^2)^(n/2) with kappa = d = 1
        got = product_moment_bound(prof, 2.0, 0.1, 10)
        assert got == pytest.approx(0.99**5, rel=1e-13)
        got4 = product_moment_bound(prof, 4.0, 0.1, 6)
        assert got4 == pytest.approx((1.0 - 0.05 + 3 * 4 * 0.01) ** 3, rel=1e-13)

    def test_zero_steps_is_head_constant(self):
        prof = shear_profile()
        got = product_moment_bound(prof, 3.0, 0.01, 0)
        assert got == pytest.approx(
            math.sqrt(prof.kappa_q) * 2.0 ** (1.0 / 3.0), rel=1e-12
        )

    def test_dominates_exact_scalar_moments(self):
        # biased +-1 chain: E^(1/p)|Gamma_n|^p has the exact one-step base
        # q(1-alpha)^p + (1-q)(1+alpha)^p; the bound must sit above it for
        # every admissible stepsize and horizon.
        prof = scalar_profile()
        chain = biased_rademacher_model(0.75)
        for p in (2.0, 4.0):
            for alpha in (0.02, 0.05, 0.1):
                for n in (1, 10, 100, 1000):
                    exact = exact_product_moment(chain, alpha, p, n) ** (1.0 / p)
                    bound = product_moment_bound(prof, p, alpha, n)
                    assert exact <= bound * (1 + 1e-12)

    def test_argument_windows(self):
        prof = scalar_profile()
        with pytest.raises(ValueError, match="p must be >= 2"):
            product_moment_bound(prof, 1.5, 0.1, 10)
        with pytest.raises(ValueError, match="alpha_inf"):
            product_moment_bound(prof, 2.0, 3.0, 10)
        with pytest.raises(ValueError, match="n must be >= 0"):
            product_moment_bound(prof, 2.0, 0.1, -1)

    def test_a_bound_past_the_float_range_raises_naming_n(self):
        # base 1 - 0.05 + 3 * 4 * 0.01 = 1.07: the log-value 0.5 * n * log(1.07)
        # passes log(float max) ~ 709.8 near n = 20980
        prof = scalar_profile()
        assert math.isfinite(product_moment_bound(prof, 4.0, 0.1, 20_000))
        with pytest.raises(ValueError, match=r"n=30000 .*past the float range"):
            product_moment_bound(prof, 4.0, 0.1, 30_000)

    def test_negative_base_names_the_stepsize_cap(self):
        # profiles built from real models keep the base non-negative (b_q
        # dominates a), so drive the defensive branch with a hand-assembled
        # profile whose quadratic term is tiny.
        from lsalab.linalg import SpectralProfile

        prof = SpectralProfile(
            abar=np.array([[0.5]]), q=np.array([[1.0]]), a=10.0, alpha_inf=0.5,
            kappa_q=1.0, c_a=1.0, b_q=0.1,
        )
        with pytest.raises(ValueError, match="alpha_p_inf"):
            product_moment_bound(prof, 2.0, 0.4, 10)


class TestProductHpBound:
    def test_hand_formula(self):
        prof = scalar_profile()
        alpha, n, delta = 0.1, 100, 0.1
        expected = math.exp(
            -(0.5 * alpha - alpha**2 * 4.0) * n / 2.0
            + 2.0 * alpha * math.sqrt(2.0 * n * math.log(1.0 / delta))
        )
        assert product_hp_bound(prof, alpha, n, delta) == pytest.approx(
            expected, rel=1e-12
        )

    def test_dominates_exact_tail(self):
        # threshold t with P(|Gamma_n| >= t) <= delta, checked against the
        # exact Binomial tail of the biased +-1 chain.
        prof = scalar_profile()
        for delta in (0.9, 0.5, 0.1, 0.01):
            for n in (10, 100, 400):
                t = product_hp_bound(prof, 0.1, n, delta)
                assert rademacher_exact_tail(0.75, 0.1, n, t) <= delta + 1e-15

    def test_generic_quantile_route_identity(self):
        # the moment envelope E|Gamma|^p <= d * kappa^(p/2)
        #   * exp(-(a*alpha + alpha^2 b^2) n p / 2 + alpha^2 b^2 n p^2 / 2)
        # pushed through the generic converter at p0 = 1 lands exactly
        # exp(-b_coef) below the closed form: both share the Chernoff cross
        # term 2*sqrt(b_coef*log(d/delta)), and the heads differ by the
        # (p-1)-vs-p bookkeeping factor alone.
        prof = shear_profile()
        alpha, n, delta = 0.02, 50, 0.05
        b_coef = alpha**2 * prof.b_q**2 * n / 2.0
        a_coef = (
            prof.a * alpha + alpha**2 * prof.b_q**2
        ) * n / 2.0 - 0.5 * math.log(prof.kappa_q)
        generic = moments_to_hp(a_coef, b_coef, float(prof.dim), 1.0, math.inf, delta)
        closed = product_hp_bound(prof, alpha, n, delta)
        assert generic == pytest.approx(closed * math.exp(-b_coef), rel=1e-11)

    def test_windows(self):
        prof = scalar_profile()
        with pytest.raises(ValueError):
            product_hp_bound(prof, 0.1, 10, 0.0)
        with pytest.raises(ValueError):
            product_hp_bound(prof, 0.1, 10, 1.5)
        with pytest.raises(ValueError):
            product_hp_bound(prof, 2.5, 10, 0.1)


class TestMomentsToHp:
    def test_infinite_p1_drops_tail_term(self):
        v_inf = moments_to_hp(1.0, 2.0, 3.0, 1.0, math.inf, 0.5)
        expected = math.exp(
            -1.0 + 2.0 + 2.0 * math.sqrt(2.0 * math.log(6.0))
        )
        assert v_inf == pytest.approx(expected, rel=1e-12)
        v_fin = moments_to_hp(1.0, 2.0, 3.0, 1.0, 2.0, 0.5)
        assert v_fin == pytest.approx(expected * math.exp(math.log(6.0) / 2.0), rel=1e-12)

    def test_windows(self):
        with pytest.raises(ValueError):
            moments_to_hp(0.0, 0.0, 1.0, 1.0, math.inf, 0.5)
        with pytest.raises(ValueError):
            moments_to_hp(0.0, 1.0, 0.5, 1.0, math.inf, 0.5)
        with pytest.raises(ValueError):
            moments_to_hp(0.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            moments_to_hp(0.0, 1.0, 1.0, 1.0, math.inf, 0.0)

    @given(
        a_coef=st.floats(-2.0, 2.0),
        b_coef=st.floats(0.01, 2.0),
        c_coef=st.floats(1.0, 50.0),
        p0=st.floats(1.0, 8.0),
        extra=st.one_of(st.none(), st.floats(0.0, 20.0)),
        delta=st.floats(0.001, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_soundness_against_markov_family(self, a_coef, b_coef, c_coef, p0, extra, delta):
        # for any variable obeying the envelope, Markov at exponent p gives
        # the valid threshold t_p = (c exp(-a p + b p^2) / delta)^(1/p);
        # the converter's output must sit above some admissible t_p.
        p1 = math.inf if extra is None else p0 + extra
        v = moments_to_hp(a_coef, b_coef, c_coef, p0, p1, delta)
        hi = 60.0 if math.isinf(p1) else p1
        grid = np.linspace(p0, max(p0, hi), 400)
        t = np.exp(
            (-a_coef * grid + b_coef * grid**2 + np.log(c_coef / delta)) / grid
        )
        assert t.min() <= v * (1 + 1e-9)


class TestPerTermBounds:
    def test_transient_formula(self):
        prof = scalar_profile()
        got = transient_hp_bound(prof, 2.0, 0.05, 20, 1.5, 0.1)
        expected = (1.0 - 0.5 * 0.05 / 4.0) ** 20 * 1.5 * 0.1 ** (-0.5)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_transient_stepsize_cap_is_strict(self):
        prof = scalar_profile()
        from lsalab.linalg import alpha_p_inf

        cap = alpha_p_inf(prof, 2.0)
        with pytest.raises(ValueError, match="alpha_p_inf"):
            transient_hp_bound(prof, 2.0, cap, 10, 1.0, 0.1)

    def test_j0_formula_and_alpha_zero(self):
        prof = scalar_profile()
        var_term, alpha, delta, c_eps = 0.3, 0.1, 0.05, 2.0
        log2d = math.log(2.0 / delta)
        expected = D1 * math.sqrt(var_term * log2d) + alpha * math.sqrt(
            1.0 + math.log(1.0 / (prof.a * alpha))
        ) * d2_constant(prof, c_eps) * log2d**1.5
        assert j0_hp_bound(var_term, prof, alpha, delta, c_eps) == pytest.approx(
            expected, rel=1e-12
        )
        only_main = j0_hp_bound(var_term, prof, 0.0, delta, c_eps)
        assert only_main == pytest.approx(D1 * math.sqrt(var_term * log2d), rel=1e-12)

    def test_j0_windows(self):
        prof = scalar_profile()
        with pytest.raises(ValueError):
            j0_hp_bound(-0.1, prof, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError, match="a\\*alpha"):
            j0_hp_bound(0.1, prof, 3.0, 0.1, 1.0)

    def test_j1_h1_bounded_variant(self):
        prof = scalar_profile()
        alpha, delta, c_eps, p0 = 0.1, 0.05, 1.5, 4.0
        j, h = j1_h1_bounds(prof, p0, alpha, delta, c_eps)
        d3, _ = d3_constant(prof, c_eps, alpha)
        d4, _ = d4_constant(prof, c_eps, alpha, p0)
        log1d = math.log(1.0 / delta)
        assert j == pytest.approx(math.e * d3 * alpha * log1d**2, rel=1e-12)
        assert h == pytest.approx(d4 * alpha * p0**2 * delta ** (-1.0 / p0), rel=1e-12)

    def test_j1_h1_delta_window(self):
        prof = scalar_profile()
        with pytest.raises(ValueError):
            j1_h1_bounds(prof, 2.0, 0.1, 0.5, 1.0)


class TestCompositeBound:
    def iid_setup(self):
        model = bounded_factor_model(
            np.array([[0.5]]), np.zeros(1), np.array([[1.0]]), 0.1, 1.0
        )
        profile = spectral_profile(model.abar, model.c_a)
        return model, profile

    def test_parts_sum_bit_exactly(self):
        model, profile = self.iid_setup()
        report = composite_hp_bound(
            profile, model, 4.0, 0.05, 500, np.array([1.0]), 0.01
        )
        total = 0.0
        for v in report.parts.values():
            total += v
        assert total == report.value
        assert set(report.parts) == {"j0_main", "j0_remainder", "j1_h1", "transient"}

    def test_flags_and_inputs_recorded(self):
        model, profile = self.iid_setup()
        report = composite_hp_bound(
            profile, model, 4.0, 0.05, 500, np.array([1.0]), 0.01
        )
        assert FLAG_D1_EXPONENT in report.flags
        assert FLAG_CONFIDENCE in report.flags
        # scalar profile: the degenerate-tail fallback must be declared
        assert FLAG_D3_STEP_FACTOR in report.flags
        assert report.inputs["alpha"] == 0.05
        assert report.inputs["n"] == 500.0
        assert report.name == "composite_iid"
        for key in ("d1", "d2", "d3", "d4", "c_eps", "sigma_quad"):
            assert key in report.constants

    def test_stepsize_cap_error_names_the_cap(self):
        model, profile = self.iid_setup()
        with pytest.raises(ValueError, match=r"alpha_p_inf\(p0="):
            composite_hp_bound(profile, model, 4.0, 0.5, 100, np.array([1.0]), 0.01)


    def test_u_must_be_unit(self):
        model, profile = self.iid_setup()
        with pytest.raises(ValueError, match="unit vector"):
            composite_hp_bound(
                profile, model, 4.0, 0.05, 100, np.array([1.0]), 0.01,
                u=np.array([2.0]),
            )

    def test_delta_window(self):
        model, profile = self.iid_setup()
        with pytest.raises(ValueError):
            composite_hp_bound(profile, model, 4.0, 0.05, 100, np.array([1.0]), 0.3)

    def test_start_at_fixed_point_has_pure_noise_transient(self):
        model, profile = self.iid_setup()
        report = composite_hp_bound(
            profile, model, 4.0, 0.05, 0, model.theta_star, 0.01
        )
        # n = 0 and theta0 = theta*: the transient is the noise envelope alone
        decay_term = D1 * math.sqrt(
            0.05
            * (profile.kappa_q / profile.a)
            * spectral_norm(model.sigma_eps_exact)
            * math.log(2.0 / 0.01)
        )
        assert report.parts["transient"] == pytest.approx(decay_term, rel=1e-12)


class TestBoundReport:
    def test_rejects_mismatched_parts(self):
        with pytest.raises(ValueError, match="parts sum"):
            BoundReport(name="x", value=1.0, parts={"a": 0.25, "b": 0.5})

    def test_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            BoundReport(name="x", value=-1.0)
        with pytest.raises(ValueError):
            BoundReport(name="x", value=math.inf)


class TestSigmaGapBound:
    def test_scalar_closed_form_ratio(self):
        # scalar: gap = alpha*sigma/(2(2 - alpha*abar)), cap = alpha*sigma/2;
        # dominance with equality only as alpha*abar -> 1 (the cap is tight).
        prof = spectral_profile(np.array([[1.0]]), 1.0)
        sig = solve_sigma(prof.abar, np.eye(1))
        for alpha in (0.1, 0.5, 0.9):
            sig_alpha = solve_riccati(prof.abar, np.eye(1), alpha)
            gap = abs(sig_alpha[0, 0] - sig[0, 0])
            cap = sigma_gap_bound(prof.abar, sig, prof, alpha)
            assert gap == pytest.approx(alpha / (2.0 * (2.0 - alpha)), rel=1e-12)
            assert cap == pytest.approx(alpha / 2.0, rel=1e-12)
            assert gap <= cap * (1 + 1e-12)

    def test_dominates_true_gap_on_random_instances(self):
        for trial in range(40):
            gen = stream(808, trial)
            dim = 1 + trial % 6
            g = gen.standard_normal((dim, dim))
            r = gen.standard_normal((dim, dim))
            abar = g @ g.T / dim + 0.1 * np.eye(dim) + 0.5 * (r - r.T)
            w = gen.standard_normal((dim, dim))
            sigma_eps = w @ w.T / dim + 0.1 * np.eye(dim)
            prof = spectral_profile(abar, 2.0 * spectral_norm(abar))
            sig = solve_sigma(abar, sigma_eps)
            for frac in (0.25, 1.0):
                alpha = frac * prof.alpha_inf
                sig_alpha = solve_riccati(abar, sigma_eps, alpha)
                gap = q_norm_mat(sig_alpha - sig, prof.q)
                cap = sigma_gap_bound(abar, sig, prof, alpha)
                assert gap <= cap * (1 + 1e-9)

    def test_rejects_stepsizes_outside_zero_to_alpha_inf(self):
        # past alpha_inf the cap no longer dominates: at alpha = 1.5 on the
        # scalar profile the gap is 1.5 against a cap of 0.75
        prof = spectral_profile(np.array([[1.0]]), 1.0)
        sig = solve_sigma(prof.abar, np.eye(1))
        for alpha in (-0.1, np.nextafter(prof.alpha_inf, np.inf), 1.5):
            with pytest.raises(ValueError, match=r"outside \[0, alpha_inf=1\]"):
                sigma_gap_bound(prof.abar, sig, prof, alpha)
        assert sigma_gap_bound(prof.abar, sig, prof, 0.0) == 0.0
        assert sigma_gap_bound(prof.abar, sig, prof, prof.alpha_inf) == pytest.approx(0.5)


class TestRademacherBounds:
    def test_drift_exponent_anchor(self):
        phi, alpha_bar, p_bar = rademacher_bounds(0.75, 0.1)
        expected_phi = 0.75 * math.log(1.1 / 0.9) - math.log(1.1)
        assert phi == pytest.approx(expected_phi, rel=1e-13)
        assert phi == pytest.approx(0.055192841792288505, rel=1e-12)
        # blow-up order 1 + 2(2q-1)/(alpha(1-q)) = 41 at (0.75, 0.1)
        assert p_bar == pytest.approx(41.0, rel=1e-13)
        # for q_a = 0.75 the drift exponent is positive on all of (0, 1)
        assert alpha_bar == pytest.approx(1.0 - 1e-9)

    def test_exact_moment_confirms_blowup_order(self):
        # the exact divergence root of the one-step base sits between 12 and
        # 13 for (0.75, 0.1); the closed-form order 41 is a conservative
        # certificate, and the base there is deep in the growth regime.
        chain = biased_rademacher_model(0.75)
        assert exact_product_moment(chain, 0.1, 12.0, 1) < 1.0
        assert exact_product_moment(chain, 0.1, 13.0, 1) > 1.0
        assert exact_product_moment(chain, 0.1, 41.0, 1) == pytest.approx(
            12.456272377233862, rel=1e-12
        )

    def test_windows(self):
        with pytest.raises(ValueError):
            rademacher_bounds(0.4, 0.1)
        with pytest.raises(ValueError):
            rademacher_bounds(0.75, 1.5)


class TestRademacherTailThresholds:
    def test_upper_thresholds_really_cut_the_tail(self):
        for q_a, alpha in ((0.75, 0.1), (0.6, 0.2), (0.9, 0.05)):
            phi, _, _ = rademacher_bounds(q_a, alpha)
            big_l = math.log((1 + alpha) / (1 - alpha))
            for n in (50, 300):
                floor = math.exp(-2.0 * n * (phi / big_l) ** 2)
                for delta in (0.3, 0.1, 0.01):
                    if delta < floor:
                        with pytest.raises(ValueError, match="upper-side window"):
                            rademacher_tail_thresholds(q_a, alpha, n, delta, "upper")
                        continue
                    t = rademacher_tail_thresholds(q_a, alpha, n, delta, "upper")
                    assert rademacher_exact_tail(q_a, alpha, n, t) <= delta + 1e-15

    def test_lower_thresholds_keep_mass_above(self):
        for q_a, alpha, n in ((0.75, 0.1, 400), (0.6, 0.2, 200)):
            for delta in (0.05, 0.2):
                t = rademacher_tail_thresholds(q_a, alpha, n, delta, "lower")
                assert rademacher_exact_tail(q_a, alpha, n, t) >= delta

    def test_window_floors_raise_by_name(self):
        # short horizons cannot certify very small deltas on either side
        with pytest.raises(ValueError, match="upper-side window"):
            rademacher_tail_thresholds(0.75, 0.1, 10, 0.1, "upper")
        with pytest.raises(ValueError, match="lower-side window"):
            rademacher_tail_thresholds(0.75, 0.1, 10, 0.001, "lower")
        with pytest.raises(ValueError, match="delta in \\(0, 0.5"):
            rademacher_tail_thresholds(0.75, 0.1, 100, 0.6, "lower")
        with pytest.raises(ValueError, match="side"):
            rademacher_tail_thresholds(0.75, 0.1, 100, 0.1, "middle")
