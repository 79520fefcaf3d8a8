"""Block-ergodicity machinery: drift constants, interpolation root,
contraction rates, composition combinatorics, and the assembled moment bound."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalab.linalg import spectral_profile
from lsalab.rosenthal import (
    B_UQ_EXACT_MAX_Q,
    ROOT_RESIDUAL_TOL,
    RosenthalConstants,
    RosenthalInputs,
    attach_wasserstein,
    b_uq_exact,
    b_uq_upper,
    composition_count,
    contraction_horizon,
    delta_alpha_root,
    geometric_sum_check,
    rosenthal_bound,
    v_geometric_constants,
    wasserstein_rates,
)
from lsalab.rng import stream


def interpolation_gap(delta, lambda_bar_m, b_m, d_bar, epsilon, alpha):
    """The fixed-point equation residual, written independently here."""
    lhs = (1.0 - epsilon) ** ((1.0 - alpha) / alpha) * (
        (lambda_bar_m + b_m + delta) / (1.0 + delta)
    )
    rhs = (lambda_bar_m * d_bar + delta) / (d_bar + delta)
    return lhs - rhs


def example_constants(epsilon=0.1):
    return v_geometric_constants(0.5, 0.1, 1, epsilon, 9.0)


class TestVGeometricConstants:
    def test_worked_example_intermediates(self):
        c = example_constants()
        # m = 1: b_m = b, lambda_bar = lambda + 2b/(1+d), b_bar = lambda*b + d
        assert c.b_m == pytest.approx(0.1, rel=1e-14)
        assert c.lambda_bar_m == pytest.approx(0.52, rel=1e-14)
        assert c.b_bar_m == pytest.approx(9.05, rel=1e-14)
        assert c.d_bar == pytest.approx(5.0, rel=1e-14)
        log_rho = (
            math.log(0.9)
            * math.log(0.52)
            / (1.0 * (math.log(0.9) + math.log(0.52) - math.log(9.05)))
        )
        assert c.rho == pytest.approx(math.exp(log_rho), rel=1e-13)
        geom = 0.5 + 0.5 / 0.5
        c_m = c.rho**-1 * geom * (1.0 + 9.05 / (0.9 * (1.0 - 0.52)))
        assert c.c_m == pytest.approx(c_m, rel=1e-13)
        assert 0.0 < c.rho < 1.0

    def test_multi_step_block_sums(self):
        c = v_geometric_constants(0.52, 0.1, 5, 0.1, 9.0)
        lam_m = 0.52**5
        b_m = 0.1 * (1 - lam_m) / (1 - 0.52)
        assert c.b_m == pytest.approx(b_m, rel=1e-13)
        assert c.lambda_bar_m == pytest.approx(lam_m + 2 * b_m / 10.0, rel=1e-13)

    def test_admissibility_guard(self):
        with pytest.raises(ValueError, match="admissibility"):
            v_geometric_constants(0.9, 1.0, 1, 0.1, 9.0)

    def test_parameter_windows(self):
        with pytest.raises(ValueError):
            v_geometric_constants(1.0, 0.1, 1, 0.1, 9.0)
        with pytest.raises(ValueError):
            v_geometric_constants(0.5, -0.1, 1, 0.1, 9.0)
        with pytest.raises(ValueError):
            v_geometric_constants(0.5, 0.1, 0, 0.1, 9.0)
        with pytest.raises(ValueError):
            v_geometric_constants(0.5, 0.1, 1, 1.0, 9.0)
        with pytest.raises(ValueError):
            v_geometric_constants(0.5, 0.1, 1, 0.1, 0.0)

    @pytest.mark.parametrize("d_level, rate", [
        (0.25, "inf"),  # log(1-eps) + log(lambda_bar) - log(b_bar) is exactly 0
        (0.25 * (1 - 1e-15), "inf"),  # a small positive sum: exp overflows
        (0.24, "129244.917"),  # a positive sum: rho_m > 1, still finite
        (0.25 * (1 + 1e-15), "0.0"),  # a small negative sum: rho_m underflows
    ], ids=["zero", "overflow", "above-one", "underflow"])
    def test_a_block_rate_outside_the_unit_interval_raises(self, d_level, rate):
        # lambda 0.5, b 0, m 1, eps 0.5: the numerator log(0.5)^2 is positive
        with pytest.raises(ValueError, match=f"block rate rho_m = {rate}.* is not in"):
            v_geometric_constants(0.5, 0.0, 1, 0.5, d_level)

    def test_a_block_rate_whose_inverse_power_overflows_raises(self):
        # a small negative sum: rho_m = 1e-300 or so, and rho_m^-2 overflows
        with pytest.raises(ValueError, match=r"rho_m\^-m = .*\^-2 overflows the float range"):
            v_geometric_constants(0.5, 0.0, 2, 0.5, 0.125 * (1 + 1e-3))


class TestDeltaAlphaRoot:
    def test_root_satisfies_equation(self):
        root = delta_alpha_root(0.52, 0.1, 5.0, 0.1, 0.9)
        assert root is not None
        assert 100.0 < root < 250.0
        resid = interpolation_gap(root, 0.52, 0.1, 5.0, 0.1, 0.9)
        assert abs(resid) <= ROOT_RESIDUAL_TOL

    def test_root_residual_across_sweep(self):
        for alpha in (0.3, 0.5, 0.7, 0.9):
            for eps in (0.05, 0.1):
                root = delta_alpha_root(0.52, 0.1, 5.0, eps, alpha)
                if root is None:
                    continue
                resid = interpolation_gap(root, 0.52, 0.1, 5.0, eps, alpha)
                assert abs(resid) <= ROOT_RESIDUAL_TOL
                assert root > 0.0

    def test_no_root_is_an_outcome(self):
        # strong minorization at small alpha: the interpolation equation has
        # no positive crossing, and that is reported as None, not an error
        assert delta_alpha_root(0.52, 0.1, 5.0, 0.5, 0.1) is None

    def test_windows(self):
        with pytest.raises(ValueError):
            delta_alpha_root(0.52, 0.1, 5.0, 0.1, 1.5)
        with pytest.raises(ValueError):
            delta_alpha_root(0.52, 0.1, 5.0, 1.5, 0.5)
        with pytest.raises(ValueError):
            delta_alpha_root(0.52, 0.1, 0.0, 0.1, 0.5)


class TestWassersteinRates:
    def manual_constants(self, delta_alpha):
        return RosenthalConstants(
            lambda_=0.5, b=0.1, m=1, epsilon=0.1, d_level=9.0,
            b_m=0.1, lambda_bar_m=0.52, b_bar_m=9.05, rho=0.88, c_m=66.0,
            d_bar=5.0, alpha=0.25, delta_alpha=delta_alpha,
        )

    def test_rate_closed_form(self):
        c = wasserstein_rates(self.manual_constants(1.0), 0.25, c_a=2.0)
        # ((0.52*5 + 1)/(5 + 1))^(0.25/1) = (3.6/6)^(1/4)
        assert c.rho_alpha == pytest.approx((3.6 / 6.0) ** 0.25, rel=1e-13)
        assert c.rho_alpha == pytest.approx(0.8801117367933934, rel=1e-12)
        # lambda = 0.5 and b = 0.1 come from the constants
        assert c.vartheta_alpha == pytest.approx(
            (1 + 0.1 / 0.5 + 1.0) ** 0.25 / c.rho_alpha, rel=1e-13
        )
        assert c.vartheta == 1.5
        assert c.kappa == pytest.approx(1.5 ** 0.75, rel=1e-13)

    def test_requires_delta_alpha(self):
        c = self.manual_constants(None)
        with pytest.raises(ValueError, match="delta_alpha"):
            wasserstein_rates(c, 0.25)

    def test_a_kappa_past_the_float_range_raises(self):
        # vartheta = 1 + 0.25e300 to the power 0.75 stays finite; at m = 2 it
        # is (2.5e299)^1.5
        assert math.isfinite(wasserstein_rates(self.manual_constants(1.0), 0.25, c_a=1e300).kappa)
        c = replace(self.manual_constants(1.0), m=2)
        with pytest.raises(ValueError, match=r"kappa = .* overflows the float range"):
            wasserstein_rates(c, 0.25, c_a=1e300)


class TestAttachWasserstein:
    def test_fills_rate_fields(self):
        c = attach_wasserstein(example_constants(), 0.9, c_a=1.0)
        assert c.alpha == 0.9
        assert c.delta_alpha is not None
        assert 0.0 < c.rho_alpha < 1.0
        assert c.vartheta_alpha > 0.0
        assert c.kappa == pytest.approx((1.0 + 0.9) ** (1 * 0.1), rel=1e-12)
        assert c.vartheta == pytest.approx(1.9)

    def test_no_root_leaves_rates_unset(self):
        c = attach_wasserstein(example_constants(epsilon=0.5), 0.1)
        assert c.alpha == 0.1
        assert c.delta_alpha is None
        assert c.rho_alpha is None
        assert c.kappa is None


class TestContractionHorizon:
    def test_defining_inequalities(self):
        for trial in range(30):
            gen = stream(31, trial)
            dim = 1 + trial % 5
            g = gen.standard_normal((dim, dim))
            r = gen.standard_normal((dim, dim))
            abar = g @ g.T / dim + 0.1 * np.eye(dim) + 0.5 * (r - r.T)
            prof = spectral_profile(abar, 2.0 * float(np.linalg.norm(abar, 2)))
            alpha = 0.5 * prof.alpha_inf
            for eps in (0.1, 0.5):
                m = contraction_horizon(prof, alpha, eps)
                rate = 1.0 - alpha * prof.a / 2.0
                assert prof.kappa_q * rate ** (m / 2.0) <= (1 - eps) * (1 + 1e-12)
                if m > 1:
                    assert prof.kappa_q * rate ** ((m - 1) / 2.0) > (1 - eps)

    def test_scalar_profile_is_immediate(self):
        prof = spectral_profile(np.array([[0.5]]), 1.0)
        # kappa = 1 <= (1 - eps)/... only if target >= 1; eps small gives 1
        assert contraction_horizon(prof, 0.1, 1e-9) == 1

    def test_windows(self):
        prof = spectral_profile(np.array([[0.5]]), 1.0)
        with pytest.raises(ValueError):
            contraction_horizon(prof, 5.0, 0.1)
        with pytest.raises(ValueError):
            contraction_horizon(prof, 0.1, 1.5)

    def test_a_rate_that_rounds_to_one_raises(self):
        # 1 - a*alpha/2 rounds to 1.0, whose log is 0
        prof = spectral_profile(np.array([[0.5]]), 1.0)
        with pytest.raises(ValueError, match=r"need 0 < 1 - a\*alpha/2 < 1, got 1.0"):
            contraction_horizon(prof, 1e-17, 0.1)


class TestCompositionCombinatorics:
    def brute_compositions(self, u, q):
        """All tuples (k_1..k_u), k_i >= 2, summing to 2q."""
        total = 2 * q
        return [
            ks
            for ks in itertools.product(range(2, total + 1), repeat=u)
            if sum(ks) == total
        ]

    def test_count_against_enumeration(self):
        for q in range(2, 7):
            for u in range(1, q):
                assert composition_count(u, q) == len(self.brute_compositions(u, q))

    def test_count_closed_form(self):
        for q in range(2, 11):
            for u in range(1, q):
                assert composition_count(u, q) == math.comb(2 * q - u - 1, u - 1)

    def test_b_uq_exact_against_enumeration(self):
        for q in range(2, 6):
            for u in range(1, q):
                for rho in (0.1, 0.5, 0.9):
                    weight = 0
                    for ks in self.brute_compositions(u, q):
                        term = 1
                        for k in ks:
                            term *= math.factorial(k) ** 2
                        weight += term
                    head = math.factorial(q) / math.factorial(u)
                    scale = (1.0 / rho) ** u * (
                        2.0 / math.log(1.0 / rho)
                    ) ** (2 * q - u)
                    expected = head * weight * scale
                    assert b_uq_exact(u, q, rho) == pytest.approx(expected, rel=1e-12)

    def test_b_uq_anchor_value(self):
        # u=1, q=2, rho=0.5: weight (4!)^2 = 576, head 2, scale 2*(2/log 2)^3
        assert b_uq_exact(1, 2, 0.5) == pytest.approx(55347.25399431608, rel=1e-12)

    def test_upper_dominates_exact(self):
        for q in range(2, 9):
            for u in range(1, q):
                for rho in (0.1, 0.5, 0.9):
                    assert b_uq_exact(u, q, rho) <= b_uq_upper(u, q, rho)

    def test_windows(self):
        with pytest.raises(ValueError, match="1 <= u <= q-1"):
            b_uq_exact(2, 2, 0.5)
        with pytest.raises(ValueError, match="1 <= u <= q-1"):
            composition_count(0, 3)
        with pytest.raises(ValueError, match="rho"):
            b_uq_exact(1, 2, 1.0)
        with pytest.raises(ValueError, match="exact-integer range"):
            b_uq_exact(1, B_UQ_EXACT_MAX_Q + 1, 0.5)

    @pytest.mark.parametrize("b_uq", [b_uq_exact, b_uq_upper])
    @pytest.mark.parametrize("u, q, rho", [
        (11, 12, 1e-30),  # (1/rho)^u overflows
        (1, 2, 5e-324),  # 1/rho is inf, or exp(log B) overflows
        (1, 12, 1 - 2**-53),  # (2/log(1/rho))^(2q-u) overflows
    ])
    def test_a_coefficient_past_the_float_range_raises(self, b_uq, u, q, rho):
        message = f"B_{{{u},{q}}}({rho}) overflows the float range"
        with pytest.raises(ValueError, match=re.escape(message)):
            b_uq(u, q, rho)
        assert math.isfinite(b_uq(u, q, 0.5))


class TestRosenthalInputs:
    def test_validation(self):
        with pytest.raises(ValueError, match="q must be"):
            RosenthalInputs(1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            RosenthalInputs(2, math.inf, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="cannot exceed"):
            RosenthalInputs(2, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0)

    def test_max_norm_consistency_is_accepted_at_equality(self):
        RosenthalInputs(2, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0)


class TestRosenthalBound:
    def rates(self):
        return RosenthalConstants(
            lambda_=0.5, b=0.1, m=1, epsilon=0.1, d_level=9.0,
            b_m=0.1, lambda_bar_m=0.52, b_bar_m=9.05, rho=0.88, c_m=66.0,
            d_bar=5.0, alpha=0.5, delta_alpha=2.0, rho_alpha=0.8,
            vartheta_alpha=1.7, kappa=1.3, vartheta=1.6,
        )

    def test_variance_only_chain(self):
        # g_nq = m_q = 0 and pi_v_alpha = 0 kill the coupling terms exactly
        inputs = RosenthalInputs(2, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0)
        got = rosenthal_bound(inputs, self.rates())
        assert got == pytest.approx(math.e * 3.0 * 4.0, rel=1e-12)

    def test_matches_naive_product_arithmetic(self):
        q = 2
        inputs = RosenthalInputs(q, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        c = self.rates()
        term1 = math.e * inputs.moment_gq * inputs.var_pi**q
        term2 = 0.0
        for u in range(1, q):
            term2 += (
                math.e
                * (8.0 * c.kappa) ** (2 * q)
                * inputs.pi_v_alpha ** (q + 1)
                * c.vartheta_alpha**q
                * b_uq_exact(u, q, c.rho_alpha)
                * inputs.g_nq**u
                * inputs.m_q ** (2 * (q - u))
            )
        term3 = (
            c.vartheta_alpha
            * inputs.m_q ** (2 * q)
            * (2 * q + 1.0) ** (2 * q)
            * (inputs.xi_v_alpha + inputs.pi_v_alpha)
            * (1.0 - c.rho_alpha ** (1.0 / (2 * q))) ** (-2 * q)
        )
        got = rosenthal_bound(inputs, c)
        assert got == pytest.approx(term1 + term2 + term3, rel=1e-10)

    def test_requires_attached_rates(self):
        inputs = RosenthalInputs(2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="Wasserstein rates"):
            rosenthal_bound(inputs, example_constants())


class TestGeometricSumCheck:
    def test_constant_stepsize_identity(self):
        resid = geometric_sum_check(np.full(50, 0.1), 2.0)
        assert resid <= 1e-12

    @given(
        trial=st.integers(0, 10_000),
        size=st.integers(1, 200),
        a=st.floats(0.1, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_identity_on_random_non_increasing_sequences(self, trial, size, a):
        gen = stream(37, trial)
        start = 0.9 / a
        decay = gen.uniform(0.8, 1.0, size=size)
        steps = start * np.cumprod(decay)
        assert geometric_sum_check(steps, a) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError, match="non-increasing"):
            geometric_sum_check(np.array([0.1, 0.2]), 1.0)
        with pytest.raises(ValueError, match="below 1/a"):
            geometric_sum_check(np.array([1.5]), 1.0)
        with pytest.raises(ValueError):
            geometric_sum_check(np.array([]), 1.0)
        with pytest.raises(ValueError):
            geometric_sum_check(np.array([0.1]), 0.0)

    @staticmethod
    def one_sequence_residual(steps, a):
        """The residual of one sequence as a plain 1-D computation."""
        factors = 1.0 - a * steps
        tail = np.ones_like(steps)
        tail[:-1] = np.cumprod(factors[::-1])[::-1][1:]
        return abs(float(np.sum(steps * tail)) - (1.0 - float(np.prod(factors))) / a)

    @given(
        trial=st.integers(0, 10_000),
        rows=st.integers(1, 12),
        size=st.integers(1, 150),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_the_one_dimensional_calls(self, trial, rows, size):
        gen = stream(41, trial)
        a = gen.uniform(0.1, 4.0, size=rows)
        start = gen.uniform(0.0, 0.99, size=rows) / a
        steps = start[:, None] * np.cumprod(gen.uniform(0.8, 1.0, size=(rows, size)), axis=1)
        stacked = geometric_sum_check(steps, a)
        assert stacked.shape == (rows,)
        for k in range(rows):
            one = geometric_sum_check(steps[k], float(a[k]))
            assert type(one) is float
            assert one == self.one_sequence_residual(steps[k], float(a[k]))
            assert np.float64(one).tobytes() == stacked[k].tobytes()

    @pytest.mark.parametrize(
        "row, a_row",
        [
            ([0.1, 0.2, 0.0], 1.0),  # increasing
            ([-0.1, -0.2, -0.3], 1.0),  # negative
            ([0.6, 0.5, 0.4], 2.0),  # first step above 1/a
            ([0.1, 0.1, 0.1], -2.0),  # a <= 0, before any stepsize check
        ],
    )
    def test_stack_raises_the_error_of_its_first_bad_row(self, row, a_row):
        good = [0.2, 0.15, 0.1]
        with pytest.raises(ValueError) as alone:
            geometric_sum_check(np.array(row), a_row)
        # a later bad row of another kind does not take precedence
        steps = np.array([good, row, good, [0.1, 0.2, 0.3]])
        with pytest.raises(ValueError) as stacked:
            geometric_sum_check(steps, np.array([1.0, a_row, 1.0, 1.0]))
        assert str(stacked.value) == str(alone.value)

    def test_stack_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            geometric_sum_check(np.full((2, 3), 0.1), np.ones(3))
        with pytest.raises(ValueError, match="shape"):
            geometric_sum_check(np.empty((2, 0)), np.ones(2))
        with pytest.raises(ValueError, match="1-D"):
            geometric_sum_check(np.full((2, 2, 2), 0.1), 1.0)
