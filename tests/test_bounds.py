"""Deterministic envelope and horizon arithmetic.

Everything in the bounds module is closed-form or explicit Euler, so most
assertions here are exact (1e-12 relative) rather than statistical.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaoslab.bounds import (
    BetaFit,
    HorizonEstimate,
    constant_C,
    estimate_beta,
    hierarchy_ode_solve,
    short_time_horizon,
    theorem_bound,
)


class TestConstantC:
    def test_reference_value(self):
        # 8 (1 + 2) e^6
        got = constant_C(1.0, 1.0, 1.0, 1.0)
        assert math.isclose(got, 24.0 * math.exp(6.0), rel_tol=1e-12)

    def test_zero_horizon(self):
        assert constant_C(0.7, 2.0, 3.0, 0.0) == 8.0 * 0.7

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            constant_C(-0.1, 1.0, 1.0, 1.0)


class TestTheoremBound:
    def test_reference_arithmetic(self):
        # gap = 0.9 - 1/100, exponential term ~ e^{-158} is invisible
        t = -math.log(0.9)
        got = theorem_bound(1.0, 1.0, t, 100, 1)
        want = 2.0 / 100**2 + math.exp(-2.0 * 100 * (0.9 - 0.01) ** 2)
        assert math.isclose(got, want, rel_tol=1e-12)
        assert math.isclose(got, 2e-4, rel_tol=1e-6)

    def test_diagonal_marginal(self):
        # k = n with gamma T > 0 zeroes the gap: 2C + C exactly
        assert theorem_bound(0.3, 1.0, 1.0, 20, 20) == pytest.approx(0.9, rel=1e-12)

    def test_k_range(self):
        for k in (0, 11):
            with pytest.raises(ValueError, match="1 <= k <= n"):
                theorem_bound(1.0, 1.0, 1.0, 10, k)

    def test_small_n_is_evaluated_without_a_warning(self):
        # n = 10 is below 6 e^{gamma T} = 16.3: the constants are not valid
        # there, but the expression is evaluated all the same and says nothing
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            got = theorem_bound(1.0, 1.0, 1.0, 10, 1)
        gap = math.exp(-1.0) - 0.1
        assert got == pytest.approx(2.0 / 100.0 + math.exp(-20.0 * gap * gap), rel=1e-12)

    def test_large_n_silent(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            theorem_bound(1.0, 1.0, 1.0, 30, 1)

    def test_nondecreasing_in_k(self):
        vals = [theorem_bound(2.0, 0.5, 0.5, 200, k) for k in range(1, 201)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 50.0),
        st.integers(10, 500),
    )
    def test_linear_in_constant(self, c, scale, n):
        a = theorem_bound(c, 0.5, 0.3, n, 2)
        b = theorem_bound(scale * c, 0.5, 0.3, n, 2)
        assert math.isclose(b, scale * a, rel_tol=1e-9)


class TestHierarchyCascade:
    def test_decoupled_case_exact(self):
        # gamma = 0 decouples the levels: H^k_t = H^k_0 + t source_k
        n, m, t_end = 12, 0.8, 0.5
        h0 = np.linspace(0.0, 0.2, n)
        env = hierarchy_ode_solve(n, m, 0.0, h0, t_end, 0.01)
        ks = np.arange(1, n + 1, dtype=float)
        source = ks * (ks - 1.0) ** 2 / (n - 1.0) ** 2 * m
        want = h0 + t_end * source
        want[-1] = h0[-1] + 0.5 * n * m * t_end
        assert np.allclose(env.values[:, -1], want, rtol=1e-12, atol=1e-14)
        assert env.times[-1] == t_end

    def test_top_level_pinned_everywhere(self):
        n, m = 6, 1.3
        h0 = np.full(n, 0.05)
        env = hierarchy_ode_solve(n, m, 1.0, h0, 0.4, 0.01)
        want = h0[-1] + 0.5 * n * m * env.times
        assert np.allclose(env.values[-1], want, rtol=1e-12)

    def test_monotone_in_time_and_level(self):
        n = 10
        h0 = 0.05 * (np.arange(1, n + 1) / n) ** 2
        env = hierarchy_ode_solve(n, 1.0, 1.0, h0, 0.5, 1.0 / (2 * n))
        assert np.all(np.diff(env.values, axis=1) >= -1e-15)
        # level monotonicity holds below the pinned top row only: the
        # integrated level n-1 may legitimately overshoot the closed form
        assert np.all(np.diff(env.values[:-1, -1]) >= -1e-15)

    def test_zero_data_stays_zero(self):
        env = hierarchy_ode_solve(5, 0.0, 2.0, np.zeros(5), 0.3, 0.01)
        assert np.all(env.values == 0.0)

    def test_stability_refusal(self):
        with pytest.raises(ValueError, match="unstable"):
            hierarchy_ode_solve(50, 1.0, 1.0, np.zeros(50), 1.0, 0.02)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length"):
            hierarchy_ode_solve(4, 1.0, 1.0, np.zeros(3), 1.0, 0.01)
        with pytest.raises(ValueError, match="nonnegative"):
            hierarchy_ode_solve(4, 1.0, 1.0, np.array([0.0, -0.1, 0.0, 0.0]), 1.0, 0.01)
        with pytest.raises(ValueError, match="n >= 2"):
            hierarchy_ode_solve(1, 1.0, 1.0, np.zeros(1), 1.0, 0.01)
        with pytest.raises(ValueError, match="positive"):
            hierarchy_ode_solve(4, 1.0, 1.0, np.zeros(4), -1.0, 0.01)

    def test_accessor_bounds(self):
        env = hierarchy_ode_solve(4, 1.0, 1.0, np.zeros(4), 0.1, 0.01)
        assert env.at(2) == env.values[1, -1]
        with pytest.raises(ValueError, match="1 <= k <= n"):
            env.at(5)

    def test_requested_dt_recorded(self):
        env = hierarchy_ode_solve(4, 1.0, 1.0, np.zeros(4), 0.1, 0.03)
        assert env.params["requested_dt"] == 0.03
        assert env.params["dt"] <= 0.03 + 1e-15


class TestClosedFormDominatesCascade:
    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("m", [0.1, 1.0])
    def test_domination_grid(self, n, gamma, m):
        c0, t_end = 0.05, 0.5
        h0 = np.array([c0 * k * k / (n * n) for k in range(1, n + 1)])
        cascade = hierarchy_ode_solve(n, m, gamma, h0, t_end, 1.0 / (2 * gamma * n))
        c = constant_C(c0, gamma, m, t_end)
        k_max = int(n * math.exp(-gamma * t_end))
        for k in range(1, k_max + 1):
            closed = theorem_bound(c, gamma, t_end, n, k)
            assert closed >= cascade.at(k)


class TestShortTimeHorizon:
    def test_brownian_reference_value(self):
        est = short_time_horizon(1.0, 2.0)
        assert est.delta_star == 1.0 / 32.0
        assert est.regime == "brownian"

    def test_fractional_reference_value(self):
        est = short_time_horizon(1.0, 2.0, regime="fractional", hurst=0.75, C=16.0)
        assert math.isclose(est.delta_star, 32.0**-2, rel_tol=1e-12)
        assert est.hurst == 0.75

    def test_small_kappa_clamped(self):
        # kappa below 1 must not loosen the horizon
        assert short_time_horizon(0.5, 2.0).delta_star == 1.0 / 32.0

    def test_rough_regime_falls_back(self):
        rough = short_time_horizon(1.0, 2.0, regime="fractional", hurst=0.3)
        assert rough.delta_star == short_time_horizon(1.0, 2.0).delta_star
        assert rough.regime == "fractional"

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            short_time_horizon(0.0, 1.0)
        with pytest.raises(ValueError, match="hurst"):
            short_time_horizon(1.0, 1.0, regime="fractional")
        with pytest.raises(ValueError, match="constant C"):
            short_time_horizon(1.0, 1.0, regime="fractional", hurst=0.75)
        with pytest.raises(ValueError, match="unknown regime"):
            short_time_horizon(1.0, 1.0, regime="levy")
        with pytest.raises(ValueError, match="delta_star"):
            HorizonEstimate("brownian", 1.0, 1.0, None, 0.0)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(1.0, 10.0))
    def test_monotone_in_beta_and_kappa(self, beta, bump, kappa):
        base = short_time_horizon(kappa, beta).delta_star
        assert short_time_horizon(kappa, beta + bump).delta_star <= base
        assert short_time_horizon(kappa + bump, beta).delta_star <= base


class TestBetaFit:
    def test_exponential_samples_single_beta(self):
        # E[Y^p] = p! mean^p for exponential Y, so every order solves to
        # the same beta = mean n / delta
        gen = np.random.Generator(np.random.Philox(31))
        mean, n, delta = 0.4, 16, 0.25
        y = gen.exponential(mean, size=200_000)
        fit = estimate_beta(y, n, delta)
        want = mean * n / delta
        assert fit.residual < 0.05
        assert abs(fit.beta - want) / want < 0.05
        assert set(fit.per_p) == {1, 2, 3}

    def test_moment_bound_dominates_fitted_orders(self):
        gen = np.random.Generator(np.random.Philox(32))
        y = gen.exponential(1.0, size=50_000)
        n, delta = 8, 0.5
        fit = estimate_beta(y, n, delta)
        for p in (1, 2, 3):
            emp = float(np.mean(y**p))
            # p! beta^p delta^{e p} / n^p with the Brownian exponent e = 1
            bound = math.factorial(p) * fit.beta**p * delta**p / n**p
            assert emp <= bound * (1 + 1e-12)

    def test_fractional_exponent(self):
        y = np.array([0.1, 0.2, 0.3, 0.4])
        n, delta, hurst = 10, 0.25, 0.75
        fit = estimate_beta(y, n, delta, hurst=hurst)
        for p in (1, 2, 3):
            mp = float(np.mean(y ** p))
            want = (mp / math.factorial(p)) ** (1.0 / p) * n / delta**0.5
            assert math.isclose(fit.per_p[p], want, rel_tol=1e-12)

    def test_rough_hurst_keeps_unit_exponent(self):
        y = np.array([0.1, 0.2])
        plain = estimate_beta(y, 4, 0.5)
        rough = estimate_beta(y, 4, 0.5, hurst=0.3)
        assert plain.per_p == rough.per_p

    def test_zero_samples_yield_tiny_beta(self):
        fit = estimate_beta(np.zeros(10), 4, 0.5)
        assert fit.beta > 0
        assert fit.residual == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="2 samples"):
            estimate_beta(np.array([1.0]), 4, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_beta(np.array([0.1, -0.2]), 4, 0.5)
        with pytest.raises(ValueError, match="delta"):
            estimate_beta(np.array([0.1, 0.2]), 4, 0.0)
