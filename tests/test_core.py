"""Series, product, and theta-constant evaluation against brute-force oracles."""

import cmath
import math

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from conftest import random_point, random_tau
from oracles import (
    constant_products,
    gauss_product,
    theta1_prime0_series,
    theta_char_series,
    theta_series,
    triple_product,
)
from thetakit import (
    Characteristics,
    EvalSettings,
    ModularParameter,
    TruncationError,
    gauss_product_theta4,
    theta,
    theta1_prime0,
    theta_char,
    theta_constants,
    theta_product,
    truncation_index,
)
from thetakit.core import cexp

# frozen 50-term direct-summation value, computed before the build
THETA3_AT_I = 1.0864348112133082


def test_modular_parameter_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        ModularParameter(1.0 - 0.5j)
    with pytest.raises(ValueError):
        ModularParameter(0.3)
    with pytest.raises(ValueError):
        ModularParameter(complex("inf"))


def test_settings_validation():
    with pytest.raises(ValueError):
        EvalSettings(tol=0.0)
    with pytest.raises(ValueError):
        EvalSettings(max_terms=0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-15])
def test_settings_reject_non_finite_or_negative_tol(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        EvalSettings(tol=tol)


def test_cexp_saturates_without_nan():
    assert cexp(800 + 0j) == complex(math.inf, 0.0)
    assert math.copysign(1.0, cexp(complex(800, -0.0)).imag) == -1.0
    assert cexp(complex(800, math.pi / 4)) == complex(math.inf, math.inf)
    assert cexp(complex(800, math.pi)) == complex(-math.inf, math.inf)
    assert cexp(1 + 0j) == cmath.exp(1)


def test_nome_magnitude():
    assert abs(ModularParameter(0.3 + 0.7j).q) < 1.0
    assert ModularParameter(1j).q == pytest.approx(math.exp(-math.pi))


class TestTruncationIndex:
    def test_very_fast_nome(self):
        assert truncation_index(ModularParameter(10j), 0.0, 0.0, 1e-16) == 2

    def test_unit_tau(self):
        assert truncation_index(ModularParameter(1j), 0.0, 0.0, 1e-16) == 4

    def test_slow_nome_needs_hundreds_of_terms(self):
        # |q| = exp(-0.001*pi) ~ 0.99687: the window is large but finite
        n = truncation_index(ModularParameter(0.001j), 0.0, 0.0, 1e-16, 1000)
        assert n == 111

    def test_exceeding_cap_raises(self):
        with pytest.raises(TruncationError):
            truncation_index(ModularParameter(0.001j), 0.0, 0.0, 1e-16, 100)

    def test_imaginary_argument_widens_window(self):
        tau = ModularParameter(0.05j)
        base = truncation_index(tau, 0.0, 0.0, 1e-15, 100000)
        wide = truncation_index(tau, 0.9j, 0.0, 1e-15, 100000)
        assert wide > base + 10

    def test_majorant_actually_bounds_the_tail(self, rng):
        for _ in range(25):
            tau = random_tau(rng, im=(0.2, 2.0))
            u = random_point(rng)
            a = rng.uniform(-1.0, 1.0)
            n = truncation_index(tau, u, a, 1e-14, 10000)
            t, y = tau.tau.imag, abs(u.imag)
            tail = sum(
                math.exp(-math.pi * t * (k + a - round(a)) ** 2 + 2 * math.pi * y * abs(k + a - round(a)))
                for k in list(range(n, n + 400)) + list(range(-n, -n - 400, -1))
            )
            assert tail < 1e-14


class TestThetaChar:
    def test_spot_value_at_i(self):
        val = theta_char(Characteristics(0.0, 0.0), 0.0, ModularParameter(1j))
        assert val == pytest.approx(THETA3_AT_I, abs=1e-12)

    def test_odd_characteristic_vanishes_at_zero(self):
        val = theta_char(Characteristics(0.5, 0.5), 0.0, ModularParameter(0.3 + 0.9j))
        assert abs(val) < 1e-14

    def test_against_series_oracle(self, rng):
        for _ in range(30):
            tau = random_tau(rng)
            u = random_point(rng)
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            got = theta_char(Characteristics(a, b), u, tau)
            want = theta_char_series(a, b, u, tau.tau)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_wide_window_vectorized_path(self):
        # tau small enough that the window exceeds the loop cutoff
        tau = ModularParameter(0.002j)
        settings = EvalSettings(max_terms=100000)
        got = theta_char(Characteristics(0.0, 0.0), 0.125, tau, settings)
        want = theta_char_series(0.0, 0.0, 0.125, tau.tau, n=200)
        assert got == pytest.approx(want, rel=1e-10)
        # r = 1, 4 take the alternating-sign numpy branch; at u + 1/2 they
        # are as large as theta_2, theta_3 at u, not exponentially small
        for r in (1, 2, 3, 4):
            u = 0.125 + (0.5 if r in (1, 4) else 0.0)
            got_r = theta(r, u, tau, settings)
            want_r = theta_series(r, u, tau.tau, n=200)
            assert got_r == pytest.approx(want_r, rel=1e-10), r

    @hsettings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        ure=st.floats(-1, 1),
        uim=st.floats(-1, 1),
    )
    def test_characteristic_periodicity(self, a, b, ure, uim):
        tau = ModularParameter(0.21 + 1.1j)
        u = complex(ure, uim)
        base = theta_char(Characteristics(a, b), u, tau)
        shifted_a = theta_char(Characteristics(a + 1, b), u, tau)
        shifted_b = theta_char(Characteristics(a, b + 1), u, tau)
        # relative check with an absolute floor for bindings at exact zeros
        assert abs(shifted_a - base) <= 1e-12 * abs(base) + 1e-13
        assert abs(shifted_b - cmath.exp(2j * math.pi * a) * base) <= 1e-12 * abs(base) + 1e-13

    def test_canonical_characteristics(self, rng):
        for _ in range(20):
            a, b = rng.uniform(-4, 4), rng.uniform(-4, 4)
            u = random_point(rng)
            tau = random_tau(rng)
            canon, factor = Characteristics(a, b).canonical()
            assert 0.0 <= canon.a < 1.0 and 0.0 <= canon.b < 1.0
            full = theta_char(Characteristics(a, b), u, tau)
            via = factor * theta_char(canon, u, tau)
            assert full == pytest.approx(via, rel=1e-11, abs=1e-12)


class TestTheta:
    def test_theta1_odd_vanishes_at_zero(self):
        assert abs(theta(1, 0.0, ModularParameter(0.2 + 1.1j))) < 1e-15

    def test_far_tau_leading_terms(self):
        # theta_3 -> 1 + 2q as tau -> i*infinity; the tail beyond these
        # two terms is ~2q^4 ~ 5.6e-55, far below the 1e-20 target, but
        # near 1.0 the comparison itself is limited by ulp(1) ~ 2.2e-16
        val = theta(3, 0.0, ModularParameter(10j))
        assert val == pytest.approx(1.0 + 2.0 * math.exp(-10 * math.pi), abs=5e-16)
        dropped_tail = 2.0 * sum(math.exp(-10 * math.pi * k * k) for k in range(2, 6))
        assert dropped_tail < 1e-20

    def test_matches_characteristic_form(self, rng):
        from thetakit.core import INDEX_CHARACTERISTICS as pairing

        for _ in range(20):
            tau = random_tau(rng)
            u = random_point(rng)
            for r, (a, b, sign) in pairing.items():
                lhs = theta(r, u, tau)
                rhs = sign * theta_char(Characteristics(a, b), u, tau)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_parity(self, rng):
        tol = 2 * EvalSettings().tol
        for _ in range(100):
            tau = random_tau(rng)
            u = random_point(rng)
            scale = max(1.0, abs(theta(3, u, tau)))
            assert abs(theta(1, -u, tau) + theta(1, u, tau)) <= 2e-12 * scale + tol
            for r in (2, 3, 4):
                assert abs(theta(r, -u, tau) - theta(r, u, tau)) <= 2e-12 * scale + tol

    def test_against_series_oracle(self, rng):
        for _ in range(30):
            tau = random_tau(rng)
            u = random_point(rng)
            for r in (1, 2, 3, 4):
                got = theta(r, u, tau)
                want = theta_series(r, u, tau.tau)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestThetaProduct:
    def test_agrees_with_series(self, rng):
        for _ in range(50):
            tau = random_tau(rng, im=(0.9, 2.0))
            u = random_point(rng)
            for r in (1, 2, 3, 4):
                s = theta(r, u, tau)
                p = theta_product(r, u, tau)
                assert abs(s - p) <= 1e-11 * (1.0 + abs(s))

    def test_agrees_with_product_oracle(self):
        tau = ModularParameter(1j)
        for r in (1, 2, 3, 4):
            got = theta_product(r, 0.25, tau)
            want = triple_product(r, 0.25, tau.tau)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_sine_factor_zero(self):
        assert abs(theta_product(1, 1.0, ModularParameter(0.5j))) < 1e-14

    def test_lattice_zero_of_theta3(self):
        tau = ModularParameter(0.8j)
        assert abs(theta_product(3, 0.5 + 0.4j, tau)) < 1e-13

    def test_nome_too_close_to_one(self):
        with pytest.raises(TruncationError):
            theta_product(3, 0.0, ModularParameter(1e-5j), EvalSettings(max_terms=500))


class TestThetaConstants:
    def test_self_dual_point(self):
        _, c2, c3, c4 = theta_constants(ModularParameter(1j))
        assert c2 == pytest.approx(c4, rel=1e-12)
        assert c3.real == pytest.approx(THETA3_AT_I, abs=1e-12)

    def test_derivative_against_series_oracle(self, rng):
        for _ in range(20):
            tau = random_tau(rng)
            got = theta1_prime0(tau)
            want = theta1_prime0_series(tau.tau)
            assert got == pytest.approx(want, rel=1e-12)

    def test_constants_against_product_oracle(self, rng):
        for _ in range(20):
            tau = random_tau(rng)
            want = constant_products(tau.tau)
            got = theta_constants(tau)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-11)

    def test_product_identity_for_derivative(self, rng):
        # theta_1'(0) = pi * theta_2(0) * theta_3(0) * theta_4(0)
        for _ in range(100):
            tau = random_tau(rng)
            d1, c2, c3, c4 = theta_constants(tau)
            assert abs(d1 - math.pi * c2 * c3 * c4) <= 1e-11 * abs(d1)

    def test_fourth_power_identity(self, rng):
        # theta_3(0)^4 = theta_2(0)^4 + theta_4(0)^4
        for _ in range(100):
            tau = random_tau(rng)
            _, c2, c3, c4 = theta_constants(tau)
            assert abs(c3 ** 4 - c2 ** 4 - c4 ** 4) <= 1e-11 * abs(c3 ** 4)


def test_gauss_product_matches_series(rng):
    for _ in range(30):
        tau = random_tau(rng)
        got = gauss_product_theta4(tau)
        series = theta(4, 0.0, tau)
        assert abs(got - series) <= 1e-12 * (1.0 + abs(series))
        want = gauss_product(tau.tau)
        assert got == pytest.approx(want, rel=1e-12)
