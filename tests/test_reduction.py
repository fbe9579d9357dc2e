"""Modulus/argument reduction: records, words, shifts, zeros, round trips."""

import cmath
import contextlib
import functools
import hashlib
import itertools
import math
import random
import re
import signal
import sys

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from conftest import random_point, random_tau
from oracles import slow_theta, theta_char_series
from thetakit import (
    Characteristics,
    HalfPeriod,
    ModularParameter,
    ModularStep,
    apply_modular_step,
    big_theta,
    elliptic_k,
    eval_reduced,
    full_reduction,
    half_period_shift,
    reduce_tau,
    reduce_u,
    theta,
    theta_char,
    zeros_of,
)
from thetakit import reduction
from thetakit.reduction import (
    apply_word_to_tau,
    eval_reduced_product,
    identity_record,
    in_fundamental_domain,
)

PI = math.pi

# word tokens: odd and even translations, runs past the mod-8 wrap, and S
STEPS = [1, -1, 2, 7, -9, ModularStep.S]


def token_id(step):
    if step is ModularStep.S:
        return "S"
    return "T" if step == 1 else f"T^{step}"


class TestReduceTau:
    def test_pure_imaginary_below_unit_circle(self):
        reduced, word = reduce_tau(ModularParameter(0.5j))
        assert reduced.tau == 2j
        assert word == (ModularStep.S,)

    def test_single_translation(self):
        reduced, word = reduce_tau(ModularParameter(1 + 1j))
        assert reduced.tau == 1j
        assert word == (-1,)

    def test_translation_run_is_one_token(self):
        reduced, word = reduce_tau(ModularParameter(2**30 + 1.5j))
        assert word == (-(2**30),)
        assert reduced.tau == 1.5j
        # Im tau < 1 needs an inversion after the run
        _, word = reduce_tau(ModularParameter(2**30 + 0.5j))
        assert word == (-(2**30), ModularStep.S)

    def test_already_reduced_is_identity_word(self):
        reduced, word = reduce_tau(ModularParameter(0.25 + 1.5j))
        assert word == ()
        assert reduced.tau == 0.25 + 1.5j

    def test_random_round_trip(self, rng):
        for _ in range(200):
            tau = ModularParameter(complex(rng.uniform(-5, 5), rng.uniform(1e-3, 10)))
            reduced, word = reduce_tau(tau)
            assert in_fundamental_domain(reduced.tau)
            forward = apply_word_to_tau(word, tau.tau)
            assert abs(forward - reduced.tau) <= 1e-14 * (1.0 + abs(reduced.tau))

    def test_word_example_deep(self):
        tau = ModularParameter(0.3 + 0.4j)
        reduced, word = reduce_tau(tau)
        assert in_fundamental_domain(reduced.tau)
        assert ModularStep.S in word
        assert abs(apply_word_to_tau(word, tau.tau) - reduced.tau) < 1e-14


class TestModularStep:
    def test_s_fixed_point(self):
        record = apply_modular_step(ModularStep.S, 3, 0.0, ModularParameter(1j))
        assert record.new_tau.tau == 1j
        assert record.multiplier() == pytest.approx(1.0, abs=1e-15)

    def test_t_swaps_three_and_four(self):
        record = apply_modular_step(1, 3, 0.37, ModularParameter(0.9j))
        assert record.map_index(3) == 4
        assert record.multiplier() == 1.0

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_t8_is_identity(self, r):
        tau = ModularParameter(0.2 + 0.9j)
        record = apply_modular_step(8, r, 0.37, tau)
        assert record.index_map == (1, 2, 3, 4)
        assert record.multiplier() == 1.0
        assert record.new_tau.tau == tau.tau + 8

    def test_s_step_spot_check(self):
        # theta_2(0.2|2i) = exp(mu) * theta_4(0.1/i | i/2) with u' = u/tau
        tau = ModularParameter(2j)
        record = apply_modular_step(ModularStep.S, 2, 0.2, tau)
        assert record.map_index(2) == 4
        assert record.new_u == pytest.approx(0.2 / 2j)
        lhs = theta(2, 0.2, tau)
        rhs = record.multiplier() * theta(record.map_index(2), record.new_u, record.new_tau)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", STEPS, ids=token_id)
    def test_all_steps_pointwise(self, r, step, rng):
        for _ in range(25):
            tau = random_tau(rng)
            u = random_point(rng)
            record = apply_modular_step(step, r, u, tau)
            lhs = theta(r, u, tau)
            rhs = record.multiplier() * theta(record.map_index(r), record.new_u, record.new_tau)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    @pytest.mark.parametrize("token", [1.5, 0.25, "S", None, 1j, True, False])
    def test_a_token_neither_s_nor_an_int_is_refused(self, token):
        # 1.5 and 0.25 were added to tau as if they were T^k, and True and False as
        # T^1 and T^0; "S" is not ModularStep.S
        tau = ModularParameter(0.5j)
        calls = [
            lambda: reduction.apply_step_to_tau(token, 0.5j),
            lambda: apply_word_to_tau((token, ModularStep.S), 0.5j),
            lambda: apply_word_to_tau((ModularStep.S, token), 0.5j),
            lambda: apply_modular_step(token, 1, 0.3, tau),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"word token {re.escape(repr(token))} "):
                call()

    def test_mod2_relations_explicitly(self, rng):
        # forward form: theta_r(u/tau | -1/tau) = c_r * sqrt(-i*tau) * exp(pi*i*u^2/tau) * theta_{s}(u|tau)
        swaps = {1: (1, -1j), 2: (4, 1.0), 3: (3, 1.0), 4: (2, 1.0)}
        for _ in range(25):
            tau = random_tau(rng)
            u = random_point(rng)
            tv = tau.tau
            root = cmath.sqrt(-1j * tv)
            assert root.real > 0  # branch convention
            for r, (s, pref) in swaps.items():
                lhs = eval_reduced(r, u / tv, ModularParameter(-1 / tv))
                rhs = pref * root * cmath.exp(1j * PI * u * u / tv) * eval_reduced(s, u, tau)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_mod1_relations_explicitly(self, rng):
        # theta_{1,2}(u|tau+1) = e^{i*pi/4} theta_{1,2}(u|tau); theta_3 <-> theta_4
        phase = cmath.exp(0.25j * PI)
        for _ in range(25):
            tau = random_tau(rng)
            u = random_point(rng)
            shifted = ModularParameter(tau.tau + 1)
            expected = {
                1: phase * theta(1, u, tau),
                2: phase * theta(2, u, tau),
                3: theta(4, u, tau),
                4: theta(3, u, tau),
            }
            for r, want in expected.items():
                got = theta(r, u, shifted)
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


class TestReduceU:
    def test_unit_shift_sign(self):
        tau = ModularParameter(0.9j)
        _, record = reduce_u(1, 0.1 + 1.0, tau)
        assert record.multiplier() == pytest.approx(-1.0)
        assert record.new_u == pytest.approx(0.1)

    def test_tau_shift_multiplier(self):
        tau = ModularParameter(0.2 + 0.9j)
        u0 = 0.11 + 0.05j
        dec, record = reduce_u(3, u0 + tau.tau, tau)
        assert (dec.n, dec.m) == (0, 1)
        want = -1j * PI * (2 * dec.u0 + tau.tau)
        assert record.log_multiplier == pytest.approx(want, rel=1e-12)

    def test_deep_lattice_point(self):
        tau = ModularParameter(0.9j)
        u = 0.1 + 3 + 2 * tau.tau
        dec, record = reduce_u(4, u, tau)
        assert (dec.n, dec.m) == (3, 2)
        slow = slow_theta(4, u, tau.tau)
        assert slow is not None and slow.trustworthy()
        reconstructed = record.multiplier() * theta(4, dec.u0, tau)
        assert abs(reconstructed - slow.value) <= 1e-10 * abs(slow.value)

    def test_center_cell_invariant(self, rng):
        for _ in range(100):
            tau = random_tau(rng)
            u = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            dec, _ = reduce_u(rng.choice([1, 2, 3, 4]), u, tau)
            assert abs(dec.u0.real) <= 0.5 + 1e-12
            assert abs(dec.u0.imag) <= tau.tau.imag / 2 + 1e-12
            rebuilt = dec.u0 + dec.n + dec.m * tau.tau
            assert rebuilt == pytest.approx(u, abs=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_period_shift_rules_pointwise(self, r, rng):
        # the twelve one-period rules: shift by 1, by tau, and by tau+1
        sign_one = -1.0 if r in (1, 2) else 1.0
        sign_tau = -1.0 if r in (1, 4) else 1.0
        for _ in range(100):
            tau = random_tau(rng)
            u = random_point(rng)
            tv = tau.tau
            base = theta(r, u, tau)
            quasi = cmath.exp(-1j * PI * (2 * u + tv))
            scale = 1.0 + abs(base)
            assert abs(theta(r, u + 1, tau) - sign_one * base) <= 1e-11 * scale
            got_tau = theta(r, u + tv, tau)
            assert abs(got_tau - sign_tau * quasi * base) <= 1e-11 * (1.0 + abs(got_tau))
            got_both = theta(r, u + tv + 1, tau)
            assert abs(got_both - sign_one * sign_tau * quasi * base) <= 1e-11 * (1.0 + abs(got_both))


class TestHalfPeriodShift:
    def test_half_shift_to_theta1(self):
        tau = ModularParameter(1.3j)
        record = half_period_shift(2, HalfPeriod.HALF, 0.3, tau)
        assert record.map_index(2) == 1
        assert record.multiplier() == pytest.approx(-1.0)

    def test_tau_half_shift_of_theta1(self):
        tau = ModularParameter(0.1 + 1.2j)
        u = 0.2 - 0.1j
        record = half_period_shift(1, HalfPeriod.TAU_HALF, u, tau)
        assert record.map_index(1) == 4
        want = 0.5j * PI - 1j * PI * (u + tau.tau / 4)
        assert record.log_multiplier == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("which", list(HalfPeriod))
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_rules_pointwise(self, which, r, rng):
        offset = {
            HalfPeriod.HALF: lambda tv: 0.5,
            HalfPeriod.TAU_HALF: lambda tv: tv / 2,
            HalfPeriod.TAU_PLUS_ONE_HALF: lambda tv: (tv + 1) / 2,
        }[which]
        for _ in range(100):
            tau = random_tau(rng)
            u = random_point(rng)
            record = half_period_shift(r, which, u, tau)
            lhs = theta(r, u + offset(tau.tau), tau)
            rhs = record.multiplier() * theta(record.map_index(r), u, tau)
            assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))

    def test_two_half_shifts_compose_to_one_period(self, rng):
        for r in (1, 2, 3, 4):
            tau = random_tau(rng)
            u = random_point(rng)
            first = half_period_shift(r, HalfPeriod.HALF, u + 0.5, tau)
            second = half_period_shift(first.map_index(r), HalfPeriod.HALF, u, tau)
            combined = first.then(second)
            assert combined.map_index(r) == r
            sign = -1.0 if r in (1, 2) else 1.0
            assert combined.multiplier() == pytest.approx(sign)


class TestRecordAlgebra:
    def test_identity_record_is_neutral(self):
        tau = ModularParameter(1.1j)
        ident = identity_record(0.3, tau)
        step = apply_modular_step(1, 2, 0.3, tau)
        assert ident.then(step) == step

    @hsettings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    def test_composition_associative(self, r, i1, i2, i3):
        tau = ModularParameter(0.3 + 1.4j)
        u = 0.21 - 0.14j
        records = []
        cur_r, cur_u, cur_tau = r, u, tau
        for idx in (i1, i2, i3):
            rec = apply_modular_step(STEPS[idx], cur_r, cur_u, cur_tau)
            records.append(rec)
            cur_r, cur_u, cur_tau = rec.map_index(cur_r), rec.new_u, rec.new_tau
        a, b, c = records
        left = a.then(b).then(c)
        right = a.then(b.then(c))
        assert left.index_map == right.index_map
        assert left.log_multiplier == pytest.approx(right.log_multiplier, rel=1e-12, abs=1e-12)
        assert left.new_u == right.new_u and left.new_tau == right.new_tau


class TestEvalReduced:
    @pytest.mark.parametrize("period", [1000, 100_000, 2**30])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_invariant_under_eight_translations(self, r, period):
        # Re tau0 is dyadic, so tau0 + period is exact in doubles
        tau0 = 0.375 + 0.5j
        base = eval_reduced(r, 0.3 + 0.1j, ModularParameter(tau0))
        shifted = eval_reduced(r, 0.3 + 0.1j, ModularParameter(tau0 + period))
        assert abs(shifted - base) <= 1e-14 * abs(base)

    @pytest.mark.parametrize(
        "r,u,tau,value",
        [
            (1, 0.3 + 0.2j, 0.1 + 1.2j, 0.7314980853248862 + 0.3664254491518253j),
            (2, -0.7 + 1.1j, 0.31 + 0.04j, -4.100281274234863e41 - 7.657606867897449e40j),
            (3, 1.3 - 0.4j, 0.5 + 1e-3j, 8.397160715193054e164 - 8.397160715669492e164j),
            (4, 2.1 + 0.9j, 321.7 + 0.02j, 1.1039758380549651e55 + 4.23791249660557e55j),
        ],
    )
    def test_values_are_unchanged(self, r, u, tau, value):
        # pinned bit for bit: caching the tau-only part may not move a value
        assert repr(eval_reduced(r, u, ModularParameter(tau))) == repr(value)

    def test_theta1_odd_at_any_tau(self):
        for tau in (ModularParameter(1e-3j), ModularParameter(0.49 + 2e-3j)):
            assert abs(eval_reduced(1, 0.0, tau)) < 1e-12

    def test_tiny_im_tau_is_finite_and_fast(self):
        tau = ModularParameter(0.001 + 0.002j)
        value = eval_reduced(3, 0.3, tau)
        assert cmath.isfinite(value)
        # the reduced evaluation needs only a handful of series terms
        record = full_reduction(3, 0.3, tau)
        from thetakit import truncation_index

        assert truncation_index(record.new_tau, record.new_u, 0.0, 1e-15) <= 8
        # value is genuinely minuscule there; the product route confirms it
        product = eval_reduced_product(3, 0.3, tau)
        assert value == pytest.approx(product, rel=1e-10)
        # direct summation converges but cancels catastrophically: its own
        # noise floor sits far above the true value
        slow = slow_theta(3, 0.3, tau.tau)
        assert slow is not None and not slow.trustworthy()
        assert abs(value) < 1e-12 * slow.abs_sum
        # on the imaginary axis with Re tau = 0 the direct terms are all
        # positive, so the wide-window direct sum is a valid slow oracle
        # (hundreds of terms where the reduced path needs a handful)
        upright = ModularParameter(0.002j)
        got = eval_reduced(3, 0.3j, upright)
        want = theta(3, 0.3j, upright)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_matches_trustworthy_direct_summation(self, rng):
        compared = 0
        for _ in range(500):
            r = rng.choice([1, 2, 3, 4])
            tau = ModularParameter(complex(rng.uniform(-5, 5), rng.uniform(1e-3, 10)))
            u = random_point(rng)
            slow = slow_theta(r, u, tau.tau)
            if slow is None or not slow.trustworthy(1e-11):
                continue
            compared += 1
            got = eval_reduced(r, u, tau)
            assert abs(got - slow.value) <= 1e-9 * abs(slow.value)
        assert compared > 200  # the guard must not hollow out the test

    def test_zero_location_on_lattice(self):
        tau = ModularParameter(0.7j)
        z = (1 + 0.5) * tau.tau  # m = 1 in the theta_4 zero family
        scale = abs(eval_reduced(4, z + 0.1, tau))
        assert abs(eval_reduced(4, z, tau)) < 1e-10 * scale

    def test_product_route_matches_series_route(self, rng):
        for _ in range(30):
            tau = ModularParameter(complex(rng.uniform(-2, 2), rng.uniform(5e-3, 3)))
            u = random_point(rng)
            r = rng.choice([1, 2, 3, 4])
            a = eval_reduced(r, u, tau)
            b = eval_reduced_product(r, u, tau)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_product_route_at_large_reduced_im_u(self, r):
        # u' = -300i at Im tau' = 1000: sin(pi*u') and cos(pi*u') alone overflow
        tau = ModularParameter(1e-3j)
        a = eval_reduced(r, 0.3 + 0.1j, tau)
        b = eval_reduced_product(r, 0.3 + 0.1j, tau)
        assert a != 0 and abs(a - b) <= 1e-12 * abs(a)


class TestZeros:
    def test_theta1_zero_at_origin(self):
        assert zeros_of(1, ModularParameter(0.6 + 0.9j), [0], [0]) == [0j]

    def test_theta3_zero_at_center(self):
        (z,) = zeros_of(3, ModularParameter(1j), [0], [0])
        assert z == pytest.approx((1 + 1j) / 2)

    def test_theta2_row(self):
        zs = zeros_of(2, ModularParameter(1.3j), [-1, 0, 1], [0])
        assert zs == [-0.5, 0.5, 1.5]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau_value", [1j, 0.3 + 0.8j])
    def test_all_zeros_evaluate_small(self, r, tau_value):
        tau = ModularParameter(tau_value)
        nm = range(-2, 3)
        for z in zeros_of(r, tau, nm, nm):
            scale = abs(eval_reduced(r, z + 0.1, tau))
            assert abs(eval_reduced(r, z, tau)) < 1e-9 * scale


def test_full_reduction_lands_in_fast_cell(rng):
    for _ in range(100):
        tau = ModularParameter(complex(rng.uniform(-5, 5), rng.uniform(1e-3, 10)))
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        record = full_reduction(rng.choice([1, 2, 3, 4]), u, tau)
        assert in_fundamental_domain(record.new_tau.tau)
        assert abs(record.new_u.real) <= 0.5 + 1e-9
        assert abs(record.new_u.imag) <= record.new_tau.tau.imag / 2 + 1e-9


def _fold_reference(r, u, tau):
    """full_reduction written out: one apply_modular_step record per token."""
    _, word = reduce_tau(tau)
    record = identity_record(u, tau)
    cur_r = r
    for step in word:
        step_record = apply_modular_step(step, cur_r, record.new_u, record.new_tau)
        cur_r = step_record.map_index(cur_r)
        record = record.then(step_record)
    _, cell_record = reduce_u(cur_r, record.new_u, record.new_tau)
    return record.then(cell_record)


def _regime_tau(rng, regime):
    if regime == "default":
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
    if regime == "stress":
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.1))
    if regime == "cusp":  # within 2e-3 of p/q, q <= 5
        q = rng.randint(1, 5)
        cusp = rng.randint(-2 * q, 2 * q) / q
        return complex(cusp + rng.uniform(-1.4e-3, 1.4e-3), rng.uniform(1e-6, 1.4e-3))
    return complex(rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 3.0))  # large Re tau


@pytest.mark.parametrize("regime", ["default", "stress", "cusp", "large-re"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_full_reduction_equals_token_fold_bit_for_bit(r, regime):
    from thetakit.reduction import _tau_path

    rng = random.Random(f"fold:{r}:{regime}")
    for _ in range(60):
        tau = ModularParameter(_regime_tau(rng, regime))
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        want = _fold_reference(r, u, tau)
        got = full_reduction(r, u, tau)
        assert got == want
        assert repr(got) == repr(want)  # signed zeros too
        assert got.index_map == want.index_map
        hits = _tau_path.cache_info().hits
        again = full_reduction(r, u, tau)
        assert _tau_path.cache_info().hits == hits + 1
        assert again == got and repr(again) == repr(got)


def test_cache_keeps_signed_zero_re_tau_apart():
    # ModularParameter(0.5j) == ModularParameter(complex(-0.0, 0.5)), but
    # their words start from different bits
    for re_first, re_second in ((0.0, -0.0), (-0.0, 0.0)):
        for r in (1, 2, 3, 4):
            full_reduction(r, 0j, ModularParameter(complex(re_first, 0.5)))
            tau = ModularParameter(complex(re_second, 0.5))
            assert repr(full_reduction(r, 0j, tau)) == repr(_fold_reference(r, 0j, tau))


@pytest.mark.parametrize("regime", ["default", "stress", "cusp", "large-re", "zero-re"])
def test_reduce_tau_end_equals_word_applied_bit_for_bit(regime):
    # the one walk's end parameter is its own word replayed on tau
    rng = random.Random(f"walk:{regime}")
    for i in range(200):
        if regime == "zero-re":
            tau = complex((0.0, -0.0)[i % 2], rng.uniform(1e-3, 2.0))
        else:
            tau = _regime_tau(rng, regime)
        end, word = reduce_tau(ModularParameter(tau))
        assert repr(end.tau) == repr(apply_word_to_tau(word, tau)), (tau, word)


def test_tau_too_small_to_reduce_raises_value_error():
    from thetakit import Characteristics, elliptic_k, theta_char

    tau = ModularParameter(1e-310j)  # finite, but -1/tau overflows
    message = r"Im\(tau\)=1e-310 is too small to reduce: -1/tau overflows"
    for call in (
        lambda: reduce_tau(tau),
        lambda: full_reduction(3, 0.1, tau),
        lambda: eval_reduced(3, 0.1, tau),
        lambda: theta_char(Characteristics(0.5, 0.0), 0.1, tau),
        lambda: elliptic_k(tau),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # the smallest Im tau that still reduces
    end, word = reduce_tau(ModularParameter(6e-309j))
    assert word == (ModularStep.S,) and math.isfinite(end.tau.imag)


def _reference_walk(tv):
    """_walk_tau written with one _token call per token and q2 from _nome_sq."""
    from thetakit.core import _nome_sq
    from thetakit.reduction import _token

    t = tv
    tokens = []
    while True:
        shift = round(t.real)
        if shift:
            tokens.append(_token(-shift, t))
            t -= shift
        if abs(t) >= 1.0:
            return tuple(tokens), t, _nome_sq(t)
        tokens.append(_token(ModularStep.S, t))
        t = -1.0 / t
        if not cmath.isfinite(t):
            raise ValueError(f"Im(tau)={tv.imag!r} is too small to reduce: -1/tau overflows")


def _walk_pin_taus():
    rng = random.Random("walk-pin")
    taus = []
    for k in range(-20, 21):  # every shift residue mod 8, both signs
        taus += [complex(k + 0.1, 2.0), complex(k - 0.3, 0.6), complex(k + 0.45, 0.05)]
    for re_tau in (1e15, 1e15 + 0.25, 987654321.123, 2.0**52 + 1.0, -997.3, 123456.5):
        taus += [complex(re_tau, 0.7), complex(-re_tau, 0.7)]
    for sign in (1.0, -1.0):  # eval-grid's long words: 0.382 at Im 1e-3, next to +-3
        taus += [complex(sign * 0.382, 1e-3), complex(sign * 0.381966, 9.5e-4)]
        taus += [complex(sign * 3.0002, 0.004), complex(sign * 2.9975, 0.03), complex(sign * 3.003, 0.035)]
    for im_tau in (0.5, 1.0, 3.0, 1e-3):
        taus += [complex(0.0, im_tau), complex(-0.0, im_tau)]
    for regime in ("default", "stress", "cusp", "large-re"):
        taus += [_regime_tau(rng, regime) for _ in range(100)]
    return taus


def test_walk_tau_is_pinned_to_the_token_by_token_walk_bit_for_bit():
    from thetakit.reduction import _walk_tau

    residues = set()
    for tv in _walk_pin_taus():
        got = _walk_tau(tv, math.copysign(1.0, tv.real))
        assert repr(got) == repr(_reference_walk(tv)), tv  # tokens, end and q2, signed zeros too
        for step, _, const, _ in got[0]:
            if step is not ModularStep.S:
                assert type(step) is int
                assert repr(const) == repr(-0.25j * PI * (((step + 4) % 8) - 4))
                residues.add((step > 0, step % 8))
    assert len(residues) == 16


def test_walk_tau_overflow_message_is_pinned():
    from thetakit.reduction import _walk_tau

    for tv in (1e-310j, complex(-0.0, 1e-310), complex(1e-320, 1e-310)):
        with pytest.raises(ValueError) as want:
            _reference_walk(tv)
        with pytest.raises(ValueError) as got:
            _walk_tau(tv)
        assert str(got.value) == str(want.value) == "Im(tau)=1e-310 is too small to reduce: -1/tau overflows"



_I = ModularParameter(1j)
_NOT_FINITE = r"u'=\(?inf\+0(\.5)?j\)? is not finite"
_SHIFT = r"the lattice shift of u'=.* overflows doubles"


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: eval_reduced(3, 1e300j, _I), _SHIFT, id="eval_reduced-shift"),
        pytest.param(lambda: eval_reduced(1, complex("inf"), _I), _NOT_FINITE, id="eval_reduced-inf"),
        pytest.param(
            lambda: eval_reduced(2, complex("nan"), _I), r"u'=\(nan\+0j\) is not finite",
            id="eval_reduced-nan",
        ),
        pytest.param(
            lambda: theta_char(Characteristics(0.5, 0.0), 1e300j, _I), _SHIFT, id="theta_char-shift"
        ),
        pytest.param(
            lambda: theta_char(Characteristics(0.5, 0.0), complex("inf"), _I), _NOT_FINITE,
            id="theta_char-inf",
        ),
        pytest.param(lambda: full_reduction(3, 1e300j, _I), _SHIFT, id="full_reduction-shift"),
        pytest.param(lambda: reduce_u(3, complex("inf"), _I), _NOT_FINITE, id="reduce_u-inf"),
        pytest.param(lambda: eval_reduced_product(3, 1e300j, _I), _SHIFT, id="product-shift"),
        pytest.param(
            lambda: big_theta(
                2,
                5.355817839603837 + 19.73583697814024j,
                ModularParameter(22.999418910856136 + 0.004212647321610028j),
            ),
            _SHIFT,
            id="big_theta-shift",
        ),
        # tau reduces to Im tau' = 80.8, where u/(2K) needs a shift so large
        # that rounding leaves Im u0 = 6.8e38
        pytest.param(
            lambda: big_theta(
                4,
                -2.094570990978461 + 19.25462299557679j,
                ModularParameter(-17.005073413886386 + 0.009722411305512765j),
            ),
            r"rounding leaves u'=.* outside the cell \(\|Im u0\|=6\.81e\+38 > Im tau'=80\.8\)",
            id="big_theta-cell",
        ),
    ],
)
def test_unreducible_u_raises_value_error(call, message):
    with pytest.raises(ValueError, match="cannot reduce u: " + message):
        call()


# K ~ 6.5e-155 at this tau, so Theta's u = 0.1-0.3i becomes u/(2K) ~ 2.4e153,
# whose u^2/tau phase in the word overflows while the lattice shift still fits
_CUSP_TAU = ModularParameter(3.002 + 0.003j)
_CUSP_U = 1.1823766235631279e153 + 2.1242004946900013e153j
# m = 1e153: m^2 = 1e306 is a double, m^2*Im tau = 2.3e308 is not
_BIG_TAU = ModularParameter(230j)
_MULTIPLIER = r"cannot reduce u: the log multiplier of u=.* overflows doubles"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: full_reduction(3, _CUSP_U, _CUSP_TAU), id="full_reduction-word"),
        pytest.param(lambda: full_reduction(3, 2.3e155j, _BIG_TAU), id="full_reduction-shift"),
        pytest.param(lambda: reduce_u(3, 2.3e155j, _BIG_TAU), id="reduce_u-shift"),
        pytest.param(lambda: reduce_u(1, 0.3 + 2.3e155j, _BIG_TAU), id="reduce_u-shift-r1"),
        pytest.param(lambda: eval_reduced(3, _CUSP_U, _CUSP_TAU), id="eval_reduced-word"),
        pytest.param(lambda: eval_reduced(3, 2.3e155j, _BIG_TAU), id="eval_reduced-shift"),
        pytest.param(lambda: eval_reduced_product(2, _CUSP_U, _CUSP_TAU), id="product-word"),
        pytest.param(lambda: big_theta(3, 0.1 - 0.3j, _CUSP_TAU), id="big_theta-word"),
        pytest.param(
            lambda: theta_char(Characteristics(0.25, 0.75), _CUSP_U, _CUSP_TAU), id="theta_char-word"
        ),
        pytest.param(
            lambda: theta_char(Characteristics(0.0, 0.0), 2.3e155j, _BIG_TAU), id="theta_char-shift"
        ),
    ],
)
def test_overflowing_log_multiplier_raises_value_error(call):
    # these returned a record with log_multiplier inf-infj or inf+nanj, a
    # nan value, or failed in cexp with a bare "math domain error"
    with pytest.raises(ValueError, match=_MULTIPLIER):
        call()


def test_finite_log_multiplier_past_exp_range_still_saturates():
    # mu.real ~ 2.2e305 is finite: the record keeps it, the value saturates
    _, record = reduce_u(3, 4e153j, _BIG_TAU)
    assert math.isfinite(record.log_multiplier.real) and record.log_multiplier.real > 1e305
    assert cmath.isinf(eval_reduced(3, 4e153j, _BIG_TAU))


def test_shift_just_inside_double_range_still_reduces():
    # m = 1e150: m^2*tau = 1e300 is a double, and u0 lands in the cell
    record = full_reduction(3, 1e150j, ModularParameter(1j))
    assert abs(record.new_u.imag) <= 0.5 and math.isfinite(record.log_multiplier.real)


def test_peak_tie_at_huge_im_tau_follows_the_sign_of_im_u():
    # -Im u/Im tau = -1.3e-148 vanishes into a0 = -1/2, so the peak index
    # ties; the wrong side of the tie made the series step exp(2*pi*Im u) overflow
    tau = ModularParameter(-4.645303596781149 + 2.3682154996852834e204j)
    u = -4.3028179067476085e82 + 3.196840279137255e56j
    assert repr(eval_reduced(2, u, tau)) == "(-0+0j)"
    assert big_theta(2, 2.0 * elliptic_k(tau) * u, tau) == 0


def test_reduced_routes_at_huge_im_tau_stay_finite():
    # Im u up to Im tau/2 at Im tau in 1e33..1e300: the peak tie above
    # raised OverflowError in 37 of these 200 calls
    rng = random.Random("huge im tau")
    for i in range(200):
        tv = complex(rng.uniform(-5, 5), 10 ** rng.uniform(33, 300))
        im_u = rng.choice((-1, 1)) * 10 ** rng.uniform(0, math.log10(tv.imag / 2))
        u = complex(rng.uniform(-1, 1) * 10 ** rng.uniform(0, 300), im_u)
        tau = ModularParameter(tv)
        r = 1 + (i // 2) % 4
        value = eval_reduced(r, u, tau) if i % 2 else big_theta(r, u, tau)
        assert cmath.isfinite(value), (r, u, tv)


_SUBSETS = [
    tuple(r for r in (1, 2, 3, 4) if mask >> (r - 1) & 1) for mask in range(1, 16)
]


def _group_tau_u(rng, regime):
    """A (tau, u) pair of the regime; u spans the engine's sums like 2u and u+v."""
    if regime == "near-cusp":  # 2e-3..2e-2 from p/q, q <= 5
        q = rng.randint(1, 5)
        dist = rng.uniform(2e-3, 2e-2)
        angle = rng.uniform(0.05, PI - 0.05)
        tv = rng.randint(-2 * q, 2 * q) / q + cmath.rect(dist, angle)
        return tv, complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    if regime == "huge-im-tau":  # the peak-tie inputs, Im u up to Im tau/2
        tv = complex(rng.uniform(-5, 5), 10 ** rng.uniform(33, 300))
        im_u = rng.choice((-1, 1)) * 10 ** rng.uniform(0, math.log10(tv.imag / 2))
        return tv, complex(rng.uniform(-1, 1) * 10 ** rng.uniform(0, 300), im_u)
    return _regime_tau(rng, regime), complex(rng.uniform(-3, 3), rng.uniform(-3, 3))


def _assert_group_equals_singles(u, tau):
    from thetakit.reduction import _path, _reduced_theta, _reduced_thetas

    path = _path(tau)
    for subset in _SUBSETS:
        for indices in itertools.permutations(subset):
            want = [_reduced_theta(r, u, path) for r in indices]
            assert repr(_reduced_thetas(indices, u, path)) == repr(want), (indices, u, tau)


@pytest.mark.parametrize("regime", ["default", "stress", "near-cusp", "huge-im-tau"])
def test_group_kernel_is_bit_equal_to_single_index_calls(regime):
    rng = random.Random(f"group:{regime}")
    for _ in range(60):
        tv, u = _group_tau_u(rng, regime)
        _assert_group_equals_singles(u, ModularParameter(tv))


def test_group_kernel_keeps_a_non_finite_peak():
    # at Im tau = 1e300 the a0 = 1/2 peak of Im u = +-0.4 Im tau saturates
    tau = ModularParameter(1e300j)
    for u in (0.4e300j, -0.4e300j, 0.3 + 0.45e300j):
        assert not cmath.isfinite(eval_reduced(2, u, tau))
        _assert_group_equals_singles(u, tau)


@pytest.mark.parametrize("u", [1e300j, complex("inf"), complex("nan")])
def test_group_kernel_raises_the_single_index_value_error(u):
    from thetakit.reduction import _path, _reduced_theta, _reduced_thetas

    path = _path(_I)
    with pytest.raises(ValueError) as single:
        _reduced_theta(3, u, path)
    for subset in _SUBSETS:
        with pytest.raises(ValueError) as group:
            _reduced_thetas(subset, u, path)
        assert str(group.value) == str(single.value)


# tau -> the word the walk takes: the shapes the default box draws for tau
# and 2 tau, with odd and even translations
_GROUP_WORDS = {
    0.3 + 1.2j: (),
    2.3 + 1.2j: (-2,),
    -3.3 + 1.2j: (3,),
    0.5j: (ModularStep.S,),  # u/tau is exact: the edges below stay exact
    0.1 + 0.5j: (ModularStep.S,),
    0.3 + 0.5j: (ModularStep.S, 1),
    0.2 + 0.3j: (ModularStep.S, 2),
    -0.2 + 0.3j: (ModularStep.S, -2),
}


@pytest.mark.parametrize(
    "tv", list(_GROUP_WORDS), ids=lambda tv: f"{tv}:" + " ".join(map(token_id, _GROUP_WORDS[tv]))
)
def test_group_kernel_at_signed_zeros_cell_edges_and_every_parity(tv):
    from thetakit.reduction import _cell, _path, _walk

    path = _path(ModularParameter(tv))
    tokens, end, _ = path
    assert tuple(token[0] for token in tokens) == _GROUP_WORDS[tv]
    h = 0.5 * end.imag
    edges = [0.5 + 0.1j, -0.5 + 0.1j, 0.2 + h * 1j, 0.2 - h * 1j, 0.5 + h * 1j, -0.5 - h * 1j]
    # the reduced points (an inner one keeps its n and m), each one ulp past
    # the Im edges, then the u whose walk ends there: an S word divides by tau
    parity = [(n, m) for n in (-2, -1, 0, 1) for m in (-2, -1, 0, 1)]
    points = [e + n + m * end for e in [0.1 + 0.1j, *edges] for n, m in parity]
    points += [math.nextafter(h, math.inf) * 1j, math.nextafter(-h, -math.inf) * 1j]
    scale = tokens[0][1] if tokens and tokens[0][0] is ModularStep.S else 1.0
    us = [w * scale for w in points] + [
        complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.25), complex(0.25, -0.0),
    ]
    parities, on_edge = set(), 0
    for u in us:
        _assert_group_equals_singles(u, ModularParameter(tv))
        _, r, w = _walk(tokens, 3, complex(u))
        u0, n, m, _ = _cell(r, w, end)
        parities.add((n % 2, m % 2, n < 0, m < 0))
        on_edge += abs(u0.real) == 0.5 or 2.0 * abs(u0.imag) == end.imag
    assert len(parities) == 16
    assert on_edge >= len(edges)


def _scatter_call(rng, regime):
    """(r, u, tau) drawn like one eval-scatter call of the given regime."""
    r = rng.randint(1, 4)
    box_u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    default_tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
    if regime == "default":
        return r, box_u, default_tau
    if regime == "large-im-u":  # up to 0.9 of the |Im u| where theta_r overflows
        overflow = math.sqrt(math.log(sys.float_info.max) * default_tau.imag / PI)
        im_u = rng.choice((-1.0, 1.0)) * 0.5 * (0.9 * overflow / 0.5) ** rng.random()
        return r, complex(box_u.real, im_u), default_tau
    if regime == "large-re":
        re_tau = rng.choice((-1.0, 1.0)) * 1e3 ** rng.random()
        return r, box_u, complex(re_tau, default_tau.imag)
    if regime == "stress":
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.1))
    else:  # near-cusp: 2e-3..2e-2 from p/q, q <= 5
        den = rng.randint(1, 5)
        dist = 2e-3 * 10 ** rng.random()
        tau = rng.randint(-den, den) / den + dist * cmath.exp(1j * rng.uniform(PI / 6, 5 * PI / 6))
    return r, rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * tau, tau


# sha256 of the repr of eval_reduced at 300 fresh taus per regime, pinned
# before the reduced kernel stopped building a ModularParameter per path
SCATTER_BITS_SHA256 = {
    "default": "ace587edbc324689b54c385c1a9e2ac75232152c3208d497f6d81e3c42ca5404",
    "stress": "8faf3960bdcd9945a450e40928088138c952f10fe40ff035621fb6ed1be4bfdc",
    "near-cusp": "f81cbdcf04cb1cb68c96c846ab3a2345cc3269f9c4854e143de6bc45b8b349e9",
    "large-im-u": "534be36fcfb5c49919296f4ec347e172f54761c996c69502f0c5f4bb6777dd48",
    "large-re": "9129c662fb241bf74f959914f3b32d7dad7d96bc4cbb904090cf6aa58b1e8b91",
}


@pytest.mark.parametrize("regime", sorted(SCATTER_BITS_SHA256))
def test_fresh_tau_values_are_pinned(regime):
    rng = random.Random(f"scatter-pin:{regime}")
    digest = hashlib.sha256()
    for _ in range(300):
        r, u, tau = _scatter_call(rng, regime)
        digest.update(repr(eval_reduced(r, u, ModularParameter(tau))).encode())
    assert digest.hexdigest() == SCATTER_BITS_SHA256[regime]


def test_fresh_tau_in_the_cell_builds_no_modular_parameter(monkeypatch):
    from thetakit.reduction import _tau_path

    rng = random.Random("no-parameter")
    calls = [
        (rng.randint(1, 4), random_point(rng), ModularParameter(_regime_tau(rng, regime)))
        for regime in ("default", "stress", "large-re")
        for _ in range(40)
    ]
    built = []
    post_init = ModularParameter.__post_init__

    def counting(self):
        built.append(self.tau)
        post_init(self)

    monkeypatch.setattr(ModularParameter, "__post_init__", counting)
    misses = _tau_path.cache_info().misses
    for r, u, tau in calls:
        eval_reduced(r, u, tau)
    assert _tau_path.cache_info().misses == misses + len(calls)  # every tau is new
    assert built == []


@pytest.mark.parametrize(
    "tau,end",
    [
        (0.3 + 0.8j, -0.41095890410958896 + 1.095890410958904j),
        (0.33333 + 0.004j, -0.3101852012602647 + 27.777758487667725j),
        (-712.4 + 1.3j, -0.39999999999997726 + 1.3j),
        (0.5j, 2j),
    ],
)
def test_public_routes_still_return_a_modular_parameter(tau, end):
    tau = ModularParameter(tau)
    for got in (reduce_tau(tau)[0], full_reduction(2, 0.7 - 0.4j, tau).new_tau):
        assert type(got) is ModularParameter
        assert repr(got) == repr(ModularParameter(end))


# taus next to the corners +-1/2 + i*sqrt(3)/2 where |tau| and |-1/tau|
# both round to 0.9999999999999999: the walk used to take S steps there forever
_CORNER_TAUS = [
    -0.4999997847861414 + 0.8660255280381821j,
    0.4999997847861414 + 0.8660255280381821j,
    0.499999999999984 + 0.8660254037844478j,
]


@contextlib.contextmanager
def _within(seconds):
    """TimeoutError inside the block once it has run for the given seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tv", _CORNER_TAUS)
def test_walk_ends_next_to_the_corners(tv):
    from thetakit.identities import VariableBinding, catalog_by_id, evaluate_identity

    tau = ModularParameter(tv)
    u = 0.3 + 0.2j
    identity = catalog_by_id()["R.I.1"]
    binding = VariableBinding({name: u for name in identity.variables}, tau)
    with _within(1.0):
        end, word = reduce_tau(tau)
        values = [eval_reduced(r, u, tau) for r in (1, 2, 3, 4)]
        record = full_reduction(2, u, tau)
        char = theta_char(Characteristics(0.25, 0.75), u, tau)
        big = big_theta(3, u, tau)
        _, rel = evaluate_identity(identity, binding)
    assert abs(tv) < 1.0 and in_fundamental_domain(tv)
    assert word == () and end.tau == tv and record.new_tau.tau == tv
    for r, value in zip((1, 2, 3, 4), values):  # no word: the direct sum is the same series
        assert value == pytest.approx(theta(r, u, tau), rel=1e-14)
    assert char == pytest.approx(theta_char_series(0.25, 0.75, u, tv), rel=1e-13)
    assert isinstance(big, complex) and cmath.isfinite(big)
    assert rel < 1e-12


_FLOOR = math.sqrt(3.0) / 2.0  # core._CELL_IM_TAU


def _rim_points(tv):
    """u whose reduced point at tv lies on the rim Im tv/2 < |Im u0| <= Im tv.

    Only rounding puts it there: a lattice shift of up to 2^52 cells
    leaves u0 from one ulp to about a quarter of Im tv past the half-height.
    """
    from thetakit.reduction import _cell

    points = []
    for e in range(53):
        m = 2**e
        y = (m + 0.5) * tv.imag
        for k in range(-2, 3):
            u = complex(0.3 + m * tv.real, y + k * math.ulp(y))
            try:
                u0 = _cell(3, u, tv)[0]
            except ValueError:  # rounding left it past the rim
                continue
            if 2.0 * abs(u0.imag) > tv.imag:
                points.append(u)
    return points


def test_reduced_routes_sum_two_constant_windows_and_never_search(monkeypatch):
    from thetakit import core, notation
    from thetakit.reduction import _cell, _reduced_thetas

    def refuse(*args):
        raise AssertionError("a reduced route searched for its window")

    monkeypatch.setattr(core, "truncation_index", refuse)
    # ends one ulp under sqrt(3)/2: no walk reaches them, core._window's
    # proof covers them, and a path handed to the kernels may end there
    low = {}
    for x in (-0.5, 0.5, 0.2):
        end = complex(x, math.nextafter(_FLOOR, 0.0))
        low[end] = ((), end, core._nome_sq(end))
    walk = reduction._tau_path
    monkeypatch.setattr(reduction, "_tau_path", lambda tv, re_sign: low.get(tv) or walk(tv, re_sign))
    # K is cached per tau: a fresh cache, so no K from these paths outlives the test
    monkeypatch.setattr(notation, "_elliptic_k", functools.lru_cache(maxsize=16)(notation._elliptic_k.__wrapped__))
    on_edge = on_rim = 0
    # no word, a T word and an S word (u/tau is exact at 0.5i)
    for tv in [*low, 2.3 + 1.2j, 0.5j]:
        tau = ModularParameter(tv)
        path = reduction._tau_path(tv, math.copysign(1.0, tv.real))
        tokens, end, _ = path
        h = 0.5 * end.imag
        points = [0.1 + 0.1j, 0.5 + h * 1j, -0.5 - h * 1j, 0.2 + h * 1j, 0.2 - h * 1j, *_rim_points(end)[::6]]
        scale = tokens[0][1] if tokens and tokens[0][0] is ModularStep.S else 1.0
        for w in points:
            u = w * scale
            u0 = _cell(3, reduction._walk(tokens, 3, u)[2], end)[0]
            on_edge += 2.0 * abs(u0.imag) == end.imag
            on_rim += 2.0 * abs(u0.imag) > end.imag
            for r in (1, 2, 3, 4):
                eval_reduced(r, u, tau)
                big_theta(r, 0.01 * w, tau)
            theta_char(Characteristics(0.0, 0.0), u, tau)
            theta_char(Characteristics(0.25, 0.75), u, tau)
            for subset in _SUBSETS:
                _reduced_thetas(subset, u, path)
    assert on_edge >= 5 * 4 and on_rim >= 5 * 4


@pytest.mark.parametrize("tv", [0.3 + 1.2j, complex(0.5, _FLOOR), -0.2 + 3.0j])
def test_rim_values_match_the_oracle_series(tv):
    from thetakit.core import N, _series
    from thetakit.reduction import _cell, _path, _reduced_thetas

    path = _path(ModularParameter(tv))
    assert path[0] == ()  # no word: the reduced point is u0 at tv itself
    rim = _rim_points(tv)
    depth = []
    for u in rim:
        u0 = _cell(3, u, tv)[0]
        depth.append(abs(u0.imag) / tv.imag)
        values = _reduced_thetas((1, 2, 3, 4), u, path)
        for r, (value, _) in zip((1, 2, 3, 4), values):
            slow = slow_theta(r, u0, tv)
            assert abs(value - slow.value) <= slow.error_bound + 4e-15 * max(1.0, slow.abs_sum), (r, u, tv)
        # the rim window is N + 1, summed as the loop sums it
        assert repr(values[2][0]) == repr(_series(N + 1, 0.0, u0, tv, False, path[2]))
    assert len(rim) >= 5 and max(depth) > 0.55


@pytest.mark.parametrize("r", [2.0, True, False, 0, 5, "2", None])
@pytest.mark.parametrize("route", [theta, eval_reduced, full_reduction], ids=["direct", "reduced", "record"])
def test_an_index_that_is_not_an_int_in_1_to_4_is_refused(route, r):
    # at 0.3 + 0.5i the word is S T^-1, at i there is none: the same error at both
    for tv in (0.3 + 0.5j, 1j):
        with pytest.raises(ValueError, match="theta index must be"):
            route(r, 0.3, ModularParameter(tv))
