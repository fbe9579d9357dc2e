"""Notation adapters: elliptic-integral scaling, multiplicative coordinates,
and the rescaled characteristic conventions."""

import cmath
import hashlib
import math
import random

import pytest

from conftest import random_point, random_tau
from thetakit import (
    Characteristics,
    ModularParameter,
    big_theta,
    convert_characteristics,
    elliptic_k,
    eval_reduced,
    multiplicative_coords,
    theta,
    theta_char,
)
from thetakit.notation import _elliptic_k

# frozen: (pi/2) * theta_3(0|i)^2 from the 50-term series oracle
K_AT_I = 1.8540746773013725


def test_k_at_i():
    k = elliptic_k(ModularParameter(1j))
    assert k.real == pytest.approx(K_AT_I, abs=1e-12)
    assert abs(k.imag) < 1e-14


def test_big_theta_fixes_the_origin(rng):
    for _ in range(10):
        tau = random_tau(rng)
        for r in (1, 2, 3, 4):
            assert big_theta(r, 0.0, tau) == pytest.approx(theta(r, 0.0, tau), rel=1e-12, abs=1e-14)


def test_big_theta_round_trip(rng):
    for _ in range(20):
        tau = random_tau(rng)
        w = random_point(rng)
        k = elliptic_k(tau)
        got = big_theta(1, 2.0 * k * w, tau)
        want = eval_reduced(1, w, tau)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


class TestMultiplicativeCoords:
    def test_unit_argument(self):
        z, _ = multiplicative_coords(0.0, ModularParameter(1j))
        assert z == 1.0

    def test_nome_at_i(self):
        _, q = multiplicative_coords(0.0, ModularParameter(1j))
        assert q == pytest.approx(math.exp(-math.pi))
        assert q == pytest.approx(0.04321391826377224)

    def test_half_gives_minus_one(self):
        z, _ = multiplicative_coords(0.5, ModularParameter(1j))
        assert z == pytest.approx(-1.0, abs=1e-15)

    def test_nome_inside_unit_disk(self, rng):
        for _ in range(20):
            _, q = multiplicative_coords(random_point(rng), random_tau(rng))
            assert abs(q) < 1.0


class TestCharacteristicConventions:
    def test_w_zero_characteristics_is_theta3(self, rng):
        tau = random_tau(rng)
        u = random_point(rng)
        got = convert_characteristics("W", 0.0, 0.0, u, tau)
        assert got == pytest.approx(theta(3, u, tau), rel=1e-12)

    def test_hc_odd_point_vanishes(self):
        got = convert_characteristics("HC", 1.0, 1.0, 0.0, ModularParameter(0.2 + 1.1j))
        assert abs(got) < 1e-14

    def test_w_matches_plain_characteristics(self, rng):
        for _ in range(20):
            tau = random_tau(rng)
            u = random_point(rng)
            got = convert_characteristics("W", 1.0, 0.0, u, tau)
            want = theta_char(Characteristics(-0.5, 0.0), u, tau)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_hc_matches_plain_characteristics(self, rng):
        for _ in range(20):
            tau = random_tau(rng)
            u = random_point(rng)
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            got = convert_characteristics("HC", a, b, u, tau)
            want = cmath.exp(-0.5j * math.pi * a * b) * theta_char(
                Characteristics(a / 2, b / 2), u, tau
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            convert_characteristics("WW", 0.0, 0.0, 0.0, ModularParameter(1j))


def test_elliptic_k_rejects_an_underflowed_k():
    # next to this cusp theta_3(0) = 3.3e-231, so K = (pi/2)*theta_3(0)^2 is 0 in doubles
    tau = ModularParameter(31.66660672356315 + 0.0001367634137849261j)
    assert 0.0 < abs(eval_reduced(3, 0.0, tau)) < 1e-230
    with pytest.raises(ValueError, match=r"K = \(pi/2\)\*theta_3\(0\)\^2 under- or overflows"):
        elliptic_k(tau)
    with pytest.raises(ValueError, match="under- or overflows"):  # was ZeroDivisionError
        big_theta(4, 10.021257931131927 + 6.247743642203368j, tau)


class TestKCache:
    def test_second_call_at_an_equal_tau_is_a_hit(self):
        tau = ModularParameter(0.3125 + 0.8125j)
        first = elliptic_k(tau)
        hits = _elliptic_k.cache_info().hits
        again = elliptic_k(ModularParameter(0.3125 + 0.8125j))
        assert _elliptic_k.cache_info().hits == hits + 1
        t3 = eval_reduced(3, 0, tau)
        assert repr(again) == repr(first) == repr(0.5 * math.pi * t3 * t3)

    def test_signed_zero_re_tau_kept_apart(self):
        # equal complex keys: the sign of Re tau alone tells them apart
        for re_first, re_second, im in ((0.0, -0.0, 0.40625), (-0.0, 0.0, 0.59375)):
            elliptic_k(ModularParameter(complex(re_first, im)))
            misses = _elliptic_k.cache_info().misses
            tau = ModularParameter(complex(re_second, im))
            t3 = eval_reduced(3, 0, tau)
            assert repr(elliptic_k(tau)) == repr(0.5 * math.pi * t3 * t3)
            assert _elliptic_k.cache_info().misses == misses + 1

    def test_out_of_range_k_is_not_cached(self):
        tau = ModularParameter(31.66660672356315 + 0.0001367634137849261j)
        for _ in range(2):
            misses = _elliptic_k.cache_info().misses
            with pytest.raises(ValueError, match="under- or overflows"):
                elliptic_k(tau)
            assert _elliptic_k.cache_info().misses == misses + 1


# sha256 of the repr of every value below, pinned before K was cached per tau
PINNED_BITS_SHA256 = "ff19a426ce45d6735ad83d9acf717a3e03d1fd735b632cd986b3c21d699ca447"


def test_cached_per_tau_values_are_pinned_bit_for_bit():
    # tau = 1.2i, next to the cusp at 3 (Im tau = 0.03), and Re tau = +0.0
    # then -0.0; every call is made twice, so the second one hits the caches
    rng = random.Random("per-tau bits")
    taus = (1.2j, complex(3.0021, 0.03), complex(0.0, 0.5), complex(-0.0, 0.5))
    chars = (Characteristics(0.5, 0.0), Characteristics(0.25, -0.75))
    digest = hashlib.sha256()
    for tv in taus:
        points = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(8)]
        for _ in range(2):
            tau = ModularParameter(tv)
            values = [elliptic_k(tau)]
            for u in points:
                values += [big_theta(r, u, tau) for r in (1, 2, 3, 4)]
                values += [theta_char(c, u, tau) for c in chars]
            digest.update(repr(values).encode())
    assert digest.hexdigest() == PINNED_BITS_SHA256
