"""Notation adapters: elliptic-integral scaling, multiplicative coordinates,
and the rescaled characteristic conventions."""

import cmath
import math

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

# frozen: (pi/2) * theta_3(0|i)^2 from the 50-term series oracle
K_AT_I = 1.8540746773013725


def test_k_at_i():
    k = elliptic_k(ModularParameter(1j)).K
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
        k = elliptic_k(tau).K
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
