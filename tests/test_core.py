"""Series, product, and theta-constant evaluation against brute-force oracles."""

import cmath
import math
import os
import random
import subprocess
import sys

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
import thetakit
import thetakit.core as core
from thetakit.core import cexp
from thetakit.reduction import eval_reduced, full_reduction

# frozen 50-term direct-summation values, computed before the build
THETA3_AT_I = 1.0864348112133082
THETA3_AT_I_FOURTH = 1.3932039296856777


def test_modular_parameter_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        ModularParameter(1.0 - 0.5j)
    with pytest.raises(ValueError):
        ModularParameter(0.3)
    with pytest.raises(ValueError):
        ModularParameter(complex("inf"))


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
        n = truncation_index(ModularParameter(0.001j), 0.0, 0.0, 1e-16)
        assert n == 111

    def test_exceeding_cap_raises(self):
        # |q| = exp(-1e-5*pi): the window would need ~1,080 terms, past the 1000-term cap
        assert core._MAX_TERMS == 1000
        with pytest.raises(TruncationError, match="exceeds max_terms=1000"):
            truncation_index(ModularParameter(1e-5j), 0.0, 0.0, 1e-16)

    def test_imaginary_argument_widens_window(self):
        tau = ModularParameter(0.05j)
        base = truncation_index(tau, 0.0, 0.0, 1e-15)
        wide = truncation_index(tau, 0.9j, 0.0, 1e-15)
        assert wide > base + 10

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-15])
    def test_rejects_non_finite_or_non_positive_tol(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            truncation_index(ModularParameter(1j), 0.3, 0.0, tol)

    def test_huge_tol_at_huge_peak_still_gives_a_window(self):
        # peak ~ pi*|Im u|^2/Im tau ~ 708.8: the window target
        # 1e-15 * exp(peak) ~ 1e293 is huge but still a finite double
        tau = ModularParameter(1j)
        u = 15.02j
        peak = core._peak_log(1.0, u.imag, 0.0)
        assert 708.0 < peak < core._EXP_MAX
        n = core._window(tau, u, 0.0)
        assert n == truncation_index(tau, u, 0.0, core._TOL * math.exp(peak))
        assert isinstance(theta(3, u, tau), complex)

    def test_majorant_actually_bounds_the_tail(self, rng):
        for _ in range(25):
            tau = random_tau(rng, im=(0.2, 2.0))
            u = random_point(rng)
            a = rng.uniform(-1.0, 1.0)
            n = truncation_index(tau, u, a, 1e-14)
            t, y = tau.tau.imag, abs(u.imag)
            tail = sum(
                math.exp(-math.pi * t * (k + a - round(a)) ** 2 + 2 * math.pi * y * abs(k + a - round(a)))
                for k in list(range(n, n + 400)) + list(range(-n, -n - 400, -1))
            )
            assert tail < 1e-14


class TestFixedWindowKernel:
    """The reduced-cell window N and the peak-centred term recurrence."""

    CORNER = math.sqrt(3.0) / 2.0  # Im tau at the cell's worst corner

    def test_fixed_n_is_the_corner_window(self):
        t = self.CORNER
        tau = ModularParameter(complex(0.5, t))
        for a in (0.0, 0.5):
            assert truncation_index(tau, complex(0.3, t / 2), a, 1e-18) == core.N
        # no other a0, and no point deeper in the cell, needs more
        for a in [i / 20 for i in range(-10, 11)]:
            for im_tau in (t, 1.0, 1.5, 3.0, 10.0):
                deeper = ModularParameter(complex(0.0, im_tau))
                assert truncation_index(deeper, 0.5j * im_tau, a, 1e-18) <= core.N

    def test_rim_window_n_plus_one_is_the_corner_window(self):
        # the reduced kernels sum N + 1 up to |Im u| = Im tau, and both
        # windows hold down to 2^-50 under the corner, the lowest end of the walk
        for t in (self.CORNER, self.CORNER - 2.0**-50):
            tau = ModularParameter(complex(0.5, t))
            for a in (0.0, 0.5):
                assert truncation_index(tau, complex(0.3, t), a, 1e-18) == core.N + 1
                assert truncation_index(tau, complex(0.3, t / 2), a, 1e-18) == core.N
        # no other a0, and no point deeper in the rim, needs more
        for a in [i / 20 for i in range(-10, 11)]:
            for im_tau in (self.CORNER - 2.0**-50, 1.0, 1.5, 3.0, 10.0):
                deeper = ModularParameter(complex(0.0, im_tau))
                for y in (im_tau, -im_tau):
                    assert truncation_index(deeper, y * 1j, a, 1e-18) <= core.N + 1

    def test_window_is_fixed_only_where_proven(self):
        t = self.CORNER
        tau = ModularParameter(complex(-0.5, t))
        u = complex(0.1, -t / 2)
        assert core._window(tau, u, 0.5) == core.N
        # |Im u| past the cell or a lower tau searches
        searched = [(tau, u * 1.01), (ModularParameter(0.5 + 0.8j), 0.3 + 0.1j)]
        for point, arg in searched:
            peak = core._peak_log(point.tau.imag, arg.imag, 0.5)
            target = core._TOL * max(1.0, math.exp(peak))
            assert core._window(point, arg, 0.5) == truncation_index(point, arg, 0.5, target)

    def test_recurrence_matches_series_oracle_at_reduced_points(self, rng):
        for _ in range(40):
            tau = random_tau(rng, im=(self.CORNER, 2.0))
            if abs(tau.tau) < 1.0:
                continue
            u = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.tau.imag)
            for r in (1, 2, 3, 4):
                got = theta(r, u, tau)
                want = theta_series(r, u, tau.tau, n=core.N)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (r, u, tau)

    def test_recurrence_matches_series_oracle_at_unreduced_points(self, rng):
        # windows of 6..64 terms.  A term k steps from the peak carries
        # about k^2 roundings in the recurrence and k^2*|tau| ulps of phase
        # in the oracle, so both agree to 4*n^2 ulps of the peak term
        eps = 2.220446049250313e-16
        for _ in range(40):
            tau = random_tau(rng, im=(0.05, 0.8))
            u = random_point(rng)
            for r in (1, 2, 3, 4):
                a0 = 0.5 if r in (1, 2) else 0.0
                n = core._window(tau, u, a0)
                assert n <= 64
                peak = math.exp(core._peak_log(tau.tau.imag, u.imag, a0))
                got = theta(r, u, tau)
                want = theta_series(r, u, tau.tau, n=n)
                assert abs(got - want) <= 4 * n * n * eps * max(1.0, peak), (r, u, tau)

    def test_reduced_im_tau_1000_finite_or_infinite_never_nan(self):
        # tau = 1e-3i reduces by one S step to Im tau' = 1000, where q^2
        # and every ratio underflow to 0
        tau = ModularParameter(1e-3j)
        for r in (1, 2, 3, 4):
            for u in (0.3 + 0.1j, -0.45 + 0.2j):
                record = full_reduction(r, u, tau)
                assert record.new_tau.tau.imag == pytest.approx(1000.0)
                r_new, u_new = record.map_index(r), record.new_u
                reduced = theta(r_new, u_new, record.new_tau)
                # the combined-exponent oracle: separate factors overflow here
                a, b, prefactor = core.INDEX_CHARACTERISTICS[r_new]
                want = prefactor * theta_char_series(a, b, u_new, record.new_tau.tau, n=core.N)
                assert reduced == pytest.approx(want, rel=1e-14)
                value = eval_reduced(r, u, tau)
                assert cmath.isfinite(value) and value != 0
        # at the cell edge |Im u| = Im tau/2 the peak term of theta_1,
        # theta_2 (x = -1/2) is exp(pi*1000/4): it saturates, the rest is finite
        far = ModularParameter(1000j)
        for sign in (1.0, -1.0):
            for r in (1, 2):
                value = theta(r, sign * 500j, far)
                assert cmath.isinf(value) and not cmath.isnan(value), (r, value)
            for r in (3, 4):
                assert cmath.isfinite(theta(r, sign * 500j, far))


def test_import_does_not_load_numpy():
    # thetakit imports no third-party package
    src = os.path.dirname(os.path.dirname(os.path.abspath(thetakit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, thetakit.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


_IMPORT_ORDER_VALUES = """
import thetakit.core as core, thetakit.notation as notation
points = [(0.3 + 0.2j, 0.3 + 0.8j), (-0.7 + 0.05j, 0.382 + 0.001j), (1e-168 + 2e-168j, 3.0002 + 0.004j)]
values = []
for u, t in points:
    tau = core.ModularParameter(t)
    for a, b in ((0.25, 0.75), (0.5, 0.5), (-1.3, 0.2)):
        values.append(core.theta_char(core.Characteristics(a, b), u, tau))
    values += [notation.big_theta(r, u, tau) for r in (1, 2, 3, 4)]
"""


@pytest.mark.parametrize("first", ["thetakit.core", "thetakit.reduction", "thetakit.notation"])
def test_values_do_not_depend_on_which_module_is_imported_first(first):
    # core reaches reduction through one module import at its end, not per call
    src = os.path.dirname(os.path.dirname(os.path.abspath(thetakit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import {first}\n{_IMPORT_ORDER_VALUES}\nprint(repr(values))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=60, capture_output=True, text=True
    ).stdout
    scope: dict = {}
    exec(_IMPORT_ORDER_VALUES, scope)
    assert out == repr(scope["values"]) + "\n"


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
        got = theta_char(Characteristics(0.0, 0.0), 0.125, tau)
        want = theta_char_series(0.0, 0.0, 0.125, tau.tau, n=200)
        assert got == pytest.approx(want, rel=1e-10)
        # theta_char reduces first; the wide window is theta's direct sum
        assert core._window(tau, 0.125 + 0j, 0.0) > 64
        assert theta(3, 0.125, tau) == pytest.approx(want, rel=1e-10)
        # r = 1, 4 take the alternating-sign recurrence; at u + 1/2 they
        # are as large as theta_2, theta_3 at u, not exponentially small
        for r in (1, 2, 3, 4):
            u = 0.125 + (0.5 if r in (1, 4) else 0.0)
            got_r = theta(r, u, tau)
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
        tol = 2 * core._TOL
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
            theta_product(3, 0.0, ModularParameter(1e-5j))

    @pytest.mark.parametrize("r,u", [(3, 15.1j), (3, 40j), (3, 250j), (2, 0.3 + 15.1j)])
    def test_overflow_raises_not_nan(self, r, u):
        # the running product saturates and a later factor made inf * 0 = nan
        with pytest.raises(ValueError, match="overflows doubles"):
            theta_product(r, u, ModularParameter(1j))

    def test_largest_finite_value_still_agrees(self):
        tau = ModularParameter(1j)
        value = theta_product(3, 15.0j, tau)
        assert value == pytest.approx(theta(3, 15.0j, tau), rel=1e-13)
        assert value.real == pytest.approx(1.0488e307, rel=1e-4)


def test_settings_reach_only_the_unreduced_routes():
    # no route takes an accuracy knob any more: the direct ones run at one
    # accuracy, whose 1000-term cap binds at tau = 1e-5i (not at 2e-5i)
    import inspect

    for name in thetakit.__all__:
        func = getattr(thetakit, name)
        if callable(func) and not inspect.isclass(func):
            assert "settings" not in inspect.signature(func).parameters, name
    tau = ModularParameter(1e-5j)
    for call in (
        lambda: theta(3, 0.1, tau),
        lambda: theta_product(3, 0.1, tau),
        lambda: theta1_prime0(tau),
        lambda: theta_constants(tau),
        lambda: gauss_product_theta4(tau),
    ):
        with pytest.raises(TruncationError):
            call()
    assert cmath.isfinite(theta(3, 0.1, ModularParameter(2e-5j)))


@pytest.mark.parametrize(
    "module",
    [
        "thetakit",
        "thetakit.core",
        "thetakit.reduction",
        "thetakit.notation",
        "thetakit.cli",
        "thetakit.identities",
        "thetakit.identities.catalog",
        "thetakit.identities.dsl",
        "thetakit.identities.engine",
    ],
)
def test_every_exported_name_resolves(module):
    import importlib

    exported = importlib.import_module(module)
    missing = [name for name in exported.__all__ if not hasattr(exported, name)]
    assert not missing, f"{module}.__all__ names {missing}"


@pytest.mark.parametrize(
    "call",
    [
        lambda: theta(3, complex(0.0, math.inf), ModularParameter(1j)),
        lambda: theta(3, math.nan, ModularParameter(1j)),
        lambda: theta(3, math.inf, ModularParameter(1j)),
        lambda: theta_product(3, math.nan, ModularParameter(1j)),
        lambda: truncation_index(ModularParameter(1j), math.inf * 1j, 0.0, 1e-15),
    ],
    ids=["theta-inf-im", "theta-nan", "theta-inf", "product-nan", "truncation-index-inf-im"],
)
def test_direct_routes_reject_a_non_finite_u(call):
    with pytest.raises(ValueError, match="u must be finite"):
        call()


class TestThetaConstants:
    def test_self_dual_point(self):
        _, c2, c3, c4 = theta_constants(ModularParameter(1j))
        assert c2 == pytest.approx(c4, rel=1e-12)
        assert c3.real == pytest.approx(THETA3_AT_I, abs=1e-12)
        fourth = eval_reduced(3, 0.0, ModularParameter(1j)) ** 4
        assert fourth.real == pytest.approx(THETA3_AT_I_FOURTH, abs=1e-12)
        assert fourth == pytest.approx(theta_series(3, 0, 1j) ** 4, rel=1e-12)

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

    def test_paired_pass_is_bit_equal_to_theta(self, rng):
        # theta_3(0) and theta_4(0) come from one paired series pass
        for _ in range(300):
            tau = ModularParameter(complex(rng.uniform(-1, 1), 3e-5 * (10 / 3e-5) ** rng.random()))
            want = tuple(theta(r, 0.0, tau) for r in (2, 3, 4))
            assert repr(theta_constants(tau)[1:]) == repr(want), tau


def test_gauss_product_matches_series(rng):
    for _ in range(30):
        tau = random_tau(rng)
        got = gauss_product_theta4(tau)
        series = theta(4, 0.0, tau)
        assert abs(got - series) <= 1e-12 * (1.0 + abs(series))
        want = gauss_product(tau.tau)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tau", [0.3 + 1e-310j, 1e-320j, -0.5 + 5e-324j])
def test_gauss_product_at_a_nome_that_rounds_to_one_raises_truncation_error(tau):
    # |q| == 1.0 in doubles: the tail bound would divide by 1 - |q| = 0
    assert abs(ModularParameter(tau).q) == 1.0
    with pytest.raises(TruncationError, match="too close to 1"):
        gauss_product_theta4(ModularParameter(tau))


# sha256 of the reprs below, taken before the accuracy knob was retired
UNREDUCED_BITS_SHA256 = "ebf52bb09e6e569c17119f26a639fd0095c5145a03a2baeab6bbcc83841c9c23"


def test_unreduced_values_are_pinned_bit_for_bit():
    # every direct route on seeded points: Im tau in [0.05, 2] for all of
    # them (the cell's fixed window and short searched ones), theta with
    # the theta constants at Im tau ~ 2e-3 (windows over 64 terms), and
    # theta at large |Im u|
    import hashlib

    rng = random.Random("unreduced bits")
    digest = hashlib.sha256()
    for _ in range(12):
        tau = random_tau(rng, im=(0.05, 2.0))
        u = random_point(rng)
        values = [theta(r, u, tau) for r in (1, 2, 3, 4)]
        values += [theta_product(r, u, tau) for r in (1, 2, 3, 4)]
        values += [theta1_prime0(tau), theta_constants(tau), gauss_product_theta4(tau)]
        digest.update(repr(values).encode())
    for _ in range(8):
        tau = random_tau(rng, im=(1.8e-3, 2.2e-3))
        u = rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * tau.tau
        for a0 in (0.0, 0.5):
            peak = core._peak_log(tau.tau.imag, u.imag, a0)
            assert truncation_index(tau, u, a0, 1e-15 * max(1.0, math.exp(peak))) > 64
        values = [theta(r, u, tau) for r in (1, 2, 3, 4)]
        values += [theta1_prime0(tau), theta_constants(tau)]
        digest.update(repr(values).encode())
    for _ in range(12):
        # |Im u| up to 4: peak terms far above 1, which widen the window
        tau = random_tau(rng, im=(0.05, 1.0))
        u = complex(rng.uniform(-1.0, 1.0), rng.uniform(-4.0, 4.0))
        digest.update(repr([theta(r, u, tau) for r in (1, 2, 3, 4)]).encode())
    assert digest.hexdigest() == UNREDUCED_BITS_SHA256


def _kernel_inputs():
    """Seeded (n, v, tv) inputs of core._series over the cases that steer it;
    the test takes each at a0 = 0 and 1/2."""
    rng = random.Random("kernel bits")
    for _ in range(150):
        # the reduced cell's fixed window
        tv = complex(rng.uniform(-0.5, 0.5), rng.uniform(math.sqrt(3.0) / 2.0, 3.0))
        v = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tv.imag)
        yield core.N, v, tv
    for _ in range(60):
        # searched windows, up to ~100 terms at Im tau ~ 1e-3
        tv = complex(rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3.0, -0.3))
        v = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) * tv.imag)
        n = core.truncation_index(ModularParameter(tv), v, 0.5, 1e-15)
        yield n, v, tv
    for _ in range(40):
        # the peak lies past the window edge, so k0 is clamped to +-n
        tv = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
        n = rng.randint(1, 12)
        v = complex(rng.uniform(-0.5, 0.5), rng.choice((-1, 1)) * (n + rng.uniform(1.5, 4.0)) * tv.imag)
        yield n, v, tv
    for k in range(-4, 5):
        # half-integer ties: -Im v/Im tau - a0 lands on k + 1/2 exactly, at
        # a0 = 0 in the first point and a0 = 1/2 in the second
        for im_tau in (1.0, 2.0, 0.5):
            yield core.N, complex(0.25, -(k + 0.5) * im_tau), complex(0.125, im_tau)
            yield core.N, complex(-0.25, -k * im_tau), complex(-0.125, im_tau)
        yield core.N, complex(0.3, 0.0), complex(0.1, 1.0 + 0.125 * k)  # tie at Im v = 0
    for tv in (complex(-0.0, 1.0), complex(-0.0, 0.9), complex(0.0, 1.0)):
        # a -0.0 real part in v and in tau
        for v in (complex(-0.0, 0.0), complex(-0.0, 0.3), complex(0.0, -0.0), complex(-0.0, -0.2)):
            yield core.N, v, tv
    for y in (-300.0, 300.0, -5000.0, 5000.0, -140.0):
        # a peak term past exp's range, which saturates
        yield core.N, complex(0.3, y), complex(0.2, 1.0)
        yield core.N, complex(-0.0, y), complex(-0.0, 1.0)


# sha256 of the reprs of core._series over _kernel_inputs, taken before
# the kernel rewrite that had to keep every bit
KERNEL_BITS_SHA256 = "6b0629ab2c79e6a79d85ef5eb39d4197d4ba94b0fa9e8866bd5861a3d25e689c"


def test_series_kernel_is_pinned_bit_for_bit():
    import hashlib

    digest = hashlib.sha256()
    count = 0
    for n, v, tv in _kernel_inputs():
        q2 = core._nome_sq(tv)
        for a0 in (0.0, 0.5):
            for alternating in (False, True, None):
                digest.update(repr(core._series(n, a0, v, tv, alternating, q2)).encode())
                count += 1
    assert count > 2000
    assert digest.hexdigest() == KERNEL_BITS_SHA256


def _cell_edge_inputs():
    """Seeded (v, tv) points on the edges of the fixed window's cell shapes:
    Im tv exactly _CELL_IM_TAU, Im v = +-Im tv/2 exactly (the k0 = +-1
    ties at a0 = 0), Im v = 0 (the tie at a0 = 1/2), -0.0 parts, Im tv
    ~ 300 (the outer terms underflow to zero) and 1e300 (the peak term
    saturates at a0 = 1/2)."""
    rng = random.Random("cell edges")
    floor = core._CELL_IM_TAU
    for _ in range(12):
        tv = complex(rng.choice((-0.5, 0.5, rng.uniform(-0.5, 0.5))), floor)
        for y in (rng.uniform(-0.5, 0.5) * floor, floor / 2, -floor / 2, 0.0):
            yield complex(rng.uniform(-0.5, 0.5), y), tv
    for im_tau in (floor, 1.0, 2.5, 299.75, 300.0, 1e300):
        tv = complex(rng.uniform(-0.5, 0.5), im_tau)
        for y in (im_tau / 2, -im_tau / 2, 0.0, -0.0, rng.uniform(-0.5, 0.5) * im_tau):
            yield complex(rng.uniform(-0.5, 0.5), y), tv
            yield complex(-0.0, y), complex(-0.0, im_tau)


# sha256 of the reprs below, taken on the loop kernel before the cell's
# steps were written out
CELL_EDGES_SHA256 = "5220e43e7458ec432a4a9c402ac5aa5059e44d178e1626cd737043ece021efa1"


def test_series_cell_edges_are_pinned_bit_for_bit():
    import hashlib

    from thetakit.reduction import _path, _reduced_thetas

    digest = hashlib.sha256()
    for v, tv in _cell_edge_inputs():
        q2 = core._nome_sq(tv)
        for a0 in (0.0, 0.5):
            for alternating in (False, True, None):
                digest.update(repr(core._series(core.N, a0, v, tv, alternating, q2)).encode())
        digest.update(repr(_reduced_thetas((1, 2, 3, 4), v, _path(ModularParameter(tv)))).encode())
    assert digest.hexdigest() == CELL_EDGES_SHA256


def test_paired_series_is_the_two_single_sums():
    # alternating=None returns (alternating=False, alternating=True) bit
    # for bit, on the cell's written-out walk and off it
    pairs = 0
    inputs = list(_kernel_inputs()) + [(core.N, v, tv) for v, tv in _cell_edge_inputs()]
    for n, v, tv in inputs:
        q2 = core._nome_sq(tv)
        for a0 in (0.0, 0.5):
            singles = (core._series(n, a0, v, tv, False, q2), core._series(n, a0, v, tv, True, q2))
            assert repr(core._series(n, a0, v, tv, None, q2)) == repr(singles), (n, a0, v, tv)
            pairs += 1
    assert pairs == 886
