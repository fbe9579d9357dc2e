"""Accuracy audit of eval_reduced, theta_char, elliptic_k and the series kernel against mpmath.

The reference is the defining series

    theta_{a,b}(u|tau) = sum_k exp(pi*i*tau*(k+a)^2 + 2*pi*i*(k+a)*(u+b))

summed term by term in mpmath, with no modular or lattice reduction, at
50 digits or more: near a cusp the value lies far below the largest
term, so the precision is doubled until the summation noise is 1e-25 of
the value.  mpmath's own jtheta serves as a check on that oracle only.

Each regime asserts a bound on the worst relative error over its seeded
points.  The bounds are the worst errors measured with the earlier
kernel (one exponential per term and a searched window), rounded up to
one significant digit; the last column is the fixed-window recurrence
kernel, whose mean error is no larger in any regime:

    regime        points  bound    earlier kernel  recurrence kernel
    default        160    5e-15    4.50e-15        4.50e-15
    stress         160    3e-13    2.70e-13        2.70e-13
    large |Im u|   160    9e-14    8.89e-14        8.86e-14
    large Re tau   160    3e-15    2.57e-15        2.63e-15
    near cusp       80    2e-12    1.02e-12        1.02e-12
    reduced cell   160    8e-16    7.58e-16        4.22e-16

"reduced cell" calls theta directly at points inside the fast-convergence
cell (Im tau >= sqrt(3)/2, |Im u| <= Im tau/2), where the kernel's fixed
window applies; every other regime calls eval_reduced.

theta_char (a, b uniform in [-1, 1]) and elliptic_k are audited over the
same regimes, with their own seeded points.  Both now go through the
reduced theta_3; before, both summed the raw series, whose absolute
certificate kept no relative accuracy next to a cusp.  The bounds in
ROUTE_BOUNDS are the reduced routes' worst errors rounded up to one
significant digit:

                  theta_char              elliptic_k
    regime        raw sum    reduced      raw sum    reduced
    default       2.76e-15   1.98e-15     3.16e-16   7.73e-16
    stress        1.10e-08   3.74e-14     4.35e-13   1.05e-13
    large |Im u|  1.52e-13   1.88e-13     3.61e-16   7.15e-16
    large Re tau  5.89e-13   3.62e-13     2.22e-13   9.55e-16
    near cusp     5.45e+73   7.21e-13     1.44e+252  1.96e-13
    reduced cell  1.76e-15   1.42e-15     4.14e-16   4.14e-16

The factors of the engine's HALF_OFFSETS identity, half-integer tau
offsets among them, come from its generated reduced trial and are each
checked against the oracle at their exact argument, 100 draws a box.
The bounds are the half-period shift route's worst errors rounded up to
one significant digit; summing at the shifted point itself instead
(w + 5/2 tau, say) was measured too, and fails the default bound:

    box       bound    shift route  summed at the shifted point
    default   2e-14    1.76e-14     3.11e-14
    stress    2e-11    1.39e-11     1.42e-11
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import mpmath
import pytest

from thetakit import (
    Characteristics,
    ModularParameter,
    big_theta,
    elliptic_k,
    eval_reduced,
    theta,
    theta_char,
    theta_product,
)
from thetakit import core
from thetakit.reduction import ModularStep, full_reduction, reduce_tau

# theta_r = sign * theta_{a,b}
_CHARS = {1: (0.5, 0.5, -1), 2: (0.5, 0.0, 1), 3: (0.0, 0.0, 1), 4: (0.0, 0.5, 1)}


def _series(a: float, b: float, u: mpmath.mpc, tau: mpmath.mpc):
    """The defining sum at the working precision and a bound on its noise."""
    t = float(tau.imag)
    y = float(u.imag)

    def log_mag(k: int) -> float:
        x = k + a
        return -math.pi * t * x * x - 2.0 * math.pi * x * y

    k0 = round(-y / t - a)
    cut = log_mag(k0) - (mpmath.mp.dps + 10) * math.log(10.0)
    ipi = 1j * mpmath.pi
    w = u + b
    total = mpmath.mpc(0)
    mags = mpmath.mpf(0)
    count = 0
    for step in (1, -1):
        k = k0 if step == 1 else k0 - 1
        while (k - k0) * step < 3 or log_mag(k) >= cut:
            x = k + mpmath.mpf(a)
            term = mpmath.exp(ipi * (tau * x * x + 2 * x * w))
            total += term
            mags += abs(term)
            count += 1
            k += step
    return total, 10 * count * mags * mpmath.mpf(10) ** -mpmath.mp.dps


def reference_char(a: float, b: float, u, tau: complex, sign: int = 1) -> mpmath.mpc:
    dps = 50
    while dps <= 3200:
        with mpmath.workdps(dps):
            value, noise = _series(a, b, mpmath.mpc(u), mpmath.mpc(tau))
            if noise <= mpmath.mpf(10) ** -25 * abs(value):
                return sign * value
        dps *= 2
    raise AssertionError(f"oracle did not converge at ({u!r}, {tau!r})")


def reference(r: int, u, tau: complex) -> mpmath.mpc:
    a, b, sign = _CHARS[r]
    return reference_char(a, b, u, tau, sign)


def reference_k(tau: complex) -> mpmath.mpc:
    """K = (pi/2)*theta_3(0|tau)^2."""
    t3 = reference(3, 0j, tau)
    with mpmath.workdps(50):
        return mpmath.pi / 2 * t3 * t3


def rel_error(value: complex, ref: mpmath.mpc) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpc(value) - ref) / abs(ref))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _box_u(rng):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _default_tau(rng):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))


def _default(rng):
    return _box_u(rng), _default_tau(rng)


def _stress(rng):
    tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.1))
    return rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * tau, tau


def _large_im_u(rng):
    # up to 0.9 of the |Im u| where theta_r leaves the double range
    tau = _default_tau(rng)
    overflow = math.sqrt(math.log(sys.float_info.max) * tau.imag / math.pi)
    im_u = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 0.5, 0.9 * overflow)
    return complex(rng.uniform(-1.0, 1.0), im_u), tau


def _large_re_tau(rng):
    re_tau = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1.0, 1e3)
    return _box_u(rng), complex(re_tau, rng.uniform(0.5, 2.0))


def _near_cusp(rng):
    # 2e-3 .. 2e-2 from p/q, q <= 5, approached from inside the half-plane
    den = rng.randint(1, 5)
    dist = _log_uniform(rng, 2e-3, 2e-2)
    angle = rng.uniform(math.pi / 6, 5 * math.pi / 6)
    tau = rng.randint(-den, den) / den + dist * cmath.exp(1j * angle)
    return rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * tau, tau


def _reduced_cell(rng):
    while True:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        if abs(tau) >= 1.0:
            break
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.imag), tau


REGIMES = {
    "default": (_default, eval_reduced, 160, 5e-15),
    "stress": (_stress, eval_reduced, 160, 3e-13),
    "large-im-u": (_large_im_u, eval_reduced, 160, 9e-14),
    "large-re-tau": (_large_re_tau, eval_reduced, 160, 3e-15),
    "near-cusp": (_near_cusp, eval_reduced, 80, 2e-12),
    "reduced-cell": (_reduced_cell, theta, 160, 8e-16),
}


# worst relative error per regime of the two routes that now reduce theta_3
ROUTE_BOUNDS = {
    "theta_char": {
        "default": 2e-15,
        "stress": 4e-14,
        "large-im-u": 2e-13,
        "large-re-tau": 4e-13,
        "near-cusp": 8e-13,
        "reduced-cell": 2e-15,
    },
    "elliptic_k": {
        "default": 8e-16,
        "stress": 2e-13,
        "large-im-u": 8e-16,
        "large-re-tau": 1e-15,
        "near-cusp": 2e-13,
        "reduced-cell": 5e-16,
    },
}


def worst_error(regime: str, kind: str = "theta") -> float:
    """Worst relative error of theta/eval_reduced (as the regime says),
    theta_char or elliptic_k over the regime's seeded points."""
    draw, evaluate, points, _ = REGIMES[regime]
    rng = random.Random(f"accuracy:{regime}" if kind == "theta" else f"accuracy:{kind}:{regime}")
    worst = 0.0
    for i in range(points):
        u, tau = draw(rng)
        param = ModularParameter(tau)
        if kind == "theta":
            r = 1 + i % 4
            value, ref = evaluate(r, u, param), reference(r, u, tau)
        elif kind == "theta_char":
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            value, ref = theta_char(Characteristics(a, b), u, param), reference_char(a, b, u, tau)
        else:
            value, ref = elliptic_k(param), reference_k(tau)
        worst = max(worst, rel_error(value, ref))
    return worst


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_relative_error_within_regime_bound(regime):
    assert worst_error(regime) <= REGIMES[regime][3]


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("kind", sorted(ROUTE_BOUNDS))
def test_reduced_route_within_regime_bound(kind, regime):
    assert worst_error(regime, kind) <= ROUTE_BOUNDS[kind][regime]


# worst relative error of the generated trial's factors at half-integer tau
# offsets, by sampling box: draws, Im tau range, bound
HALF_OFFSET_BOXES = {"default": (100, (0.5, 2.0), 2e-14), "stress": (100, (1e-3, 0.1), 2e-11)}


def half_offset_worst_error(box: str) -> float:
    """Worst relative error over the factors of the engine's HALF_OFFSETS,
    each against the series oracle at its exact argument."""
    from test_engine import HALF_OFFSETS
    from thetakit.identities.engine import _compile

    draws, (low, high), _ = HALF_OFFSET_BOXES[box]
    trial = _compile(HALF_OFFSETS).trial
    factors = dict.fromkeys(f for side in (HALF_OFFSETS.lhs, HALF_OFFSETS.rhs) for t in side for f in t.factors)
    rng = random.Random(f"accuracy:half-offsets:{box}")
    worst = 0.0
    for _ in range(draws):
        values = {n: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for n in HALF_OFFSETS.variables}
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(low, high))
        got = trial(tuple(values.values()), tau, True)
        for f, (mantissa, log_scale) in zip(factors, got):
            lf = f.argument
            with mpmath.workdps(60):
                u = mpmath.mpf(lf.const.numerator) / lf.const.denominator
                u += sum(c * mpmath.mpc(values[n]) for n, c in lf.var_coeffs)
                u += mpmath.mpf(lf.tau_coeff.numerator) / lf.tau_coeff.denominator * mpmath.mpc(tau)
            ref = reference(f.index, u, f.tau_multiplier * tau)
            with mpmath.workdps(50):
                error = abs(mpmath.mpc(mantissa) * mpmath.exp(log_scale) / ref - 1)
            worst = max(worst, float(error))
    return worst


@pytest.mark.parametrize("box", sorted(HALF_OFFSET_BOXES))
def test_half_offset_factors_within_box_bound(box):
    assert half_offset_worst_error(box) <= HALF_OFFSET_BOXES[box][2]


# worst error of exp(mu), mu = full_reduction's log multiplier, by sampling
# box: draws, Im tau range, bound (the worst over these draws, 1.66e-15 and
# 5.79e-11, rounded up to one significant digit).  In the stress box the
# walk's pi*u^2/tau terms reach ~1.6e3 in modulus, and mu's absolute error
# grows with them: exact phases are to tighten the stress bound
MULTIPLIER_BOXES = {"default": (300, (0.5, 2.0), 2e-15), "stress": (300, (1e-3, 0.1), 6e-11)}


def multiplier_worst_error(box: str) -> float:
    """Worst error of exp(full_reduction(r, u, tau).log_multiplier) against
    the same modular word and the same lattice shift (n, m) replayed in
    mpmath at 50 digits: the larger of |Re dmu|, the relative error of
    |exp(mu)|, and |Im dmu| mod 2*pi, its phase error."""
    draws, (low, high), _ = MULTIPLIER_BOXES[box]
    rng = random.Random(f"accuracy:multiplier:{box}")
    worst = 0.0
    for i in range(draws):
        r, u = 1 + i % 4, _box_u(rng)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(low, high))
        param = ModularParameter(tau)
        record = full_reduction(r, u, param)
        with mpmath.workdps(50):
            ipi = 1j * mpmath.pi
            w, t, mu = mpmath.mpc(u), mpmath.mpc(tau), mpmath.mpc(0)
            for step in reduce_tau(param)[1]:
                if step is ModularStep.S:  # tau -> -1/tau, u -> u/tau, 2 <-> 4
                    mu += -mpmath.log(-1j * t) / 2 - ipi * w * w / t + (ipi / 2 if r == 1 else 0)
                    w, t, r = w / t, -1 / t, (1, 4, 3, 2)[r - 1]
                else:  # T^k: tau -> tau + k, phase -k*pi*i/4 at 1 and 2, 3 <-> 4 for odd k
                    mu -= ipi * step / 4 if r in (1, 2) else 0
                    t, r = t + step, (1, 2, 4, 3)[r - 1] if step % 2 else r
            assert r == record.map_index(1 + i % 4)
            # the shift the double reduction chose: u' - u0 = n + m*tau'
            shift = w - mpmath.mpc(record.new_u)
            m = int(mpmath.nint(shift.imag / t.imag))
            n = int(mpmath.nint((shift - m * t).real))
            mu += -ipi * (2 * m * (w - n - m * t) + m * m * t)
            if (n % 2 == 1 and r in (1, 2)) != (m % 2 == 1 and r in (1, 4)):
                mu += ipi
            diff = mpmath.mpc(record.log_multiplier) - mu
            phase = diff.imag - 2 * mpmath.pi * mpmath.nint(diff.imag / (2 * mpmath.pi))
            worst = max(worst, float(abs(diff.real)), float(abs(phase)))
    return worst


@pytest.mark.parametrize("box", sorted(MULTIPLIER_BOXES))
def test_reduction_multiplier_within_box_bound(box):
    # the log multiplier alone, walked and centred in doubles, against the
    # exact multiplier of the same word and shift
    assert multiplier_worst_error(box) <= MULTIPLIER_BOXES[box][2]


# tau within 0.003 of the cusp at 3, where theta_char and elliptic_k (so
# big_theta), summed unreduced, lost most digits; the inputs of the
# benchmark's theta_char-near-cusp and big_theta-near-cusp reproducers
_CUSP3_TAU = 3.0018367432856192 + 0.031053782166193693j


def test_theta_char_next_to_cusp():
    a, b = 0.376154082472277, 0.7368550688760849
    u = -3.791510987973249 - 0.028242197888011137j
    value = theta_char(Characteristics(a, b), u, ModularParameter(_CUSP3_TAU))
    # 1.3e-08 from the raw sum
    assert rel_error(value, reference_char(a, b, u, _CUSP3_TAU)) <= 5e-15


def test_big_theta_next_to_cusp():
    u = 2.674817403570951e-19 + 6.193099964217826e-20j
    value = big_theta(1, u, ModularParameter(_CUSP3_TAU))
    with mpmath.workdps(50):
        arg = mpmath.mpc(u) / (2 * reference_k(_CUSP3_TAU))
    # 6.2e-04 with K from the raw sum
    assert rel_error(value, reference(1, arg, _CUSP3_TAU)) <= 2e-12


@pytest.mark.parametrize("u", [1e-9, 1e-9 + 1e-9j, 1e-12j])
def test_product_keeps_relative_accuracy_next_to_theta1_zero(u):
    # theta_product is the independent check on theta, so it must keep
    # its digits next to a zero.  As a difference of two exponentials,
    # 2*q^(1/4)*sin(pi*u) would keep only 1e-16/|u| of them at Re tau != 0
    # (1.6e-08 at u = 1e-9, 2.8e-05 at 1e-12i); sin gives 4.7e-16 at worst
    for tau in (0.3 + 1.1j, -0.45 + 0.9j):
        value = theta_product(1, u, ModularParameter(tau))
        assert rel_error(value, reference(1, u, tau)) <= 5e-16


def test_direct_theta_on_windows_over_64_terms():
    # theta summed unreduced at Im tau in [1e-3, 2.5e-3]: windows of 68 to
    # 106 terms, all on the term recurrence.  The error is absolute, per
    # theta's certificate, in units of max(1, peak term).  The bound is the
    # worst of the earlier numpy sum on these points (1.26e-13) rounded up;
    # the recurrence gives 7.7e-14
    rng = random.Random("accuracy:wide-window")
    worst = 0.0
    for i in range(80):
        tau = complex(rng.uniform(-0.5, 0.5), _log_uniform(rng, 1e-3, 2.5e-3))
        u = rng.uniform(-1.0, 1.0) + rng.uniform(-1.0, 1.0) * tau
        r = 1 + i % 4
        a0 = 0.5 if r in (1, 2) else 0.0
        param = ModularParameter(tau)
        assert core._window(param, u, a0) > 64
        peak = math.exp(core._peak_log(tau.imag, u.imag, a0))
        with mpmath.workdps(50):
            error = abs(mpmath.mpc(theta(r, u, param)) - reference(r, u, tau))
        worst = max(worst, float(error) / max(1.0, peak))
    assert worst <= 2e-13


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_oracle_agrees_with_jtheta(r):
    # jtheta multiplies theta_1, theta_2 by the principal q**(1/4); the
    # series has exp(i*pi*tau/4), a fourth root of unity away once Re tau
    # leaves (-1, 1]: tau = 2.7 + 0.9i and -5.3 + 1.1i are both outside
    rng = random.Random(f"jtheta:{r}")
    for tau in (0.3 + 0.9j, 2.7 + 0.9j, -5.3 + 1.1j):
        u = _box_u(rng)
        with mpmath.workdps(50):
            t = mpmath.mpc(tau)
            q = mpmath.exp(1j * mpmath.pi * t)
            want = mpmath.jtheta(r, mpmath.pi * mpmath.mpc(u), q)
            if r in (1, 2):
                want *= mpmath.exp(1j * mpmath.pi * t / 4) / mpmath.nthroot(q, 4)
            got = reference(r, u, tau)
            assert abs(got - want) <= mpmath.mpf(10) ** -40 * abs(want)
