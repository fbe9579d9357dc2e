"""Accuracy audit of eval_reduced and the series kernel against mpmath.

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
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import mpmath
import pytest

from thetakit import ModularParameter, eval_reduced, theta

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


def reference(r: int, u: complex, tau: complex) -> mpmath.mpc:
    a, b, sign = _CHARS[r]
    dps = 50
    while dps <= 3200:
        with mpmath.workdps(dps):
            value, noise = _series(a, b, mpmath.mpc(u), mpmath.mpc(tau))
            if noise <= mpmath.mpf(10) ** -25 * abs(value):
                return sign * value
        dps *= 2
    raise AssertionError(f"oracle did not converge at ({u!r}, {tau!r})")


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


def worst_error(regime: str) -> float:
    draw, evaluate, points, _ = REGIMES[regime]
    rng = random.Random(f"accuracy:{regime}")
    worst = 0.0
    for i in range(points):
        u, tau = draw(rng)
        r = 1 + i % 4
        value = evaluate(r, u, ModularParameter(tau))
        worst = max(worst, rel_error(value, reference(r, u, tau)))
    return worst


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_relative_error_within_regime_bound(regime):
    assert worst_error(regime) <= REGIMES[regime][3]


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
