"""Argument and modulus reduction for fast theta evaluation.

Any (u, tau) with Im(tau) > 0 is mapped into the fast-convergence
regime: tau into the classical fundamental domain |Re tau| <= 1/2,
|tau| >= 1 (so the nome satisfies |q| <= exp(-pi*sqrt(3)/2) ~ 0.0658)
by generator moves T^k: tau -> tau+k and S: tau -> -1/tau, and u into the
centred lattice cell |Re u0| <= 1/2, |Im u0| <= Im(tau)/2.  A translation
run is one word token k, so reduction cost grows with the S steps only.
_walk_tau walks a tau once, building the word's tokens and its end (a
plain complex) together; every route reads that walk, cached by
_tau_path but fresh per engine trial, and only the public routes wrap
the end in a ModularParameter.

A move, or a whole reduction, is a ThetaTransformRecord: an index
permutation plus a log-form multiplier mu with

    theta_r(u|tau) = exp(mu) * theta_{perm(r)}(u'|tau').

Multipliers are kept in log form because the lattice factor
exp(-pi*i*(2*m*u0 + m^2*tau)) overflows doubles already for moderate m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .core import (
    N,
    PI,
    ModularParameter,
    cexp,
    theta_product,
    _EXP_MAX,
    _IPI,
    _TWO_IPI,
    _check_index,
    _exp_multiplier,
    _multiplier_overflow,
    _series,
)
from .core import theta  # noqa: F401  unused; perfbench's layer tracer wraps it here

__all__ = [
    "ModularStep",
    "ModularWord",
    "HalfPeriod",
    "ThetaTransformRecord",
    "LatticeDecomposition",
    "identity_record",
    "apply_step_to_tau",
    "apply_word_to_tau",
    "reduce_tau",
    "apply_modular_step",
    "reduce_u",
    "half_period_shift",
    "full_reduction",
    "eval_reduced",
    "eval_reduced_product",
    "zeros_of",
    "in_fundamental_domain",
]


class ModularStep(str, Enum):
    """Word token S: tau -> -1/tau; every other token is an int k != 0, T^k."""

    S = "S"


_S = ModularStep.S  # a global: far cheaper to read per token than the Enum attribute

ModularWord = tuple[ModularStep | int, ...]


class HalfPeriod(str, Enum):
    """The three half-period shifts of the argument."""

    HALF = "1/2"
    TAU_HALF = "tau/2"
    TAU_PLUS_ONE_HALF = "(tau+1)/2"


_IDENT_PERM = (1, 2, 3, 4)
_T_PERM = (1, 2, 4, 3)  # tau -> tau + k swaps indices 3 and 4 for odd k
_S_PERM = (1, 4, 3, 2)  # tau -> -1/tau swaps indices 2 and 4
_HALF_IPI = 0.5j * PI
# T^k's phase at r in {1, 2} by -k mod 8: index j holds k = -j, with k reduced into [-4, 4)
_T_PHASE = tuple(-0.25j * PI * (((-j + 4) % 8) - 4) for j in range(8))


class ThetaTransformRecord(NamedTuple):
    """theta_r(u|tau) = exp(log_multiplier) * theta_{index_map[r-1]}(new_u|new_tau).

    The log multiplier is specific to the index the record was built
    for; the permutation is the full index map of the move.  Records
    compose by permutation composition and multiplier addition.
    """

    index_map: tuple[int, int, int, int]
    log_multiplier: complex
    new_u: complex
    new_tau: ModularParameter

    def map_index(self, r: int) -> int:
        return self.index_map[r - 1]

    def then(self, other: "ThetaTransformRecord") -> "ThetaTransformRecord":
        """Composite record: self followed by other (built at self's endpoint)."""
        composed = tuple(other.index_map[i - 1] for i in self.index_map)
        return ThetaTransformRecord(
            composed,
            self.log_multiplier + other.log_multiplier,
            other.new_u,
            other.new_tau,
        )

    def multiplier(self) -> complex:
        """exp(log_multiplier), saturating instead of raising on overflow."""
        return cexp(self.log_multiplier)


@dataclass(frozen=True)
class LatticeDecomposition:
    """u = u0 + n + m*tau with u0 in the centred cell."""

    u0: complex
    n: int
    m: int


def identity_record(u: complex, tau: ModularParameter) -> ThetaTransformRecord:
    return ThetaTransformRecord(_IDENT_PERM, 0j, complex(u), tau)


def apply_step_to_tau(step: ModularStep | int, tau: complex) -> complex:
    """One word token on tau (shared by apply_word_to_tau and the records);
    ValueError for a token that is neither ModularStep.S nor an int (a
    bool is not a count)."""
    if step is _S:
        return -1.0 / tau
    if not isinstance(step, int) or isinstance(step, bool):
        raise ValueError(f"word token {step!r} is neither ModularStep.S nor an int k (T^k)")
    return tau + step


def apply_word_to_tau(word: ModularWord, tau: complex) -> complex:
    for step in word:
        tau = apply_step_to_tau(step, tau)
    return tau


def in_fundamental_domain(tau: complex) -> bool:
    """|Re tau| <= 1/2 and |tau| >= 1, with boundary slack 1e-12."""
    return abs(tau.real) <= 0.5 + 1e-12 and abs(tau) >= 1.0 - 1e-12


def reduce_tau(tau: ModularParameter) -> tuple[ModularParameter, ModularWord]:
    """(end, word): the generator word taking tau into the fundamental
    domain, read from _tau_path's cached walk (ValueError where -1/tau
    overflows), with the walk's plain-complex end wrapped here.  Boundary
    ties (|tau| = 1 or |Re tau| = 1/2) are accepted as-is; uniqueness is
    not needed for evaluation."""
    tokens, end, _ = _path(tau)
    return ModularParameter(end), tuple(token[0] for token in tokens)


def _token(step: ModularStep | int, tv: complex) -> tuple:
    """(step, tau before the token, tau-only constant, index map).

    The one builder of a word token, for _walk_tau and apply_modular_step.
    The constant is -log(-i*tau)/2 for S (principal branch: -i*tau lies
    in the right half-plane) and the T^k phase of r in {1, 2}, k mod 8.
    """
    if step is _S:
        return step, tv, -0.5 * cmath.log(-1j * tv), _S_PERM
    return step, tv, _T_PHASE[-step % 8], _T_PERM if step % 2 else _IDENT_PERM


def _walk(tokens, r: int, u: complex) -> tuple[complex, int, complex]:
    """Log multiplier, index and argument after the tokens, from (r, u): the one
    u-walk, of full_reduction, apply_modular_step, _reduced_theta and _reduced_thetas."""
    mu = 0j
    for step, tv, const, perm in tokens:
        if step is _S:
            step_mu = const - _IPI * u * u / tv
            if r == 1:
                step_mu += _HALF_IPI
            mu += step_mu
            u = u / tv
        else:
            mu += const if r in (1, 2) else 0j
        r = perm[r - 1]
    return mu, r, u


def apply_modular_step(
    step: ModularStep | int, r: int, u: complex, tau: ModularParameter
) -> ThetaTransformRecord:
    """Record rewriting theta_r(u|tau) at the moved modular parameter.

    T^k swaps indices 3 and 4 when k is odd and costs a phase
    exp(-k*i*pi/4) for r in {1, 2}; k is reduced mod 8 in integers
    first, so T^8 is exactly the identity.  S (tau -> -1/tau, branch
    Re sqrt(-i*tau) > 0) maps u to u/tau, swaps indices 2 and 4, and
    costs exp(-log(-i*tau)/2 - pi*i*u^2/tau), times i for r = 1.
    """
    _check_index(r)
    new_tv = apply_step_to_tau(step, tau.tau)  # first: ValueError for a bad token
    token = _token(step, tau.tau)
    mu, _, new_u = _walk((token,), r, complex(u))
    return ThetaTransformRecord(token[3], mu, new_u, ModularParameter(new_tv))


def _cell(r: int, u: complex, tv: complex) -> tuple[complex, int, int, complex]:
    """(u0, n, m, mu): u = u0 + n + m*tv in the centred cell, exact multiplier.

    The shift flips the sign of theta_r by (-1)^n for r in {1, 2} and by
    (-1)^m for r in {1, 4}; theta_3 never, so r = 3 gives the bare
    multiplier, to which _reduced_thetas, and the engine's group points at
    an empty word, add each index's sign.  _reduced_theta copies this
    arithmetic inline and calls it only to raise its ValueError, so that
    its messages are written once.

    ValueError where u is not finite, where the shift m*tv or m^2*tv
    overflows doubles, and where rounding leaves u0 outside the cell by
    more than Im(tv)/2 (|Im u0| > Im tv): past that no window is proven.
    The messages call u and tv u' and tau': the point after the word.
    A mu that overflows with m^2*tv finite is not checked here, off the
    evaluators' path: reduce_u and full_reduction raise for it, and the
    evaluators where their exp(mu) leaves the fast branch.
    """
    try:
        m = round(u.imag / tv.imag)
        u1 = u - m * tv
        n = round(u1.real)
        u0 = u1 - n
        mu = -1j * PI * (2 * m * u0 + m * m * tv)
    except (OverflowError, ValueError):  # round() of inf or nan, or an int past float
        if not cmath.isfinite(u):
            raise ValueError(f"cannot reduce u: u'={u!r} is not finite") from None
        raise ValueError(
            f"cannot reduce u: the lattice shift of u'={u!r} by "
            f"{u.imag / tv.imag:.3g}*tau' overflows doubles"
        ) from None
    if abs(u0.imag) > tv.imag:
        raise ValueError(
            f"cannot reduce u: rounding leaves u'={u!r} outside the cell "
            f"(|Im u0|={abs(u0.imag):.3g} > Im tau'={tv.imag:.3g})"
        )
    if ((n % 2 == 1) and r in (1, 2)) ^ ((m % 2 == 1) and r in (1, 4)):
        mu += _IPI
    return u0, n, m, mu


def reduce_u(
    r: int, u: complex, tau: ModularParameter
) -> tuple[LatticeDecomposition, ThetaTransformRecord]:
    """Centred-cell reduction u = u0 + n + m*tau with exact multiplier.

    Shifting by 1 flips the sign for r in {1, 2}; shifting by tau flips
    it for r in {1, 4} and costs exp(-pi*i*(2*u + tau)), which iterates
    to exp(-pi*i*(2*m*u0 + m^2*tau)) for an m-fold shift.
    """
    _check_index(r)
    u = complex(u)
    u0, n, m, mu = _cell(r, u, tau.tau)
    if not cmath.isfinite(mu):
        raise _multiplier_overflow(u)
    return LatticeDecomposition(u0, n, m), ThetaTransformRecord(_IDENT_PERM, mu, u0, tau)


_HP_PERM = {
    HalfPeriod.HALF: (2, 1, 4, 3),
    HalfPeriod.TAU_HALF: (4, 3, 2, 1),
    HalfPeriod.TAU_PLUS_ONE_HALF: (3, 4, 1, 2),
}

# extra phase (as a multiple of i*pi/2) on top of the common exponential
_HP_PHASE_QUARTERS = {
    HalfPeriod.HALF: {1: 0, 2: 2, 3: 0, 4: 0},  # theta_2(u+1/2) = -theta_1(u)
    HalfPeriod.TAU_HALF: {1: 1, 2: 0, 3: 0, 4: 1},
    HalfPeriod.TAU_PLUS_ONE_HALF: {1: 0, 2: -1, 3: 1, 4: 0},
}


def half_period_shift(
    r: int, which: HalfPeriod, u: complex, tau: ModularParameter
) -> ThetaTransformRecord:
    """Record for theta_r(u + which | tau) = exp(mu) * theta_{r'}(u | tau).

    Encodes the twelve half-period rules, e.g. theta_1(u + 1/2) =
    theta_2(u) and theta_1(u + tau/2) = i*exp(-pi*i*(u + tau/4))*theta_4(u).
    """
    _check_index(r)
    u = complex(u)
    which = HalfPeriod(which)
    mu = 0.5j * PI * _HP_PHASE_QUARTERS[which][r]
    if which is not HalfPeriod.HALF:
        mu += -1j * PI * (u + tau.tau / 4.0)
    return ThetaTransformRecord(_HP_PERM[which], mu, u, tau)


def _walk_tau(tv: complex, re_sign: float | None = None) -> tuple:
    """(tokens, end, q2): the one walk of tau = tv into the fundamental domain.

    end is a plain complex, finite with Im > 0 by the walk itself, so a
    new tau builds no ModularParameter; reduce_tau and full_reduction
    wrap it on their way out.  The engine walks its trial taus here; the
    rest read _tau_path, this walk cached by value, (tau.tau, copysign(1.0,
    Re tau)), not by the ModularParameter, whose __hash__ and __eq__ run
    Python code.  re_sign only keys it: Re tau = 0.0 and -0.0 stay apart.

    Each translation run is one token T^-shift and one subtraction
    t - shift, which is exact: both operands are multiples of ulp(Re t)
    and the result is at most 1/2.  Each S step is one token and
    t = -1/t.  The walk ends once |t| >= 1 or an S step would not raise
    Im(t), as where |t| and |-1/t| both round to just below 1 next to
    +-1/2 + i*sqrt(3)/2, so it terminates, with Im(end) >= sqrt(3)/2 - 2^-50.
    Its tokens come from _token; q2 = exp(2*pi*i*end), bit-equal to
    core._nome_sq(end).
    """
    t = tv
    tokens = []
    while True:
        shift = round(t.real)
        if shift:
            tokens.append(_token(-shift, t))
            t -= shift
        if abs(t) >= 1.0 or (s := -1.0 / t).imag <= t.imag:
            return tuple(tokens), t, cmath.exp(_TWO_IPI * t)
        tokens.append(_token(_S, t))
        t = s
        if not cmath.isfinite(t):
            raise ValueError(
                f"Im(tau)={tv.imag!r} is too small to reduce: -1/tau overflows"
            )


_tau_path = lru_cache(maxsize=4096)(_walk_tau)


def _path(tau: ModularParameter) -> tuple:
    """The cached _tau_path of tau, looked up by value."""
    tv = tau.tau
    return _tau_path(tv, math.copysign(1.0, tv.real))


def full_reduction(r: int, u: complex, tau: ModularParameter) -> ThetaTransformRecord:
    """Record of the word of tau, then of the lattice reduction of u.

    Equal to folding apply_modular_step over the word with then() and
    finishing with reduce_u; the tau-only part of the word is cached.
    ValueError where u cannot be reduced (see _cell) and where the log
    multiplier overflows doubles.
    """
    _check_index(r)
    tokens, end, _ = _path(tau)
    index_map = _IDENT_PERM
    for token in tokens:
        index_map = tuple(token[3][i - 1] for i in index_map)
    u = complex(u)
    mu, r, w = _walk(tokens, r, u)
    u0, _, _, mu_cell = _cell(r, w, end)
    mu += mu_cell
    if not cmath.isfinite(mu):
        raise _multiplier_overflow(u)
    return ThetaTransformRecord(index_map, mu, u0, ModularParameter(end))


def _reduced_theta(r: int, u: complex, path: tuple) -> tuple[complex, complex]:
    """(value at the reduced point, log multiplier) of theta_r(u|tau), path = _path(tau).

    The multiplier is bit-equal to record.log_multiplier, record =
    full_reduction(r, u, tau), and in the cell the value to
    theta(record.map_index(r), record.new_u, record.new_tau); only the
    record and the cache key are skipped, and q^2 comes from the path.
    Every reduced route of one index sums here, the engine's one-index
    points at any word among them: _walk, _cell's arithmetic inline,
    then one _series call over a constant window proven in
    core._window, N in the cell and N + 1 on its rim Im tau'/2 < |Im u0|
    <= Im tau', where rounding can leave the point.  _cell runs only to
    raise its ValueError for a u that cannot be reduced.

    It does not call _reduced_thetas with one index: the group kernel's
    per-index lists would slow every eval_reduced, big_theta and
    theta_char call.
    """
    tokens, tv, q2 = path
    if tokens:
        mu, r, u = _walk(tokens, r, complex(u))
    else:  # _walk's result for an empty word; 0j + mu_cell below fixes the sign of a zero
        mu, u = 0j, complex(u)
    try:  # _cell, inline
        m = round(u.imag / tv.imag)
        u1 = u - m * tv
        n = round(u1.real)
        u0 = u1 - n
        mu_cell = -1j * PI * (2 * m * u0 + m * m * tv)
    except (OverflowError, ValueError):
        _cell(r, u, tv)  # raises its ValueError
        raise
    if abs(u0.imag) > tv.imag:
        _cell(r, u, tv)  # raises: outside the cell
    if ((n % 2 == 1) and r in (1, 2)) ^ ((m % 2 == 1) and r in (1, 4)):
        mu_cell += _IPI
    a0 = 0.5 if r < 3 else 0.0
    s = _series(N if 2.0 * abs(u0.imag) <= tv.imag else N + 1, a0, u0, tv, r in (1, 4), q2)
    return (complex(s.imag, -s.real) if r == 1 else s), mu + mu_cell  # -i*s for r = 1


def _reduced_thetas(indices, u: complex, path: tuple) -> list[tuple[complex, complex]]:
    """[_reduced_theta(r, u, path) for r in indices], bit for bit, at one
    point of two or more indices (the engine's group points).

    One _walk per index, all ending at the same u', then one _cell there:
    the index after the word takes mu_cell + i*pi where n + m is odd at
    1, n at 2, m at 4, else mu_cell.  Each wanted half-integer class
    ({1, 2} at a0 = 1/2, {3, 4} at 0) takes _reduced_theta's window and
    one _series call, paired when both members are wanted.  ValueError
    as _reduced_theta.
    """
    tokens, tv, q2 = path
    u = complex(u)
    walks = [_walk(tokens, r, u) for r in indices]  # each ends at the same u'
    u0, n, m, mu_cell = _cell(3, walks[0][2], tv)  # theta_3 never flips: the bare multiplier
    cell, flips = (mu_cell, mu_cell + _IPI), (0, (n ^ m) & 1, n & 1, 0, m & 1)
    ends, wanted = [], 0  # per index: (index after the word, multiplier); those indices as bits
    for mu, r, _ in walks:
        ends.append((r, mu + cell[flips[r]]))
        wanted |= 1 << r
    window = N if 2.0 * abs(u0.imag) <= tv.imag else N + 1
    sums = [None, None, None, None, None]  # by index
    for a0, alt, plain in ((0.5, 1, 2), (0.0, 4, 3)):  # alt: the alternating sum's index
        want_alt, want_plain = wanted >> alt & 1, wanted >> plain & 1
        if want_alt or want_plain:
            if want_alt and want_plain:
                sums[plain], sums[alt] = _series(window, a0, u0, tv, None, q2)
            else:
                sums[alt if want_alt else plain] = _series(window, a0, u0, tv, want_alt == 1, q2)
    s = sums[1]
    if s is not None:
        sums[1] = complex(s.imag, -s.real)  # -i*s, as in _reduced_theta
    for i, (r, mu) in enumerate(ends):
        ends[i] = sums[r], mu
    return ends


def eval_reduced(r: int, u: complex, tau: ModularParameter) -> complex:
    """theta_r(u|tau) via full reduction; converges for every valid tau.

    After reduction |q| <= 0.0658 and the series window stays small even
    where direct summation would need thousands of terms or overflow.
    The returned value itself can still overflow the double range for
    extreme arguments; use full_reduction directly to stay in log form.
    ValueError where u cannot be reduced (see _cell) and where the log
    multiplier overflows doubles.
    """
    _check_index(r)
    value, mu = _reduced_theta(r, u, _path(tau))
    return (cmath.exp(mu) if mu.real <= _EXP_MAX else _exp_multiplier(mu, u)) * value


def eval_reduced_product(r: int, u: complex, tau: ModularParameter) -> complex:
    """Like eval_reduced but with the triple product at the reduced point.

    Shares the reduction record with the series path, so the two values
    differ only by the series-vs-product route.
    """
    record = full_reduction(r, u, tau)
    value = theta_product(record.map_index(r), record.new_u, record.new_tau)
    return record.multiplier() * value


_ZERO_OFFSET = {
    1: (0.0, 0.0),
    2: (0.5, 0.0),
    3: (0.5, 0.5),
    4: (0.0, 0.5),
}


def zeros_of(r: int, tau: ModularParameter, n_range, m_range) -> list[complex]:
    """Lattice zeros of theta_r over the given integer ranges.

    theta_1 vanishes at n + m*tau, theta_2 at n + 1/2 + m*tau,
    theta_3 at n + 1/2 + (m + 1/2)*tau, theta_4 at n + (m + 1/2)*tau.
    """
    _check_index(r)
    off_n, off_m = _ZERO_OFFSET[r]
    tv = tau.tau
    return [n + off_n + (m + off_m) * tv for n in n_range for m in m_range]
