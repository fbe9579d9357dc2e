"""Numerical evaluation and randomized verification of catalog identities.

Each identity is compiled once into a plan of plain numbers (_Plan),
whose factors are grouped by the point where they are evaluated.  On
first use the plan is written out as one straight-line Python function
per route (_generate), as dataclasses writes its methods: no loop over
the plan runs per trial.  A verify trial calls it on plain numbers from
the draw to the residual: it walks its fresh tau (and 2tau) once,
evaluates every unique point once for all its theta indices (one walk of
the word, one lattice cell and one series pass per half-integer class,
bit-equal to one evaluation per index; a point of one index is one
_reduced_theta call at any word, and a point of several makes, at an
empty word, no kernel call, only the cell's and the series'), by full
reduction or, with use_reduction=False, by direct summation per factor,
and builds a binding only for a report's first failure.  The engine runs
at core's _TOL and _MAX_TERMS.

Terms are evaluated in split form mantissa * exp(log_scale): the
reduction records supply log-form multipliers, so identities remain
checkable even where the raw theta values overflow the double range
(small Im tau with sizable Im u).  The relative residual of an identity
is |LHS - RHS| divided by the total magnitude of all terms on both
sides (plus a tiny floor), which stays meaningful under catastrophic
cancellation of large terms.
"""

from __future__ import annotations

import cmath
import math
import numbers
import random
import types
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

# theta, theta1_prime0, gauss_product_theta4, _reduced_theta(s), _walk_tau, _cell
# and _series are called by the generated trial functions, through this module's globals
from ..core import (  # noqa: F401
    N,
    PI,
    ModularParameter,
    TruncationError,
    gauss_product_theta4,
    theta,
    theta1_prime0,
    _series,
)
from ..reduction import (  # noqa: F401
    _HP_PERM,
    _HP_PHASE_QUARTERS,
    HalfPeriod,
    _cell,
    _reduced_theta,
    _reduced_thetas,
    _walk_tau,
)
from ..reduction import eval_reduced, full_reduction, half_period_shift  # noqa: F401  perfbench's tracer wraps them
from .catalog import catalog_by_id
from .dsl import DTHETA1, GAUSS4, PI_CONST, Identity, ThetaFactor, parse_identity

__all__ = [
    "UnknownIdentityError",
    "VariableBinding",
    "ResidualReport",
    "SamplingBox",
    "DEFAULT_BOX",
    "STRESS_BOX",
    "RESIDUAL_EPS",
    "dual_vars",
    "evaluate_identity",
    "verify",
    "KoornwinderReport",
    "koornwinder_equivalence_check",
]

RESIDUAL_EPS = 1e-300

# both sides below this magnitude carry no information; resample
_DEGENERATE_LOG = math.log(1e-250)
_RESAMPLE_LIMIT = 64

_LOG_EPS = math.log(RESIDUAL_EPS)


class UnknownIdentityError(KeyError):
    """Requested identity id is not in the catalog."""


@dataclass
class VariableBinding:
    """Complex values for an identity's free variables plus the base tau."""

    values: dict[str, complex]
    tau: ModularParameter


@dataclass
class ResidualReport:
    """Worst residuals of one identity over a batch of random trials."""

    identity_id: str
    trials: int
    max_abs_residual: float
    max_rel_residual: float
    failing_binding: VariableBinding | None = None


@dataclass(frozen=True)
class SamplingBox:
    """Uniform sampling range of Im tau, a pair 0 < low <= high < inf (else ValueError).
    Re tau is drawn from [-1/2, 1/2], each variable's parts from [-1, 1]."""

    tau_im: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        if len(self.tau_im) != 2 or not 0.0 < self.tau_im[0] <= self.tau_im[1] < math.inf:
            raise ValueError(f"tau_im must be a pair 0 < low <= high < inf, got {self.tau_im!r}")


DEFAULT_BOX = SamplingBox()
STRESS_BOX = SamplingBox(tau_im=(1e-3, 0.1))


def dual_vars(
    w: complex, x: complex, y: complex, z: complex
) -> tuple[complex, complex, complex, complex]:
    """The involutive map W' = (-W+X+Y+Z)/2 and cyclic companions."""
    h = (w + x + y + z) / 2.0
    return (h - w, h - x, h - y, h - z)


@dataclass(frozen=True)
class _Plan:
    """An identity as plain numbers, compiled once.

    points: the unique factors grouped by where they are evaluated, in
    order of first use, each (special, slot 0 for tau or 1 for 2tau,
    complex const, (variable position, int coeff) pairs, tau offset, offset
    is a half-integer, kinds, inner indices, factor positions).  A theta point
    has special None and lists every index wanted at its argument: kinds
    are the factors' theta indices, inner the indices summed (a
    half-integer offset sums index 5 - r, by the tau/2 shift table) and
    positions where each value goes.  A pi, dt1 or gauss4 factor is a
    point of its own, with special set to its kind.
    terms: every term as (coefficient, factor positions), the n_lhs left ones first.
    """

    points: tuple[tuple, ...]
    n_factors: int
    terms: tuple[tuple[complex, tuple[int, ...]], ...]
    n_lhs: int
    doubled: bool  # some factor lives at 2tau

    @cached_property
    def trial(self):
        """The reduced route, generated on first use (see _generate)."""
        return _generate(self, True)

    @cached_property
    def direct(self):
        """The direct-summation route, generated on first use."""
        return _generate(self, False)


_TAU_HALF_PERM = _HP_PERM[HalfPeriod.TAU_HALF]
_TAU_HALF_QUARTERS = _HP_PHASE_QUARTERS[HalfPeriod.TAU_HALF]


@lru_cache(maxsize=1024)
def _compile(identity: Identity) -> _Plan:
    unique: dict[ThetaFactor, int] = {}  # each factor's position, by first use
    terms = tuple(
        (complex(float(t.coefficient)), tuple(unique.setdefault(f, len(unique)) for f in t.factors))
        for t in (*identity.lhs, *identity.rhs)
    )
    points: dict[tuple, tuple] = {}  # key -> (fields, kinds, inner indices, positions)
    for position, f in enumerate(unique):
        slot = f.tau_multiplier - 1
        inner = f.index
        if f.index in (PI_CONST, DTHETA1, GAUSS4):
            key = fields = (f.index, slot, 0j, (), 0.0, False)
        else:
            lf = f.argument
            sigma = lf.tau_coeff / f.tau_multiplier  # relative to the factor's slot
            coeffs = tuple((identity.variables.index(name), c) for name, c in lf.var_coeffs)
            half = sigma.denominator == 2
            key = fields = (None, slot, complex(float(lf.const)), coeffs, float(sigma), half)
            if half:
                inner = _TAU_HALF_PERM[f.index - 1]
        _, kinds, inners, positions = points.setdefault(key, (fields, [], [], []))
        kinds.append(f.index)
        inners.append(inner)
        positions.append(position)
    compiled = tuple(
        (*fields, tuple(kinds), tuple(inner), tuple(positions))
        for fields, kinds, inner, positions in points.values()
    )
    doubled = any(f.tau_multiplier == 2 for f in unique)
    return _Plan(compiled, len(unique), terms, len(identity.lhs), doubled)


_SPECIAL = {DTHETA1: "theta1_prime0", GAUSS4: "gauss_product_theta4"}


def _generate(plan: _Plan, use_reduction: bool):
    """The plan written out as one function trial(values, tv, factors=False).

    values (in the identity's variables order) and tau = tv are plain
    numbers.  The function returns (absolute residual, relative residual,
    log magnitude of the larger side), or with factors=True every unique
    factor as (mantissa, log_scale), by position.  It does the plan's
    arithmetic operation for operation, with no algebraic shortcut (a
    leading 0.0 + or 0j +, 1 * v, + 0.0 * t), so that each factor is
    bit-equal to its evaluation on its own (tests/trial_reference.py).

    Reduced, tau and 2tau are each walked fresh, past the cache, when a
    theta point first needs them, and each point is evaluated once: one
    index is one _reduced_theta call at any word (it has _cell's
    arithmetic inline), and several are one _reduced_thetas call (one walk
    of the word, bit-equal to _reduced_theta per index).  Where the slot's
    word is empty (most default-box draws), a point of several indices
    makes the group kernel's _cell and _series calls and its sign and -i
    steps itself, in its order.  mu's phase joins the mantissa, and
    half_period_shift's multiplier is written out.  Only pi, dt1, gauss4
    and direct sums (use_reduction=False: no walk) build a
    ModularParameter, one per slot.  A phase's exponent has
    real part +-0 (nan at an infinite angle), where cexp is cmath.exp: no saturation.

    The source holds names and integers only.  Every float, complex and
    theta index is a parameter default, so plans that differ only in those
    share one code object.  Callees resolve in this module's globals, where
    tests and tracers replace them.
    """
    consts: dict = {}  # key -> (parameter name, value)

    def k(value, datum=False) -> str:
        # a datum of the identity gets a name of its own, so the text does not
        # depend on which of its values happen to be equal; a fixed constant
        # is shared, keyed by repr, which keeps -0.0 apart from 0.0
        return consts.setdefault(len(consts) if datum else repr(value), (f"k{len(consts)}", value))[0]

    zero, phase, taus = k(0.0), k(1j), ("tv", "t1")
    # 2tau as ModularParameter.scaled(2) holds it, refused with its ValueError past the double range
    lines = ["t1 = 2 * tv", "if not cmath.isfinite(t1): ModularParameter(t1)"] if plan.doubled else []
    ready = set()  # each slot's walk or ModularParameter, made at the first point that uses it
    for special, slot, const, coeffs, offset, half, kinds, inner, positions in plan.points:
        t, direct = taus[slot], special is not None or not use_reduction
        tau = f"{'mp' if direct else 'p'}{slot}"
        if tau not in ready:
            ready.add(tau)
            walk = f"{tau} = ModularParameter({t})" if direct else f"word{slot}, end{slot}, nome{slot} = {tau} = _walk_tau({t})"
            lines.append(walk)
        if special is not None:
            value = k(complex(PI)) if special == PI_CONST else f"{_SPECIAL[special]}({tau})"
            lines.append(f"m{positions[0]}, s{positions[0]} = {value}, {zero}")
            continue
        w = " + ".join([k(const, True), *(f"{c} * values[{i}]" for i, c in coeffs)])
        if direct:
            lines.append(f"w = {w}")
            for r, p in zip(kinds, positions):
                lines.append(f"m{p}, s{p} = theta({k(r, True)}, w + {k(offset, True)} * {t}, {tau}), {zero}")
        else:
            # a half-integer offset goes through the shift table: more accurate
            # than summing at the shifted point (tests/test_accuracy.py)
            lines.append(f"q = {w} + {k(offset - 0.5 if half else offset, True)} * {t}")
            if len(inner) == 1:
                lines.append(f"x{positions[0]}, u{positions[0]} = _reduced_theta({k(inner[0], True)}, q, {tau})")
            else:
                got = ", ".join(f"(x{p}, u{p})" for p in positions)
                lines.append(f"if word{slot}: {got}, = _reduced_thetas({k(inner, True)}, q, {tau})")
                # an empty word: the group kernel's _cell, window, _series and signs,
                # written out.  y lists the sums, each paired class's (plain,
                # alternating) first; two indices pair or not by a parameter: the
                # text depends on their count
                def sums(r, paired=False):  # one _series call: r's class, or r alone
                    alt = "None" if paired else k(r in (1, 4), True)
                    return f"_series(z, {k(0.5 if r < 3 else 0.0, True)}, v, end{slot}, {alt}, nome{slot})"

                pairs = [c for c in ((2, 1), (3, 4)) if {*c} <= {*inner}]
                lone = [r for r in inner if not any(r in c for c in pairs)]
                at = {r: i for i, r in enumerate([r for c in pairs for r in c] + lone)}  # index -> place in y
                if len(inner) == 2:
                    y = f"[*{sums(inner[0], True)}] if {k(bool(pairs), True)} else [{sums(inner[0])}, {sums(inner[1])}]"
                else:
                    y = "[" + ", ".join([*(f"*{sums(c[0], True)}" for c in pairs), *map(sums, lone)]) + "]"
                one, zero_j, ipi = f"y[{k(at.get(1, 0), True)}]", k(0j), k(1j * PI)
                lines += ["else:", f" v, n, m, c = _cell(3, q, end{slot})"]
                lines += [f" z = {N} if {k(2.0)} * abs(v.imag) <= end{slot}.imag else {N + 1}", f" y = {y}"]
                lines.append(f" if {k(1 in inner, True)}: {one} = complex({one}.imag, -{one}.real)")  # -i*s at index 1
                for r, p in zip(inner, positions):
                    flip = f"n & {k(int(r < 3), True)} ^ m & {k(int(r in (1, 4)), True)}"
                    lines.append(f" x{p}, u{p} = y[{k(at[r], True)}], {zero_j} + (c + {ipi} if {flip} else c)")
            if half:  # rare: half_period_shift's multiplier, written out
                lines.append(f"h = {k(-1j * PI)} * (q + {t} / {k(4.0)})")
            for r, p in zip(kinds, positions):
                m = f"x{p} * cmath.exp({phase} * u{p}.imag)"
                if half:
                    lines.append(f"h{p} = {k(0.5j * PI * _TAU_HALF_QUARTERS[r], True)} + h")
                    lines.append(f"m{p}, s{p} = {m} * cmath.exp({phase} * h{p}.imag), u{p}.real + h{p}.real")
                else:
                    lines.append(f"m{p}, s{p} = {m}, u{p}.real")
    lines.append(f"if factors: return [{', '.join(f'(m{p}, s{p})' for p in range(plan.n_factors))}]")
    terms = range(len(plan.terms))
    for j, (coefficient, indices) in enumerate(plan.terms):
        lines.append(f"a{j} = {' * '.join([k(coefficient, True), *(f'm{p}' for p in indices)])}")
        lines.append(f"e{j} = {' + '.join([zero, *(f's{p}' for p in indices)])}")
    finite = " and ".join(f"cmath.isfinite(a{j})" for j in terms)
    lines += [f"if not ({finite}): return math.inf, math.inf, math.inf", "g = -math.inf"]
    lines += [f"if a{j} != 0 and e{j} > g: g = e{j}" for j in terms]
    lines.append(f"if g == -math.inf: return {zero}, {zero}, -math.inf")  # every term is exactly zero
    lines += [f"z{j} = a{j} * math.exp(min(e{j} - g, {zero}))" for j in terms]
    for side, js in (("lhs", terms[: plan.n_lhs]), ("rhs", terms[plan.n_lhs :])):
        lines.append(f"{side} = {' + '.join([k(0j), *(f'z{j}' for j in js)])}")
        lines.append(f"{side}_mag = {' + '.join([zero, *(f'abs(z{j})' for j in js)])}")
    lines += [
        "diff = abs(lhs - rhs)",
        f"floor = {k(_LOG_EPS)} - g",
        f"floor = math.exp(floor) if floor < {k(700.0)} else math.inf",
        "rel = diff / (floor + (lhs_mag + rhs_mag))",
        f"abs_res = {zero} if diff == 0 else math.inf if g > {k(700.0)} else diff * math.exp(g)",
        "lhs_log = g + math.log(lhs_mag) if lhs_mag > 0 else -math.inf",
        "return abs_res, rel, max(lhs_log, g + math.log(rhs_mag) if rhs_mag > 0 else -math.inf)",
    ]
    names, values = zip(*consts.values())
    source = f"def trial(values, tv, factors, {', '.join(names)}):\n    " + "\n    ".join(lines) + "\n"
    return types.FunctionType(_code(source), globals(), "trial", (False, *values))


@lru_cache(maxsize=1024)
def _code(source: str) -> types.CodeType:
    """The code object of the one function that source defines, labelled by
    a hash of source, so that profiles keep each identity shape apart."""
    label = f"<identity trial {zlib.crc32(source.encode()):08x}>"
    (code,) = (c for c in compile(source, label, "exec").co_consts if isinstance(c, types.CodeType))
    return code


def evaluate_identity(
    identity: Identity,
    binding: VariableBinding,
    use_reduction: bool = True,
) -> tuple[float, float]:
    """(absolute residual, relative residual) of the identity at the binding.

    With use_reduction=False every factor is summed directly, which is
    only viable where the raw series converges within the default
    max_terms.  Where every term is a product of theta values at their
    exact zeros, the terms are rounding noise and the relative residual
    reads O(1): W.III.r1 reads 1/3 at u = v = x = y = 0, tau = i.
    """
    values = tuple(binding.values[name] for name in identity.variables)
    plan = _compile(identity)
    return (plan.trial if use_reduction else plan.direct)(values, binding.tau.tau)[:2]


def _sample_binding(
    rng: random.Random, variables: tuple[str, ...], box: SamplingBox
) -> tuple[tuple[complex, ...], complex]:
    """(values in variables order, tau): each variable, then tau, drawn as
    rng.uniform draws, a + (b - a) * rng.random(), in plain numbers."""
    draw, values = rng.random, []
    for _ in variables:  # a loop, not a comprehension: no frame per binding
        values.append(complex(-1.0 + 2.0 * draw(), -1.0 + 2.0 * draw()))
    low, high = box.tau_im
    return tuple(values), complex(-0.5 + draw(), low + (high - low) * draw())


def verify(
    identity_ids,
    trials: int = 200,
    seed: int = 42,
    box: SamplingBox = DEFAULT_BOX,
    rel_tol: float = 1e-9,
    catalog: dict[str, Identity] | None = None,
) -> list[ResidualReport]:
    """Randomized residual check, deterministic for a given seed.

    Each identity gets its own RNG stream derived from (seed, id), so
    report order and values do not depend on which other ids are
    selected.  Bindings where both sides are numerically negligible are
    resampled, at most _RESAMPLE_LIMIT times per trial; an exhausted
    truncation, or a draw that cannot be reduced (ValueError), counts as
    a failed trial.  Raises UnknownIdentityError for ids not in the
    catalog (the built-in one unless another mapping is supplied), before
    the first trial; ValueError for a bare str of ids, a box that is not
    a SamplingBox or a catalog that is not a Mapping, and unless trials
    is an int >= 1 and rel_tol a real number with 0 < rel_tol < inf
    (neither a bool).
    """
    if isinstance(identity_ids, str):
        raise ValueError(f"identity_ids must be a collection of ids, not the str {identity_ids!r}")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if not isinstance(rel_tol, numbers.Real) or isinstance(rel_tol, bool) or not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be a real number, positive and finite, got {rel_tol!r}")
    if not isinstance(box, SamplingBox):
        raise ValueError(f"box must be a SamplingBox, got {box!r}")
    if catalog is not None and not isinstance(catalog, Mapping):
        raise ValueError(f"catalog must be a mapping of ids to identities, got {type(catalog).__name__}")
    by_id = catalog_by_id() if catalog is None else catalog
    identities = []
    for identity_id in identity_ids:  # every id is looked up before the first trial
        if by_id.get(identity_id) is None:
            raise UnknownIdentityError(identity_id)
        identities.append((identity_id, by_id[identity_id]))
    reports = []
    for identity_id, identity in identities:
        trial = _compile(identity).trial
        variables = identity.variables
        rng = random.Random(f"{seed}:{identity_id}")
        max_abs = max_rel = 0.0
        failing = None
        for _ in range(trials):
            for _ in range(_RESAMPLE_LIMIT + 1):
                values, tau = _sample_binding(rng, variables, box)
                try:
                    abs_res, rel, log_mag = trial(values, tau)
                except (TruncationError, ValueError):  # a failed trial, not an aborted run
                    abs_res = rel = log_mag = math.inf
                if not log_mag < _DEGENERATE_LOG:
                    break
            if math.isnan(rel):
                rel = math.inf
            max_abs = max(max_abs, abs_res)
            if rel > max_rel:
                max_rel = rel
            if failing is None and rel > rel_tol:
                failing = VariableBinding(dict(zip(variables, values)), ModularParameter(tau))
        reports.append(ResidualReport(identity_id, trials, max_abs, max_rel, failing))
    return reports


# the five relations of the equivalence argument, by name: three are catalog
# entries, read by id, and the two that are not are written out
_KOORNWINDER = {
    "A1-B1=B2-A2": "J.F.1",
    "A1-C1=A2-C2": (
        "t1(u+x|tau)*t1(u-x|tau)*t1(v+y|tau)*t1(v-y|tau) - t1(u+v|tau)*t1(u-v|tau)*t1(x+y|tau)*t1(x-y|tau)"
        " = t2(u+x|tau)*t2(u-x|tau)*t2(v+y|tau)*t2(v-y|tau) - t2(u+v|tau)*t2(u-v|tau)*t2(x+y|tau)*t2(x-y|tau)"
    ),
    "B1+C1=B2-C2": (
        "t1(u+y|tau)*t1(u-y|tau)*t1(v+x|tau)*t1(v-x|tau) + t1(u+v|tau)*t1(u-v|tau)*t1(x+y|tau)*t1(x-y|tau)"
        " = t2(u+y|tau)*t2(u-y|tau)*t2(v+x|tau)*t2(v-x|tau) - t2(u+v|tau)*t2(u-v|tau)*t2(x+y|tau)*t2(x-y|tau)"
    ),
    "A1-B1=C1": "W.III.r1",
    "C1=B2-A2": "W.III.r2",
}


@lru_cache(maxsize=1)
def _koornwinder_relations() -> dict[str, Identity]:
    """The five relations as identities, parsed on first use."""
    by_id = catalog_by_id()
    return {n: by_id[text] if text in by_id else parse_identity(text, n) for n, text in _KOORNWINDER.items()}


@dataclass
class KoornwinderReport:
    """Relative residual of each of the five equivalence relations, by name."""

    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def koornwinder_equivalence_check(
    u: complex, v: complex, x: complex, y: complex, tau: ModularParameter
) -> KoornwinderReport:
    """Check the five linear relations among the quad products A_j, B_j, C_j.

    A_j = t_j(u+x) t_j(u-x) t_j(v+y) t_j(v-y), B_j is A_j with x and y
    swapped, and C_j = t_j(u+v) t_j(u-v) t_j(x+y) t_j(x-y).  The three
    bracket-derived relations A1-B1 = B2-A2, A1-C1 = A2-C2, B1+C1 = B2-C2
    form a degenerate system whose compatibility conditions A1-B1 = C1 and
    C1 = B2-A2 are exactly the asymmetric addition identities with r = 1, 2.
    Each relation is an identity, and its residual is evaluate_identity's.
    """
    binding = VariableBinding({"u": u, "v": v, "x": x, "y": y}, tau)
    return KoornwinderReport({n: evaluate_identity(r, binding)[1] for n, r in _koornwinder_relations().items()})
