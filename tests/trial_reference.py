"""verify's trial loop rebuilt from the one-trial public route.

reference_report runs verify's rules one trial at a time: the engine's
_sample_binding (read from the module, as verify reads it) draws each
trial's values and tau from the id's own RNG stream, wrapped here in a
binding, evaluate_identity gives its residuals, a binding whose two sides are
both below 1e-250 in magnitude is drawn again (at most 64 times), and a
TruncationError or a ValueError (a draw that cannot be reduced) counts as
a failed trial.  The side magnitudes of that
rule come from per_factor_values, each factor evaluated on its own.

Run as a script, it checks verify against the reference over the whole
catalog, 20 trials in each sampling box, and exits 1 on any mismatch:

    PYTHONPATH=src python tests/trial_reference.py
"""

from __future__ import annotations

import math
import random
import sys

from thetakit.core import PI, ModularParameter, TruncationError, cexp, gauss_product_theta4, theta1_prime0
from thetakit.identities import (
    DEFAULT_BOX,
    STRESS_BOX,
    VariableBinding,
    catalog_by_id,
    evaluate_identity,
    verify,
)
from thetakit.identities import engine
from thetakit.identities.engine import _DEGENERATE_LOG, _RESAMPLE_LIMIT
from thetakit.reduction import HalfPeriod, _path, _reduced_theta, half_period_shift


def per_factor_values(identity, binding):
    """Each unique factor evaluated on its own, in first-use order: the
    one-factor-at-a-time route that the grouped plan must reproduce."""
    unique = dict.fromkeys(
        f for side in (identity.lhs, identity.rhs) for term in side for f in term.factors
    )
    out = []
    for f in unique:
        base = binding.tau if f.tau_multiplier == 1 else binding.tau.scaled(2)
        if f.index == "pi":
            out.append((complex(PI), 0.0))
            continue
        if f.index == "dt1":
            out.append((theta1_prime0(base), 0.0))
            continue
        if f.index == "gauss4":
            out.append((gauss_product_theta4(base), 0.0))
            continue
        lf = f.argument
        w = complex(float(lf.const))
        for name, c in lf.var_coeffs:
            w += c * binding.values[name]
        sigma = lf.tau_coeff / f.tau_multiplier
        path = _path(base)
        if sigma.denominator == 2:
            point = w + (float(sigma) - 0.5) * base.tau
            record = half_period_shift(f.index, HalfPeriod.TAU_HALF, point, base)
            value, mu = _reduced_theta(record.map_index(f.index), point, path)
            shift = record.log_multiplier
            mantissa = value * cexp(1j * mu.imag)
            out.append((mantissa * cexp(1j * shift.imag), mu.real + shift.real))
        else:
            value, mu = _reduced_theta(f.index, w + float(sigma) * base.tau, path)
            out.append((value * cexp(1j * mu.imag), mu.real))
    return out


def _degenerate(identity, binding) -> bool:
    """Both sides below 1e-250 in magnitude: verify draws the binding again."""
    unique = dict.fromkeys(
        f for side in (identity.lhs, identity.rhs) for term in side for f in term.factors
    )
    values = dict(zip(unique, per_factor_values(identity, binding)))
    sides = []
    for side in (identity.lhs, identity.rhs):
        terms = []
        for term in side:
            mantissa, scale = complex(float(term.coefficient)), 0.0
            for f in term.factors:
                m, s = values[f]
                mantissa *= m
                scale += s
            if not (math.isfinite(mantissa.real) and math.isfinite(mantissa.imag)):
                return False  # a non-finite trial is a failed one, never resampled
            terms.append((mantissa, scale))
        sides.append(terms)
    scales = [scale for terms in sides for mantissa, scale in terms if mantissa != 0]
    if not scales:
        return True  # every term is exactly zero
    log_max = max(scales)
    mags = [sum(abs(m * math.exp(min(s - log_max, 0.0))) for m, s in terms) for terms in sides]
    return max(log_max + math.log(mag) if mag > 0.0 else -math.inf for mag in mags) < _DEGENERATE_LOG


def reference_report(identity_id, identity, trials, seed, box, rel_tol):
    """(max_abs, max_rel, first failing binding or None), one public trial at a time."""
    rng = random.Random(f"{seed}:{identity_id}")
    max_abs = max_rel = 0.0
    failing = None
    for _ in range(trials):
        for _ in range(_RESAMPLE_LIMIT + 1):
            values, tau = engine._sample_binding(rng, identity.variables, box)
            binding = VariableBinding(dict(zip(identity.variables, values)), ModularParameter(tau))
            try:
                abs_res, rel = evaluate_identity(identity, binding)
            except (TruncationError, ValueError):
                abs_res = rel = math.inf
                break
            if not _degenerate(identity, binding):
                break
        if math.isnan(rel):
            rel = math.inf
        max_abs = max(max_abs, abs_res)
        max_rel = max(max_rel, rel)
        if failing is None and rel > rel_tol:
            failing = binding
    return max_abs, max_rel, failing


def _binding_repr(binding) -> str:
    return "None" if binding is None else repr((binding.values, binding.tau.tau))


def mismatches(ids, trials, seed, box, rel_tol=1e-9, catalog=None):
    """Ids whose verify report differs from the reference in any bit."""
    by_id = catalog_by_id() if catalog is None else catalog
    bad = []
    for report in verify(ids, trials=trials, seed=seed, box=box, rel_tol=rel_tol, catalog=catalog):
        want = reference_report(report.identity_id, by_id[report.identity_id], trials, seed, box, rel_tol)
        got = (report.max_abs_residual, report.max_rel_residual, report.failing_binding)
        if repr(got[:2]) != repr(want[:2]) or _binding_repr(got[2]) != _binding_repr(want[2]):
            bad.append(report.identity_id)
    return bad


def main() -> int:
    ids = sorted(catalog_by_id())
    failed = False
    for name, box, rel_tol in (("default", DEFAULT_BOX, 1e-9), ("stress", STRESS_BOX, 1e-8)):
        bad = mismatches(ids, trials=20, seed=42, box=box, rel_tol=rel_tol)
        print(f"{name} box: {len(ids) - len(bad)}/{len(ids)} ids equal to the reference")
        for identity_id in bad:
            print(f"  differs: {identity_id}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
