"""Reproducers of the known thetakit defects, run untimed in every benchmark run.

The timed workloads are chosen so that no operation fails at the seed
commit: the verify stress box, near-cusp points closer than 2e-3,
|Im u| past the double range, and big_theta/theta_char next to a cusp
all hit defects that fail a share of the calls which changes from run
to run.  Each of those defects is kept visible here instead: a fixed
input that showed it, its cause, and the outcome that shows it.  A run
reports, for each, whether it still reproduces; a fix shows as
"fixed", any other outcome as "changed", and none of them makes a run
incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import mporacle


@dataclass(frozen=True)
class Defect:
    name: str
    seen_on: str
    cause: str
    # ("verify", argv) with the id's expected report status,
    # ("identity", id, variables, tau) with "fail" for a residual above 1e-8, or
    # (function, which, u, tau) with the expected oracle verdict
    call: tuple
    shows_as: str


DEFECTS = (
    Defect(
        "G.g1-stress",
        "verify --all --stress --tol 1e-8 (every seed)",
        "gauss4 has no reduced route: the alternating product needs more than "
        "max_terms=1000 factors once Im tau < ~0.0134, so the trial raises TruncationError",
        ("verify", ["--id", "G.g1", "--stress", "--tol", "1e-8", "--seed", "0", "--trials", "5"]),
        "fail",
    ),
    Defect(
        "TC.tc1-stress",
        "verify --all --stress --tol 1e-8 (a few trials per hundred)",
        "dt1 has no reduced route either: theta1_prime0 sums the unreduced series, and at "
        "Im tau ~ 0.01 theta_1'(0) is ~1e-9 of its largest terms, so cancellation leaves "
        "~1e-6 relative error",
        ("verify", ["--id", "TC.tc1", "--stress", "--tol", "1e-8", "--seed", "0", "--trials", "50"]),
        "fail",
    ),
    Defect(
        "cusp-residual-stress",
        "verify --all --stress --tol 1e-8 (any id, about 1 trial in 10^4)",
        "next to the cusp at 0 (Im tau ~ 1e-3, |Re tau| < 1e-3) the reduced value theta(u'|tau') "
        "reaches ~1e230, since the centred cell bounds Im u' only by Im tau'/2, and the engine "
        "multiplies a term's unnormalised mantissas, which overflow (residual inf; seen for "
        "W.I.r3, D.df2a, D.df2d, R.III.3) or underflow (residual 1.0; seen for R.III.3)",
        ("identity", "D.df2a", {"u": -0.3932629781341648 + 0.1751612122871189j},
         0.0007649580016637154 + 0.0014230987092141564j),
        "fail",
    ),
    Defect(
        "eval_reduced-large-im-u",
        "eval_reduced with |Im u| past the double range (about a quarter of |Im u| in 0.5..50)",
        "eval_reduced returns exp(mu) * theta(u'|tau') in doubles with no range check, so it "
        "returns nan/inf where the true value overflows instead of raising",
        ("eval_reduced", 1, 0.5080964919605999 - 35.128554298731466j,
         0.20960047312254093 + 0.603462705288803j),
        "nonfinite",
    ),
    Defect(
        "eval_reduced-near-cusp-nonfinite",
        "eval_reduced closer than 2e-3 to a cusp (46% of the points at 1e-4, 8% at 5.6e-4..1e-3)",
        "same missing range check: after the modular word the reduced value overflows while "
        "exp(mu) underflows, and inf * 0 gives nan",
        ("eval_reduced", 1, -0.5526584284010244 + 0.00025287578268001103j,
         -0.9997680669851619 + 0.00034702800942823026j),
        "nonfinite",
    ),
    Defect(
        "eval_reduced-near-cusp-range",
        "eval_reduced closer than 2e-3 to a cusp (46% of the points at 1e-4, 8% at 5.6e-4..1e-3)",
        "same missing range check: exp(mu) underflows to 0, so a true value inside or below "
        "the double range comes back as 0 or a subnormal",
        ("eval_reduced", 3, 0.78008707561624 + 5.932239125719218e-06j,
         1.6411844259104266e-05 + 0.00013044444660476677j),
        "range",
    ),
    Defect(
        "eval_reduced-near-cusp-accuracy",
        "eval_reduced closer than 4e-4 to a cusp (10 of 3000 points at 1e-4..1e-2 of one seed)",
        "relative accuracy near cusps is limited by the accumulated log multiplier "
        "(|Im mu| ~ 2e4 after the modular word); errors from 1e-9 up to 5e-3",
        ("eval_reduced", 4, 0.688823853788535 + 6.517761989526022e-05j,
         -0.0001824282700808283 + 0.0002969144620267561j),
        "mismatch",
    ),
    Defect(
        "big_theta-near-cusp",
        "big_theta at tau within 0.003 of the cusp at 3, Im tau ~ 0.03 (every point)",
        "notation.elliptic_k sums theta_3(0|tau) without reduction; next to the cusp theta_3(0) "
        "is ~1e-11 of its largest terms, so K keeps few correct digits and big_theta evaluates "
        "at a wrong u/(2K)",
        ("big_theta", 1, 2.674817403570951e-19 + 6.193099964217826e-20j,
         3.0018367432856192 + 0.031053782166193693j),
        "mismatch",
    ),
    Defect(
        "theta_char-near-cusp",
        "theta_char at tau within 0.003 of the cusp at 3, Im tau ~ 0.03 (a quarter to a half of the points)",
        "theta_char has no reduced route: its direct sum keeps absolute, not relative, accuracy, "
        "and next to the cusp the values lie far below the largest terms",
        ("theta_char", (0.376154082472277, 0.7368550688760849),
         -3.791510987973249 - 0.028242197888011137j, 3.0018367432856192 + 0.031053782166193693j),
        "mismatch",
    ),
)


def _verify_status(cli, argv: list[str], scratch: Path) -> str:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=scratch) as tmp:
        report = Path(tmp) / "verify.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", *argv, "--json", str(report)])
        (entry,) = json.loads(report.read_text())["reports"]
    return entry["status"]


def _identity_status(tk, identity_id: str, values: dict, tau: complex) -> str:
    identity = next(i for i in tk.builtin_catalog() if i.id == identity_id)
    binding = tk.VariableBinding(dict(values), tk.ModularParameter(tau))
    _, rel = tk.evaluate_identity(identity, binding)
    return "pass" if rel <= 1e-8 else "fail"


def _eval_verdict(tk, kind: str, which, u: complex, tau: complex) -> str:
    param = tk.ModularParameter(tau)
    try:
        if kind == "eval_reduced":
            value = tk.eval_reduced(which, u, param)
        elif kind == "big_theta":
            value = tk.big_theta(which, u, param)
        else:
            value = tk.theta_char(tk.Characteristics(*which), u, param)
    # any exception is the outcome under test, classified against the oracle
    except Exception as exc:  # noqa: BLE001
        value = exc
    if kind == "eval_reduced":
        ref = mporacle.theta(which, u, tau)
    elif kind == "big_theta":
        ref = mporacle.big_theta(which, u, tau, mporacle.elliptic_k(tau))
    else:
        ref = mporacle.theta_char(*which, u, tau)
    return mporacle.classify(value, ref)


def outcome(tk, defect: Defect, scratch: Path) -> str:
    """What the reproducer gives now: the verify status or the oracle verdict.

    A verify reproducer writes its report in a temporary directory under scratch.
    """
    if defect.call[0] == "verify":
        return _verify_status(tk.cli, defect.call[1], scratch)
    if defect.call[0] == "identity":
        return _identity_status(tk, *defect.call[1:])
    return _eval_verdict(tk, *defect.call)


def check(tk, scratch: Path) -> dict[str, dict[str, str]]:
    """Each known defect: its cause, what shows it, what it gives now, and the verdict."""
    out = {}
    for defect in DEFECTS:
        now = outcome(tk, defect, scratch)
        fixed = now in ("pass", "ok")
        out[defect.name] = {
            "seen_on": defect.seen_on,
            "cause": defect.cause,
            "shows_as": defect.shows_as,
            "now": now,
            "verdict": "reproduces" if now == defect.shows_as else ("fixed" if fixed else "changed"),
        }
    return out
