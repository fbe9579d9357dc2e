"""Seeded inputs and timed loops for the three workloads.

Everything random is drawn from random.Random streams named after the
workload and the benchmark seed, so one seed always gives the same
inputs.  thetakit receives only these generated values (or, for the
verify workloads, a --seed derived from the benchmark seed).  Inputs
are built outside the timed region; each evaluator call and each
identity's trials are timed on their own.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import re
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mporacle

# eval-scatter regimes, drawn in equal shares (call i uses regime i % 5)
SCATTER_REGIMES = ("default", "stress", "near_cusp", "large_im_u", "large_re_tau")

# near-cusp tau sits this close to a rational p/q with q <= _CUSP_MAX_DEN.
# Closer, eval_reduced returns nan, inf or 0 (no range check on
# exp(mu) * theta(u'|tau')) for about 1 point in 2500 at 1e-3..1.8e-3,
# 8% at 5.6e-4..1e-3 and 46% at 1e-4..1.8e-4 (seed commit, 2500 points
# per band); the workload stops short of that, and defects.py reproduces
# it in every run.
_CUSP_DIST = (2e-3, 2e-2)
_CUSP_MAX_DEN = 5

# |Im u| for the large-|Im u| regime runs from 0.5 up to _IM_U_HEADROOM times
# the |Im u| at which theta_r overflows doubles, pi*Im(u)^2/Im(tau) = ln(max
# double), i.e. about 11..21 in the default box.  Past that point eval_reduced
# returns nan/inf instead of raising; defects.py reproduces it in every run.
_IM_U_MIN = 0.5
_IM_U_HEADROOM = 0.9

_LARGE_RE_TAU = (1.0, 1e3)


def _lattice_point(rng: random.Random, tau: complex, span: float = 1.0) -> complex:
    """u = x + y*tau with x, y uniform in [-span, span]: a few lattice cells."""
    return rng.uniform(-span, span) + rng.uniform(-span, span) * tau


def _box_u(rng: random.Random) -> complex:
    """The verify variable box: Re u, Im u uniform in [-1, 1]."""
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _default_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))


# additive recurrence with the root of x^4 = x + 1: an evenly spread 3-d sequence
_PHI3 = 1.22074408460575947536
_R3 = (1.0 / _PHI3, 1.0 / _PHI3**2, 1.0 / _PHI3**3)


def _spread(offset: tuple[float, ...], j: int) -> tuple[float, ...]:
    """Point j of the seeded R3 sequence in [0, 1)^3."""
    return tuple((o + j * a) % 1.0 for o, a in zip(offset, _R3))


def _log_quantile(v: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** v


def scatter_point(
    rng: random.Random, regime: str, v: tuple[float, ...]
) -> tuple[int, complex, complex]:
    """One (r, u, tau) of the given eval-scatter regime.

    v places the coordinates that set a call's cost or its outcome
    (denominator, distance and direction of the cusp offset, |Re tau|,
    |Im u|, Im tau)
    on an evenly spread sequence, so that every run covers their
    heavy-tailed ranges in the same proportions; rng draws the rest.
    """
    r = rng.randint(1, 4)
    if regime == "default":
        return r, _box_u(rng), _default_tau(rng)
    if regime == "stress":
        tau = complex(rng.uniform(-0.5, 0.5), 1e-3 + v[0] * (0.1 - 1e-3))
        return r, _lattice_point(rng, tau), tau
    if regime == "near_cusp":
        den = 1 + int(v[0] * _CUSP_MAX_DEN)
        num = rng.randint(-den, den)
        dist = _log_quantile(v[1], *_CUSP_DIST)
        angle = math.pi / 6 + v[2] * (2 * math.pi / 3)
        tau = num / den + dist * complex(math.cos(angle), math.sin(angle))
        return r, _lattice_point(rng, tau), tau
    if regime == "large_im_u":
        tau = _default_tau(rng)
        overflow = math.sqrt(math.log(sys.float_info.max) * tau.imag / math.pi)
        im_u = rng.choice((-1.0, 1.0)) * _log_quantile(v[0], _IM_U_MIN, _IM_U_HEADROOM * overflow)
        return r, complex(rng.uniform(-1.0, 1.0), im_u), tau
    if regime == "large_re_tau":
        re_tau = rng.choice((-1.0, 1.0)) * _log_quantile(v[0], *_LARGE_RE_TAU)
        return r, _box_u(rng), complex(re_tau, rng.uniform(0.5, 2.0))
    raise ValueError(f"unknown regime {regime!r}")


def scatter_inputs(seed: int, start: int, count: int) -> list[tuple[str, int, complex, complex]]:
    """Calls start .. start+count-1 of the eval-scatter stream for this seed.

    Call i belongs to regime i % 5 and draws from its own stream, so any
    slice is reproducible on its own and no tau repeats in practice.
    """
    offsets = random.Random(f"eval-scatter:{seed}")
    offset = {regime: tuple(offsets.random() for _ in _R3) for regime in SCATTER_REGIMES}
    out = []
    for i in range(start, start + count):
        regime = SCATTER_REGIMES[i % len(SCATTER_REGIMES)]
        rng = random.Random(f"eval-scatter:{seed}:{i}")
        v = _spread(offset[regime], i // len(SCATTER_REGIMES))
        out.append((regime, *scatter_point(rng, regime, v)))
    return out


def grid_setup(seed: int) -> tuple[list[complex], list[tuple[float, float]]]:
    """The fixed eval-grid taus and the two theta_char characteristics.

    tau0 has Im tau in [1.1, 1.3], inside the default box and outside the
    unit circle, so that every seed reduces it by T steps only (with
    Im tau ~ 1 some seeds needed an S step and cost 20% more).  tau1 has
    Im tau ~ 1e-3, the only inputs that take theta_char's vectorized
    window past 64 terms.
    tau2 lies within 0.003 of the cusp at +-3 with Im tau ~ 0.03, so it
    needs T and S steps before the series and theta_3(0) is tiny there;
    only eval_reduced, which reduces, is called there (see grid_batches).
    The seed only jitters each tau, so that every seed costs about the
    same: the window grows as Im tau shrinks, and the modular word grows
    without bound as tau nears a rational with a small denominator, so
    Re tau1 stays next to the golden-section
    point 0.382, whose continued fraction has no large partial quotient
    (13-17 steps at Im tau = 1e-3).
    """
    rng = random.Random(f"eval-grid:{seed}")
    taus = [
        complex(rng.uniform(-0.5, 0.5), rng.uniform(1.1, 1.3)),
        complex(
            rng.choice((-1.0, 1.0)) * (0.381966 + rng.uniform(-0.005, 0.005)),
            1e-3 * rng.uniform(0.95, 1.05),
        ),
        complex(
            rng.choice((-1.0, 1.0)) * (3.0 + rng.uniform(-0.003, 0.003)),
            rng.uniform(0.03, 0.035),
        ),
    ]
    chars = [
        (rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)),
        (rng.uniform(-0.45, -0.05), rng.uniform(0.05, 0.45)),
    ]
    return taus, chars


# index of the eval-grid tau next to the cusp at 3
NEAR_CUSP_TAU = 2

# u = x + y*tau with x, y on an n x n grid over [-GRID_SPAN, GRID_SPAN)^2
GRID_SPAN = 1.5

# grid side per tau, as a multiple of the benchmark's grid size
GRID_SIDE_SCALE = (math.sqrt(2.0), 1.0, 1.0)


def grid_pass(seed: int, index: int, taus: list[complex], n: int) -> list[tuple[int, complex]]:
    """(tau index, u) of one grid pass; each pass shifts the grid by a seeded offset.

    tau0's grid has GRID_SIDE_SCALE[0]**2 = 2 times the points of the
    others.  Per pass the calls then sort into theta_char (~15 us),
    eval_reduced (~23 us) and big_theta (~37 us) at tau0, eval_reduced at
    tau2 (~46-55 us) and everything at tau1 (100-230 us), and the median
    lies inside the tau0 big_theta group.  With equal grids it fell on
    the edge between the tau0 and tau2 groups and moved by 12% between
    runs of one seed.
    """
    rng = random.Random(f"eval-grid:{seed}:pass:{index}")
    fx, fy = rng.random(), rng.random()
    out = []
    for t_index, tau in enumerate(taus):
        side = round(n * GRID_SIDE_SCALE[t_index])
        step = 2.0 * GRID_SPAN / side
        for j in range(side):
            for k in range(side):
                x = -GRID_SPAN + (fx + j) * step
                y = -GRID_SPAN + (fy + k) * step
                out.append((t_index, x + y * tau))
    return out


@dataclass(frozen=True)
class _ProbePoint:
    z: complex

    def __post_init__(self):
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        if not (math.isfinite(z.real) and z.imag > 0.0):
            raise ValueError(z)


_PROBE_DOC = {"reports": [{"id": f"X.{i}", "max_rel": i * 1e-17, "status": "pass"} for i in range(40)]}
_PROBE_PATTERN = re.compile(r"t(\d+)\(([^|]*)\|(tau|2tau)\)")
_PROBE_TEXT = "t1(u+x|tau)*t2(u-x|2tau)*t3(v|tau)" * 8
_PROBE_VALUES = [(k * 0.618034) % 1.0 for k in range(200)]


def _probe_loop() -> float:
    """Seconds for a fixed mix of interpreter work (~3 ms).

    Small frozen dataclasses, cmath, rounding and dict traffic like
    thetakit's hot paths, plus json, re, Fraction and sorting so that
    the code footprint, and with it the sensitivity to cache contention
    from other tenants, is closer to a real call chain.
    """
    t0 = time.perf_counter()
    acc = 0j
    table: dict = {}
    for k in range(1000):
        t = _ProbePoint(complex((k % 97) * 0.01, 0.5 + (k & 15) * 0.1)).z
        m = round(t.real)
        w = cmath.exp(1j * math.pi * (t - m))
        key = (k & 63, m)
        table[key] = table.get(key, 0j) + w
        acc += w * t / (1.0 + abs(t))
    for k in range(3):
        json.loads(json.dumps(_PROBE_DOC, sort_keys=True))
        for match in _PROBE_PATTERN.finditer(_PROBE_TEXT):
            match.group(2)
        Fraction(k + 1, 7) + Fraction(3, 11)
        sorted(_PROBE_VALUES, key=lambda x: -x)
    return time.perf_counter() - t0


class SpeedMeter:
    """The machine's speed around each timed operation, from a fixed calibration loop.

    Shared hosts change speed by up to 1.7x within seconds (5 s medians
    of a fixed block of eval_reduced calls, 2-core Xeon VM), which swamps
    the run-to-run differences the benchmark must resolve.  The loop
    does the kind of interpreter work thetakit's hot paths do without
    calling thetakit, and is timed before the run, every INTERVAL_S
    between operations, and after it.  scale(start, end) turns a time
    measured over [start, end] into the time on a machine that runs the
    loop in REFERENCE_S, using the probes from the last one before start
    to the first one after end.  On the same host the 5 s medians of
    block time over adjacent probe time stayed within +-3.5%.  A single
    factor per run did worse (eval-scatter spread over five seeds 14-18%
    against 2-4% scaled per operation): operations crowd into the fast
    spells while probes are spread evenly in time.  Runs report the
    unscaled values too.

    maybe_probe() also runs side_task every side_interval seconds, so
    that work timed on its own (set-up) samples the whole run.
    """

    REFERENCE_S = 0.003
    INTERVAL_S = 0.1

    def __init__(self, side_task=None, side_interval: float = math.inf):
        self.ends: list[float] = []
        self.durations: list[float] = []
        # total time spent in probes and side tasks, for callers that time across them
        self.spent = 0.0
        self.side_task = side_task
        self.side_interval = side_interval
        self.side_last = time.perf_counter()

    def probe(self) -> None:
        duration = _probe_loop()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)
        self.spent += duration

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if now - self.side_last >= self.side_interval:
            self.side_task()
            self.side_last = time.perf_counter()
            self.spent += self.side_last - now
            self.probe()
        elif now - self.ends[-1] >= self.INTERVAL_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        lo = max(0, bisect.bisect_right(self.ends, start) - 1)
        hi = bisect.bisect_left(self.ends, end) + 1
        return self.REFERENCE_S / statistics.fmean(self.durations[lo:hi])


@dataclass(slots=True)
class Call:
    """One evaluator call: stratum for sampling, kind, index or chars, u, tau."""

    stratum: str
    kind: str
    which: object
    u: complex
    tau: complex


def finite(outcome) -> bool:
    """True for a returned value whose parts are finite; False for an exception."""
    return not isinstance(outcome, BaseException) and cmath.isfinite(outcome)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class EvalRun:
    """Closed loop of single evaluator calls, one caller, timed per call."""

    def __init__(self, thetakit, calls_fn, oracle_k=None):
        """calls_fn(batch index) -> list of Call; oracle_k: K in mp per tau, for big_theta."""
        self.tk = thetakit
        self.calls_fn = calls_fn
        self.oracle_k = oracle_k or {}
        self.calls: list[Call] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.outcomes: list = []

    def _prepared(self, calls: list[Call]):
        tk = self.tk
        fns = {
            "eval_reduced": tk.eval_reduced,
            "big_theta": tk.big_theta,
            "theta_char": tk.theta_char,
        }
        out = []
        for call in calls:
            which = tk.Characteristics(*call.which) if call.kind == "theta_char" else call.which
            out.append((fns[call.kind], (which, call.u, tk.ModularParameter(call.tau))))
        return out

    def run(self, seconds: float | None, meter: SpeedMeter | None = None) -> float:
        """Run batches until `seconds` pass (one batch when None); returns wall time.

        With a meter, the machine speed is probed at the start, between
        calls every SpeedMeter.INTERVAL_S, and at the end.  The run keeps
        every input and outcome; gc.freeze() after building each batch
        keeps the collector from re-scanning them inside timed calls.
        """
        clock = time.perf_counter
        start = clock()
        deadline = None if seconds is None else start + seconds
        if meter is not None:
            meter.probe()
        batch_index = 0
        while True:
            batch = self.calls_fn(batch_index)
            batch_index += 1
            prepared = self._prepared(batch)
            gc.freeze()
            for call, (fn, args) in zip(batch, prepared):
                t0 = clock()
                try:
                    outcome = fn(*args)
                # any exception is an outcome of the call under test, classified later
                except Exception as exc:  # noqa: BLE001
                    outcome = exc
                self.latencies.append(clock() - t0)
                self.starts.append(t0)
                self.outcomes.append(outcome)
                self.calls.append(call)
                if deadline is not None and clock() >= deadline:
                    break
                if meter is not None:
                    meter.maybe_probe()
            if deadline is None or clock() >= deadline:
                break
        if meter is not None:
            meter.probe()
        return clock() - start

    def scaled_latencies(self, meter: SpeedMeter) -> list[float]:
        return [lat * meter.scale(t0, t0 + lat) for t0, lat in zip(self.starts, self.latencies)]

    def reference(self, call: Call):
        if call.kind == "eval_reduced":
            return mporacle.theta(call.which, call.u, call.tau)
        if call.kind == "big_theta":
            return mporacle.big_theta(call.which, call.u, call.tau, self.oracle_k[call.tau])
        return mporacle.theta_char(*call.which, call.u, call.tau)

    def check(self, seed: int, name: str, per_stratum: int) -> list[tuple[Call, object, str]]:
        """Classify against the oracle a seeded sample of per_stratum calls
        from each stratum, and every call that raised or was not finite."""
        rng = random.Random(f"{name}:{seed}:oracle")
        strata: dict[str, list[int]] = {}
        for i, call in enumerate(self.calls):
            strata.setdefault(call.stratum, []).append(i)
        chosen = {i for i, outcome in enumerate(self.outcomes) if not finite(outcome)}
        for stratum in sorted(strata):
            indices = strata[stratum]
            chosen.update(rng.sample(indices, min(per_stratum, len(indices))))
        return [
            (self.calls[i], self.outcomes[i], mporacle.classify(self.outcomes[i], self.reference(self.calls[i])))
            for i in sorted(chosen)
        ]


def scatter_batches(seed: int, chunk: int):
    def batch(index: int) -> list[Call]:
        return [
            Call(regime, "eval_reduced", r, u, tau)
            for regime, r, u, tau in scatter_inputs(seed, index * chunk, chunk)
        ]

    return batch


def grid_batches(seed: int, n: int, big_theta_k: dict[complex, complex]):
    """Calls of grid pass `index`: per tau and point, r = 1..4 for
    eval_reduced and big_theta, then theta_char at both characteristics.

    big_theta gets u = 2K * (grid point), so its own argument u/(2K)
    spans the same lattice cells; K comes from the oracle, not thetakit.
    At the tau next to the cusp at 3 only eval_reduced is called:
    big_theta (through an unreduced elliptic_k) and theta_char (an
    unreduced sum) lose most digits there, which defects.py reproduces
    in every run.
    """
    taus, chars = grid_setup(seed)

    def batch(index: int) -> list[Call]:
        out = []
        for t_index, u in grid_pass(seed, index, taus, n):
            tau = taus[t_index]
            stratum = f"tau{t_index}"
            two_k = 2.0 * big_theta_k[tau]
            for r in (1, 2, 3, 4):
                out.append(Call(stratum, "eval_reduced", r, u, tau))
            if t_index == NEAR_CUSP_TAU:
                continue
            for r in (1, 2, 3, 4):
                out.append(Call(stratum, "big_theta", r, two_k * u, tau))
            for ab in chars:
                out.append(Call(stratum, "theta_char", ab, u, tau))
        return out

    return batch


def grid_k(seed: int) -> tuple[dict[complex, complex], dict]:
    """K per eval-grid tau, as a double for the inputs and in mp for the oracle."""
    taus, _ = grid_setup(seed)
    exact = {tau: mporacle.elliptic_k(tau) for tau in taus}
    return {tau: complex(k) for tau, k in exact.items()}, exact


# ---------------------------------------------------------------------------
# verify workloads


def verify_seed(seed: int, round_index: int) -> int:
    """The --seed thetakit receives in verify round round_index."""
    return seed * 1000 + round_index


def verify_argv(seed: int, round_index: int, trials: int, report: Path) -> list[str]:
    return [
        "verify", "--all",
        "--seed", str(verify_seed(seed, round_index)),
        "--trials", str(trials),
        "--json", str(report),
    ]


@contextlib.contextmanager
def per_id_timing(cli, samples: list[tuple[float, float]], meter: SpeedMeter):
    """Time each identity inside one `verify --all` call: (start, seconds).

    Rebinds cli.verify to call thetakit.verify once per id, and probes
    the machine speed between ids.  Each id has its own RNG stream
    derived from (seed, id), so the report is the same as from the
    single call; the determinism check re-runs round 0 without this
    shim and compares report digests.
    """
    engine_verify = cli.verify
    clock = time.perf_counter

    def split_verify(ids, **kwargs):
        reports = []
        for identity_id in ids:
            meter.maybe_probe()
            t0 = clock()
            reports.extend(engine_verify([identity_id], **kwargs))
            samples.append((t0, clock() - t0))
        return reports

    cli.verify = split_verify
    try:
        yield
    finally:
        cli.verify = engine_verify


def run_verify_round(cli, argv: list[str], report: Path) -> tuple[float, int, bytes]:
    """One `thetakit verify` call: wall time, exit code and report bytes."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    return wall, code, report.read_bytes()


def report_statuses(data: bytes) -> list[tuple[str, str]]:
    return [(r["id"], r["status"]) for r in json.loads(data)["reports"]]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
