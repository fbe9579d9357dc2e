"""thetakit benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    verify-default  `thetakit verify --all` in the default sampling box
    eval-scatter    eval_reduced at a fresh tau per call, five input regimes
    eval-grid       eval_reduced, big_theta and theta_char on dense u grids
                    at three fixed taus

--trace 0 measures for --seconds and prints the end-to-end metrics.
--trace 1 runs one fixed, seeded unit of the workload with every layer
boundary wrapped, prints the per-layer metrics, and reports the tracing
overhead against the same unit run untraced in a fresh interpreter.
--smoke shrinks every size, for the benchmark's own tests.

Every output is checked: every eval result for finiteness and a seeded
sample of them against mpmath, the verify workload through its JSON
report (statuses, exit code, and the report digest of round 0 re-run
without per-id timing).  No operation fails at the seed commit; any
failure is counted in `failed` and sets `correct` false.  The known
defects that the workloads stop short of are reproduced, untimed, in
every run (defects.py) and reported by name.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy

import defects
import mporacle
import tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("verify-default", "eval-scatter", "eval-grid")

SETUP_SNIPPET = "import sys; sys.path.insert(0, 'src'); import thetakit; thetakit.builtin_catalog()"
# a thetakit-free child with similar start-up work, and its time on the reference machine
SETUP_REFERENCE_SNIPPET = "import argparse, dataclasses, fractions, json, re, numpy"
SETUP_REFERENCE_S = 0.2


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int = 11
    verify_trials: int = 5
    scatter_chunk: int = 250
    scatter_quantum: int = 2000
    grid_points: int = 12
    oracle_per_stratum: int = 20
    parse_repeats: int = 5


SMOKE = Sizes(
    setup_repeats=1,
    verify_trials=1,
    scatter_chunk=25,
    scatter_quantum=25,
    grid_points=2,
    oracle_per_stratum=1,
    parse_repeats=1,
)


@dataclass
class Result:
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    report: dict = field(default_factory=dict)
    # further figures printed by name for a reader, not part of the JSON result
    named: dict[str, tuple[float, str]] = field(default_factory=dict)


def load_thetakit():
    if not (ROOT / "src" / "thetakit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no thetakit sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import thetakit

    if Path(thetakit.__file__).resolve().parent != ROOT / "src" / "thetakit":
        sys.exit(f"perfbench: imported thetakit from {thetakit.__file__}, not this checkout")
    return thetakit


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": git_sha(),
        "src_sha256": source.hexdigest(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_wall(snippet: str) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - t0


def setup_sample() -> tuple[float, float]:
    """Scaled and unscaled wall time of a fresh interpreter that imports
    thetakit and builds the catalog.

    A child's start-up (exec, imports from disk) does not follow the
    parent's interpreter speed, so the speed probes do not scale it (they
    widened its spread).  It is scaled by the start of a thetakit-free
    reference child right after it: the time on a machine that starts
    that child in SETUP_REFERENCE_S.  Over 30 alternating pairs the
    medians of ten ratios stayed within +-2% while the medians of ten raw
    times moved by 18% (2-core Xeon VM).  Samples are spread over the run.
    """
    wall = child_wall(SETUP_SNIPPET)
    return wall * SETUP_REFERENCE_S / child_wall(SETUP_REFERENCE_SNIPPET), wall


def op_metrics(ops: int, busy_s: float, latencies: list[float]) -> dict[str, float]:
    lat = sorted(latencies)
    return {
        "ops_per_s": ops / busy_s,
        "op_p50_us": wl.nearest_rank(lat, 0.50) * 1e6,
        "op_p99_us": wl.nearest_rank(lat, 0.99) * 1e6,
    }


# ---------------------------------------------------------------------------
# verify workloads


def verify_end_to_end(
    tk, name: str, seed: int, seconds: float, sizes: Sizes, meter: wl.SpeedMeter
) -> Result:
    ids = [ident.id for ident in tk.builtin_catalog()]
    trials = sizes.verify_trials
    per_id: list[tuple[float, float]] = []
    # (start, end, wall without the speed probes taken inside the call)
    rounds: list[tuple[float, float, float]] = []
    failures: dict[str, int] = {}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        report = Path(tmp) / "verify.json"
        start = time.perf_counter()
        with wl.per_id_timing(tk.cli, per_id, meter):
            while not rounds or time.perf_counter() - start < seconds:
                argv = wl.verify_argv(seed, len(rounds), trials, report)
                meter.probe()
                # keeps the collector from re-scanning earlier rounds' reports
                gc.freeze()
                probed = meter.spent
                t0 = time.perf_counter()
                wall, code, data = wl.run_verify_round(tk.cli, argv, report)
                rounds.append((t0, time.perf_counter(), wall - (meter.spent - probed)))
                if len(rounds) == 1:
                    first = data
                statuses = wl.report_statuses(data)
                if [i for i, _ in statuses] != ids:
                    problems.append(f"round {len(rounds) - 1}: report ids differ from the catalog")
                failing = [i for i, status in statuses if status != "pass"]
                for i in failing:
                    failures[i] = failures.get(i, 0) + 1
                if code != (1 if failing else 0):
                    problems.append(f"round {len(rounds) - 1}: exit code {code} with {len(failing)} failing ids")
        meter.probe()
        _, _, again = wl.run_verify_round(tk.cli, wl.verify_argv(seed, 0, trials, report), report)
    round0 = wl.digest(first)
    if wl.digest(again) != round0:
        problems.append("round 0 re-run without per-id timing gave a different report")
    if failures:
        problems.append(f"failing ids: {sorted(failures)}")
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())["verify_digests"][name]
    recorded = baseline["digests"].get(str(seed)) if baseline["trials"] == trials else None
    total_trials = len(ids) * trials * len(rounds)
    attempted = len(ids) * len(rounds)
    failed = sum(failures.values())
    return Result(
        attempted=attempted,
        failed=failed,
        correct=not problems,
        metrics=op_metrics(
            total_trials,
            sum(wall * meter.scale(t0, t1) for t0, t1, wall in rounds),
            [d / trials * meter.scale(t0, t0 + d) for t0, d in per_id],
        ),
        report={
            "operation": "identity trial (ops); one id's trials in one verify call, per trial (latency)",
            "rounds": len(rounds),
            "trials_per_round": trials,
            "latency_samples": len(per_id),
            "unscaled_metrics": op_metrics(
                total_trials, sum(wall for _, _, wall in rounds), [d / trials for _, d in per_id]
            ),
            "failed_frac": failed / attempted,
            "failing_ids": failures,
            "report_sha256_round0": round0,
            "deterministic": wl.digest(again) == round0,
            "baseline_digest": "not recorded for this seed"
            if recorded is None
            else ("match" if recorded == round0 else "differs"),
            "problems": problems,
        },
    )


# ---------------------------------------------------------------------------
# eval workloads


def eval_run(tk, name: str, seed: int, sizes: Sizes) -> wl.EvalRun:
    if name == "eval-scatter":
        return wl.EvalRun(tk, wl.scatter_batches(seed, sizes.scatter_chunk))
    k_double, k_exact = wl.grid_k(seed)
    return wl.EvalRun(tk, wl.grid_batches(seed, sizes.grid_points, k_double), k_exact)


def eval_end_to_end(
    tk, name: str, seed: int, seconds: float, sizes: Sizes, meter: wl.SpeedMeter
) -> Result:
    run = eval_run(tk, name, seed, sizes)
    run.run(seconds, meter)
    checked = run.check(seed, name, sizes.oracle_per_stratum)
    outcomes: dict[str, dict[str, int]] = {}
    for call, _, verdict in checked:
        per = outcomes.setdefault(call.stratum, {})
        per[verdict] = per.get(verdict, 0) + 1
    failing = sorted({f"{call.stratum}:{call.kind}:{v}" for call, _, v in checked if v != "ok"})
    failed = sum(1 for _, _, verdict in checked if verdict != "ok")
    problems = [f"failed calls: {failing}"] if failing else []
    scaled = run.scaled_latencies(meter)
    return Result(
        attempted=len(run.calls),
        failed=failed,
        correct=not problems,
        metrics=op_metrics(len(scaled), sum(scaled), scaled),
        report={
            "operation": "one evaluator call",
            "latency_samples": len(scaled),
            "unscaled_metrics": op_metrics(len(run.latencies), sum(run.latencies), run.latencies),
            "checks": "every call for a finite result; against mpmath, >= "
            f"{mporacle.DPS} digits, rel tol {mporacle.REL_TOL:g}: {sizes.oracle_per_stratum} "
            "seeded calls per stratum and every call that raised or was not finite",
            "oracle_checked": len(checked),
            "oracle_outcomes": outcomes,
            "problems": problems,
        },
    )


# ---------------------------------------------------------------------------
# traced run


@dataclass
class Quantum:
    """The fixed unit of work a traced run measures, and its checks."""

    wall: float
    trials: int
    attempted: int
    failed: int
    problems: list[str]


def run_quantum(tk, name: str, seed: int, sizes: Sizes) -> Quantum:
    """Round 0 of a verify workload, the first scatter calls, or grid pass 0.

    The checks here need no oracle: report statuses and exit code for
    verify, and for eval non-finite results and exceptions.
    """
    if name.startswith("verify"):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            report = Path(tmp) / "verify.json"
            argv = wl.verify_argv(seed, 0, sizes.verify_trials, report)
            wall, code, data = wl.run_verify_round(tk.cli, argv, report)
        failing = [i for i, status in wl.report_statuses(data) if status != "pass"]
        problems = [f"failing ids: {failing}"] if failing else []
        if code != (1 if failing else 0):
            problems.append(f"exit code {code} with {len(failing)} failing ids")
        ids = len(tk.builtin_catalog())
        return Quantum(wall, ids * sizes.verify_trials, ids, len(failing), problems)
    if name == "eval-scatter":
        calls = wl.scatter_inputs(seed, 0, sizes.scatter_quantum)
        batch = [wl.Call(regime, "eval_reduced", r, u, tau) for regime, r, u, tau in calls]
        run = wl.EvalRun(tk, lambda _index: batch)
    else:
        run = eval_run(tk, name, seed, sizes)
    wall = run.run(None)
    failed = sum(1 for o in run.outcomes if not wl.finite(o))
    problems = [f"{failed} calls raised or were not finite"] if failed else []
    return Quantum(wall, 0, len(run.outcomes), failed, problems)


def untraced_quantum_wall(name: str, seed: int, smoke: bool) -> float:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--quantum"]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True, timeout=170)
    return json.loads(done.stdout.strip().splitlines()[-1])["quantum_wall_s"]


def traced(tk, name: str, seed: int, sizes: Sizes, smoke: bool) -> Result:
    entries = [line.split("\t") for line in tk.catalog_tsv().splitlines()]
    parse_times = []
    for _ in range(sizes.parse_repeats):
        t0 = time.perf_counter()
        for identity_id, dsl, _tag in entries:
            tk.parse_identity(dsl, identity_id)
        parse_times.append(time.perf_counter() - t0)

    tracer = tracing.Tracer()
    with tracer.install():
        quantum = run_quantum(tk, name, seed, sizes)
    untraced = untraced_quantum_wall(name, seed, smoke)
    wall, trials = quantum.wall, quantum.trials

    calls, self_time = tracer.calls, tracer.self_time
    reductions = calls["reduction.full_reduction"]
    windows = sorted(tracer.windows)
    metrics = {
        "identities.engine.reductions_per_trial": reductions / trials if trials else 0.0,
        "identities.engine.theta_calls_per_trial": calls["core.theta"] / trials if trials else 0.0,
        "reduction.full_reduction.calls": reductions,
        "reduction.full_reduction.self_s": self_time["reduction.full_reduction"],
        "reduction.apply_modular_step.calls": calls["reduction.apply_modular_step"],
        "reduction.steps_per_reduction": calls["reduction.apply_modular_step"] / reductions if reductions else 0.0,
        "reduction.reduce_tau.calls": calls["reduction.reduce_tau"],
        "reduction.tau_cache_hit_ratio": 1.0 - calls["reduction.reduce_tau"] / reductions if reductions else 0.0,
        "reduction.reduce_u.self_s": self_time["reduction.reduce_u"],
        "reduction.half_period_shift.calls": calls["reduction.half_period_shift"],
        "core.theta.calls": calls["core.theta"],
        "core.theta.self_s": self_time["core.theta"],
        "core.truncation_index.self_s": self_time["core.truncation_index"],
        "core.window_n.p50": statistics.median_low(windows) if windows else 0,
        "core.window_n.max": windows[-1] if windows else 0,
        "core.terms_summed": sum(2 * n + 1 for n in windows),
        "core.theta_char.calls": calls["core.theta_char"],
        "core.theta1_prime0.calls": calls["core.theta1_prime0"],
        "core.gauss_product_theta4.calls": calls["core.gauss_product_theta4"],
        "core.truncation_errors": tracer.errors["core.truncation_index"]
        + tracer.errors["core.gauss_product_theta4"],
        "notation.elliptic_k.calls": calls["notation.elliptic_k"],
        "notation.big_theta.calls": calls["notation.big_theta"],
        "identities.dsl.parse_s": statistics.median(parse_times),
        "tracing_overhead": wall - untraced,
    }
    layers = {
        layer: {"calls": calls[layer], "wall_s": tracer.wall[layer], "self_s": self_time[layer]}
        for layer in tracing.BOUNDARIES
    }
    return Result(
        attempted=quantum.attempted,
        failed=quantum.failed,
        correct=not quantum.problems,
        metrics=metrics,
        report={
            "problems": quantum.problems,
            "note": "calls, counts and window sizes repeat exactly for a given seed; "
            "times do not. Self times of layers a workload does not reach are 0 "
            "and appear only in `layers`.",
            "traced_wall_s": wall,
            "untraced_wall_s": untraced,
            "layers": layers,
        },
        named={
            f"{layer}.self_s": (self_time[layer], "s")
            for layer in (
                "identities.engine.verify",
                "core.theta_char",
                "core.gauss_product_theta4",
                "notation.elliptic_k",
                "notation.big_theta",
                "cli.main",
            )
        },
    )


# ---------------------------------------------------------------------------


def emit(result: Result, spec_metrics: list[dict], context: dict) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"report": result.report}, sort_keys=True, default=str))
    for name, (value, unit) in result.named.items():
        print(f"# {name:<44} {value:>16.6g} {unit}")
    metrics = {}
    for m in spec_metrics:
        value = result.metrics[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<44} {value:>16.6g} {m['unit']}")
    print(f"# attempted {result.attempted}  failed {result.failed}  correct {result.correct}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the benchmark's own tests")
    parser.add_argument("--quantum", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tk = load_thetakit()
    import thetakit.cli  # noqa: F401  (makes tk.cli available)

    sizes = SMOKE if args.smoke else Sizes()
    if args.quantum:
        print(json.dumps({"quantum_wall_s": run_quantum(tk, args.workload, args.seed, sizes).wall}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "environment": environment()}
    if args.trace:
        result = traced(tk, args.workload, args.seed, sizes, args.smoke)
        emit(result, spec["per_layer"], context)
        return 0
    # one unmeasured start first, so compiled bytecode is in place as it
    # is for every later CLI call; then set-up samples every few seconds
    setup_sample()
    setup = [setup_sample()]
    meter = wl.SpeedMeter(lambda: setup.append(setup_sample()), args.seconds / sizes.setup_repeats)
    measure = verify_end_to_end if args.workload.startswith("verify") else eval_end_to_end
    result = measure(tk, args.workload, args.seed, args.seconds, sizes, meter)
    while len(setup) < sizes.setup_repeats:
        setup.append(setup_sample())
    known = result.report["known_defects"] = defects.check(tk, ROOT)
    reproduced = sum(1 for d in known.values() if d["verdict"] == "reproduces")
    result.named["known_defects_reproduced"] = (reproduced, f"of {len(known)}")
    result.metrics["setup_s"] = statistics.median(scaled for scaled, _ in setup)
    result.report["unscaled_metrics"]["setup_s"] = statistics.median(wall for _, wall in setup)
    result.report["setup_samples_s"] = setup
    result.report["speed_probes"] = {
        "count": len(meter.durations),
        "median_s": statistics.median(meter.durations),
        "reference_s": meter.REFERENCE_S,
    }
    m = result.metrics
    if args.workload.startswith("verify"):
        result.named["trials_per_s"] = (m["ops_per_s"], "trials/s")
    else:
        result.named["evals_per_s"] = (m["ops_per_s"], "evals/s")
        result.named["eval_p50_us"] = (m["op_p50_us"], "us")
        result.named["eval_p99_us"] = (m["op_p99_us"], "us")
    result.named["failed_frac"] = (result.failed / result.attempted, "ratio")
    emit(result, spec["end_to_end"], context)
    return 0


if __name__ == "__main__":
    sys.exit(main())
