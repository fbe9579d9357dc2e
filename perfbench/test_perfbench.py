"""Tests of the benchmark itself, at smoke sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import defects  # noqa: E402
import mporacle  # noqa: E402
import thetakit  # noqa: E402
import thetakit.cli  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert any(line.startswith(f"# {m['name']} ") and line.endswith(m["unit"]) for line in lines)
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_perturbed_value_is_classified_as_failed():
    u, tau = 0.27 - 0.41j, 0.31 + 0.83j
    value = thetakit.eval_reduced(2, u, thetakit.ModularParameter(tau))
    ref = mporacle.theta(2, u, tau)
    assert mporacle.classify(value, ref) == "ok"
    assert mporacle.classify(value * (1 + 1e-6), ref) == "mismatch"
    assert mporacle.classify(complex(math.nan, 0.0), ref) == "nonfinite"
    assert mporacle.classify(ValueError("boom"), ref) == "raised"
    assert mporacle.classify(OverflowError("too big"), ref) == "raised"


def test_every_non_finite_call_is_checked_not_only_the_sample():
    calls = [workloads.Call("s", "eval_reduced", 3, 0.1j * k, 0.2 + 1.1j) for k in range(50)]
    run = workloads.EvalRun(thetakit, lambda _index: calls)
    run.run(None)
    run.outcomes[37] = complex(math.nan, 0.0)
    checked = run.check(seed=1, name="test", per_stratum=0)
    assert [(call, verdict) for call, _, verdict in checked] == [(calls[37], "nonfinite")]


def test_every_known_defect_is_reported(tmp_path):
    known = defects.check(thetakit, tmp_path)
    assert set(known) == {d.name for d in defects.DEFECTS}
    for entry in known.values():
        assert entry["verdict"] in ("reproduces", "fixed", "changed")
        assert entry["cause"]


def test_refusing_an_out_of_range_value_counts_as_correct():
    u, tau = 0.2 + 40.0j, 0.1 + 0.7j
    ref = mporacle.theta(3, u, tau)
    assert mporacle.outside_double_range(ref)
    assert mporacle.classify(OverflowError("too big"), ref) == "ok"
    assert mporacle.classify(complex(math.inf, math.inf), ref) == "nonfinite"
    assert mporacle.classify(1e300 + 0j, ref) == "range"


def test_q_quarter_correction_agrees_with_thetakit():
    tau = 3.3 + 0.7j
    for r in (1, 2, 3, 4):
        for u in (0.1 + 0.2j, -0.35 + 0.05j):
            value = thetakit.eval_reduced(r, u, thetakit.ModularParameter(tau))
            assert mporacle.relative_error(value, mporacle.jtheta(r, u, tau)) < 1e-12
            assert mporacle.relative_error(value, mporacle.theta(r, u, tau)) < 1e-12
            if r in (1, 2):
                with mpmath.workdps(mporacle.DPS):
                    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
                    principal = mpmath.jtheta(r, mpmath.pi * mpmath.mpc(u), q)
                assert mporacle.relative_error(value, principal) > 0.5


def test_series_oracle_agrees_with_jtheta():
    for r, u, tau in [
        (1, 0.3 + 0.2j, 0.2 + 0.9j),
        (2, -0.4 + 3.1j, -7.6 + 1.2j),
        (3, 0.1 + 0.002j, 0.3 + 0.01j),
        (4, 0.45 - 0.3j, 0.5 + 0.5j),
    ]:
        series = mporacle.theta(r, u, tau)
        with mpmath.workdps(mporacle.DPS):
            assert abs(series - mporacle.jtheta(r, u, tau)) < 1e-40 * abs(series)


def test_missing_layer_boundary_stops_the_trace(monkeypatch):
    import thetakit.identities.engine as engine

    monkeypatch.delattr(engine, "theta")
    with pytest.raises(tracing.BoundaryMissing, match="layer boundary missing"):
        with tracing.Tracer().install():
            pass


def test_directory_without_sources_fails_without_a_result():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(["--workload", "eval-grid", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
