"""Acceptance suite: the ten shipping criteria, one test each.

Every test prints a single PASS/FAIL line (visible with pytest -s);
tolerances are pinned here and nowhere else.  Criterion 1 is the main
run: the complete built-in catalog at 200 seeded trials.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager

import pytest

from conftest import random_point, random_tau
from oracles import theta_char_series
from thetakit import (
    ModularParameter,
    TruncationError,
    eval_reduced,
    gauss_product_theta4,
    reduce_tau,
    theta,
    theta_constants,
    theta_product,
    zeros_of,
)
from thetakit.cli import main as cli_main
from thetakit.identities import (
    MANIFEST,
    ParseError,
    STRESS_BOX,
    VariableBinding,
    builtin_catalog,
    catalog_by_id,
    catalog_ids,
    evaluate_identity,
    format_identity,
    koornwinder_equivalence_check,
    parse_identity,
    structurally_equal,
    verify,
)
from thetakit.identities.engine import _sample_binding
from thetakit.reduction import apply_word_to_tau, in_fundamental_domain


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {label}")


def test_criterion_01_full_catalog_verification():
    with criterion(1, "full catalog, 200 seeded trials, rel residual < 1e-9"):
        ids = catalog_ids()
        assert len(ids) >= 150
        covered = set()
        for entry in MANIFEST.values():
            covered.update(entry.get("ids", []))
            covered.update(entry.get("subsumed_by", []))
        assert covered == set(ids)  # catalog complete per the manifest
        started = time.perf_counter()
        reports = verify(ids, trials=200, seed=42, rel_tol=1e-9)
        elapsed = time.perf_counter() - started
        bad = [r.identity_id for r in reports if r.max_rel_residual >= 1e-9]
        assert not bad, f"identities over tolerance: {bad}"
        assert elapsed < 60.0, f"main run took {elapsed:.1f}s"


def test_criterion_02_stress_regime_and_reduction_necessity():
    with criterion(2, "stress regime (Im tau in [1e-3, 0.1]) via reduction; direct summation fails"):
        stress_ids = [i for i in catalog_ids() if i.startswith(("B.I.", "W.", "D."))]
        assert len(stress_ids) == 44
        reports = verify(stress_ids, trials=50, seed=42, box=STRESS_BOX, rel_tol=1e-8)
        bad = [r.identity_id for r in reports if r.max_rel_residual >= 1e-8]
        assert not bad, f"stress failures via reduction: {bad}"

        # reduction disabled: the same seeded trials must show failures
        by_id = catalog_by_id()
        direct_failures = 0
        import random as _random

        for identity_id in stress_ids:
            ident = by_id[identity_id]
            rng = _random.Random(f"42:{identity_id}")
            for _ in range(50):
                values, tau = _sample_binding(rng, ident.variables, STRESS_BOX)
                binding = VariableBinding(dict(zip(ident.variables, values)), ModularParameter(tau))
                try:
                    _, rel = evaluate_identity(ident, binding, use_reduction=False)
                except TruncationError:
                    direct_failures += 1
                    continue
                if not math.isfinite(rel) or rel > 1e-8:
                    direct_failures += 1
        assert direct_failures >= 1, "direct summation unexpectedly survived the stress box"

        # deterministic corner: the symmetric window blows past max_terms
        corner = VariableBinding(
            {"u": 0.5 + 0.9j, "x": 0.4 + 0.9j, "v": 0.1, "y": 0.2},
            ModularParameter(0.07 + 0.001j),
        )
        with pytest.raises(TruncationError):
            evaluate_identity(by_id["W.I.r1"], corner, use_reduction=False)
        _, rel = evaluate_identity(by_id["W.I.r1"], corner, use_reduction=True)
        assert rel < 1e-8


def test_criterion_03_series_product_agreement(rng):
    with criterion(3, "series vs product, 200 samples in the reduced domain, rel < 1e-11"):
        checked = 0
        while checked < 200:
            tau = random_tau(rng, im=(0.87, 2.0))
            if abs(tau.tau) < 1.0:
                continue
            u = random_point(rng)
            r = rng.choice([1, 2, 3, 4])
            s = theta(r, u, tau)
            p = theta_product(r, u, tau)
            assert abs(s - p) < 1e-11 * (1.0 + abs(s))
            checked += 1


def test_criterion_04_theta_constant_identities(rng):
    with criterion(4, "theta-constant identities at 100 random tau; product form of t4(0) to 1e-12"):
        for _ in range(100):
            tau = random_tau(rng)
            d1, c2, c3, c4 = theta_constants(tau)
            assert abs(d1 - math.pi * c2 * c3 * c4) < 1e-11 * abs(d1)
            assert abs(c3**4 - c2**4 - c4**4) < 1e-11 * abs(c3**4)
            series = theta(4, 0.0, tau)
            assert abs(gauss_product_theta4(tau) - series) < 1e-12 * (1.0 + abs(series))


def test_criterion_05_spot_value():
    with criterion(5, "theta_3(0|i) against the pre-build direct-summation oracle"):
        reference = theta_char_series(0.0, 0.0, 0.0, 1j)  # independent 50-term sum
        assert reference.real == pytest.approx(1.08643481121331, abs=1e-13)
        value = theta(3, 0.0, ModularParameter(1j))
        assert abs(value - reference) < 1e-11
        assert abs(value - 1.08643481121331) < 1e-11


def test_criterion_06_modular_consistency(rng):
    with criterion(6, "all eight modular relations at 100 random (u, tau); word round trip to 1e-14"):
        import cmath

        s_map = {1: (1, -1j), 2: (4, 1.0), 3: (3, 1.0), 4: (2, 1.0)}
        for _ in range(100):
            tau = random_tau(rng)
            u = random_point(rng)
            tv = tau.tau
            shifted = ModularParameter(tv + 1)
            phase = cmath.exp(0.25j * math.pi)
            for r, want in (
                (1, phase * theta(1, u, tau)),
                (2, phase * theta(2, u, tau)),
                (3, theta(4, u, tau)),
                (4, theta(3, u, tau)),
            ):
                got = theta(r, u, shifted)
                assert abs(got - want) < 1e-10 * (1.0 + abs(want))
            root = cmath.sqrt(-1j * tv)
            assert root.real > 0.0
            inverted = ModularParameter(-1.0 / tv)
            for r, (s, pref) in s_map.items():
                lhs = eval_reduced(r, u / tv, inverted)
                rhs = pref * root * cmath.exp(1j * math.pi * u * u / tv) * eval_reduced(s, u, tau)
                assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))
        for _ in range(100):
            tau = ModularParameter(complex(rng.uniform(-5, 5), rng.uniform(1e-3, 10)))
            reduced, word = reduce_tau(tau)
            assert in_fundamental_domain(reduced.tau)
            forward = apply_word_to_tau(word, tau.tau)
            assert abs(forward - reduced.tau) <= 1e-14 * (1.0 + abs(reduced.tau))


def test_criterion_07_zeros():
    with criterion(7, "lattice zeros for every index at tau = i and 0.3+0.8i, |n|,|m| <= 2"):
        for tau_value in (1j, 0.3 + 0.8j):
            tau = ModularParameter(tau_value)
            for r in (1, 2, 3, 4):
                for z in zeros_of(r, tau, range(-2, 3), range(-2, 3)):
                    scale = abs(eval_reduced(r, z + 0.1, tau))
                    assert abs(eval_reduced(r, z, tau)) < 1e-9 * scale


def test_criterion_08_equivalence_check(rng):
    with criterion(8, "five-relation equivalence check at 100 random bindings, rel < 1e-10"):
        for _ in range(100):
            report = koornwinder_equivalence_check(
                random_point(rng),
                random_point(rng),
                random_point(rng),
                random_point(rng),
                random_tau(rng),
            )
            assert report.max_residual < 1e-10


def test_criterion_09_parser_and_negative_control():
    with criterion(9, "print/parse round trip on the catalog; malformed inputs; sign-flip control"):
        for ident in builtin_catalog():
            assert structurally_equal(ident, parse_identity(format_identity(ident), ident.id))

        # the three documented malformed inputs, each with a position
        malformed = [
            ("t5(u|tau) = t1(u|tau)", "unknown theta index"),
            ("t1(u|tau = t2(v|tau)", "expected ')'"),
            ("t1(u|tau) = t2(v|tau) = t3(u|tau)", "duplicate '='"),
        ]
        for text, needle in malformed:
            with pytest.raises(ParseError) as err:
                parse_identity(text)
            assert needle in str(err.value)
            assert "position" in str(err.value)
            assert err.value.position >= 0

        good = catalog_by_id()["B.I.1"]
        flipped = dataclasses.replace(
            good,
            id="B.I.1-flipped",
            rhs=(good.rhs[0], dataclasses.replace(good.rhs[1], coefficient=-good.rhs[1].coefficient)),
        )
        (report,) = verify(
            ["B.I.1-flipped"], trials=50, seed=42, catalog={"B.I.1-flipped": flipped}
        )
        assert report.max_rel_residual > 1e-2
        assert report.failing_binding is not None


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    with criterion(10, "verify --all --seed 42 twice produces byte-identical JSON"):
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            code = cli_main(["verify", "--all", "--seed", "42", "--json", str(path)])
            assert code == 0
        capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["all_pass"] is True
        assert len(payload["reports"]) == len(builtin_catalog())
