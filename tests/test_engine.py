"""Identity evaluation, randomized verification, and the equivalence check."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from conftest import random_point, random_tau
from oracles import theta_series
from trial_reference import mismatches, per_factor_values
from thetakit import ModularParameter, eval_reduced
from thetakit.identities import (
    J_DUAL,
    MANIFEST,
    STRESS_BOX,
    UnknownIdentityError,
    VariableBinding,
    canonical_form,
    catalog_by_id,
    dual_vars,
    evaluate_identity,
    koornwinder_equivalence_check,
    parse_identity,
    verify,
)

# frozen: theta_3(0|i)^4 from the 50-term series oracle
THETA3_AT_I_FOURTH = 1.3932039296856777


class TestDualVars:
    def test_zero_fixed(self):
        assert dual_vars(0, 0, 0, 0) == (0, 0, 0, 0)

    def test_unit_vector(self):
        assert dual_vars(1, 0, 0, 0) == (-0.5, 0.5, 0.5, 0.5)

    def test_quadruple_correspondence(self, rng):
        u, v, x, y = (random_point(rng) for _ in range(4))
        got = dual_vars(u + x, u - x, v + y, v - y)
        want = (v - x, v + x, u - y, u + y)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-14)

    @hsettings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)] * 4))
    def test_involution(self, quad):
        once = dual_vars(*quad)
        twice = dual_vars(*once)
        for a, b in zip(twice, quad):
            assert abs(a - b) <= 1e-13 * (1.0 + abs(b))


class TestBracketProduct:
    def test_constant_fourth_power(self):
        # the bracket [3333] at u = v = x = y = 0 is theta_3(0|tau)^4
        tau = ModularParameter(1j)
        bracket = "t3(u+x|tau)*t3(u-x|tau)*t3(v+y|tau)*t3(v-y|tau)"
        ident = parse_identity(f"{bracket} = {Fraction(THETA3_AT_I_FOURTH)}")
        binding = VariableBinding(dict.fromkeys("uvxy", 0j), tau)
        assert evaluate_identity(ident, binding)[0] < 1e-12
        val = eval_reduced(3, 0.0, tau) ** 4
        assert val.real == pytest.approx(THETA3_AT_I_FOURTH, abs=1e-12)
        assert val == pytest.approx(theta_series(3, 0, 1j) ** 4, rel=1e-12)


class TestEvaluateIdentity:
    def test_bilinear_at_fixed_binding(self):
        ident = catalog_by_id()["B.I.2"]
        binding = VariableBinding({"u": 0.3, "v": 0.1j}, ModularParameter(0.2 + 0.8j))
        _, rel = evaluate_identity(ident, binding)
        assert rel < 1e-11

    def test_theta_constant_identity(self):
        ident = catalog_by_id()["TC.tc1"]
        binding = VariableBinding({}, ModularParameter(0.1 + 0.9j))
        _, rel = evaluate_identity(ident, binding)
        assert rel < 1e-11

    def test_fully_degenerate_binding_is_guarded(self):
        # both sides vanish identically: the epsilon floor keeps rel finite
        ident = catalog_by_id()["B.I.1"]
        binding = VariableBinding({"u": 0.0, "v": 0.0}, ModularParameter(1j))
        abs_res, rel = evaluate_identity(ident, binding)
        assert abs_res < 1e-14
        assert rel < 1e-9

    def test_half_period_arguments_route_through_the_shift_table(self, rng):
        # quartic-power identity shifted by tau/2 stays an identity
        shifted = parse_identity(
            " + ".join(["*".join(["t1(u+1/2tau|tau)"] * 4), "*".join(["t3(u+1/2tau|tau)"] * 4)])
            + " = "
            + " + ".join(["*".join(["t2(u+1/2tau|tau)"] * 4), "*".join(["t4(u+1/2tau|tau)"] * 4)]),
            "shifted-quartic",
        )
        # bilinear identity with v -> v + tau: half-integer shifts at 2tau
        bilinear = parse_identity(
            "t1(u|tau)*t2(v+tau|tau) = t1(u+v+tau|2tau)*t4(u-v-tau|2tau)"
            " + t4(u+v+tau|2tau)*t1(u-v-tau|2tau)",
            "shifted-bilinear",
        )
        for ident in (shifted, bilinear):
            for _ in range(25):
                binding = VariableBinding(
                    {"u": random_point(rng), "v": random_point(rng)}, random_tau(rng)
                )
                _, rel = evaluate_identity(ident, binding)
                assert rel < 1e-10, ident.id

    def test_direct_mode_matches_reduced_mode_in_easy_regime(self, rng):
        ident = catalog_by_id()["W.V"]
        for _ in range(10):
            binding = VariableBinding(
                {n: random_point(rng) for n in ident.variables}, random_tau(rng)
            )
            _, rel_fast = evaluate_identity(ident, binding, use_reduction=True)
            _, rel_slow = evaluate_identity(ident, binding, use_reduction=False)
            assert rel_fast < 1e-11 and rel_slow < 1e-11


class TestVerify:
    def test_deterministic_reports(self):
        a = verify(["R.I.1"], trials=1, seed=7)
        b = verify(["R.I.1"], trials=1, seed=7)
        assert a == b

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            verify(["NO.SUCH"], trials=1)

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            verify(["B.I.1"], trials=0)

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_rejects_a_rel_tol_that_cannot_fail(self, rel_tol):
        # a nan or infinite tolerance passed this identity, off by a factor 2
        bad = parse_identity("t3(u|tau)*t3(u|tau) = 2*t3(u|tau)*t3(u|tau)", "bad")
        with pytest.raises(ValueError, match="rel_tol"):
            verify(["bad"], trials=3, catalog={"bad": bad}, rel_tol=rel_tol)

    def test_negative_control_sign_flip(self):
        good = catalog_by_id()["B.I.1"]
        bad_rhs = (good.rhs[0], dataclasses.replace(good.rhs[1], coefficient=-good.rhs[1].coefficient))
        corrupted = dataclasses.replace(good, id="B.I.1-corrupt", rhs=bad_rhs)
        (report,) = verify(
            ["B.I.1-corrupt"],
            trials=20,
            seed=3,
            catalog={"B.I.1-corrupt": corrupted},
        )
        assert report.max_rel_residual > 1e-2
        assert report.failing_binding is not None

    def test_small_batch_passes(self):
        ids = ["B.I.3", "W.II.1", "J.III.4", "R.II.7", "P.bc3c", "AD.ad3b.2", "D.df4d", "L.lt2"]
        for report in verify(ids, trials=25, seed=11):
            assert report.max_rel_residual < 1e-9, report.identity_id
            assert report.failing_binding is None

    def test_stress_box_smoke(self):
        for report in verify(["B.I.5", "D.df2a", "W.III.r2"], trials=10, seed=5, box=STRESS_BOX, rel_tol=1e-8):
            assert report.max_rel_residual < 1e-8, report.identity_id

    def test_reports_come_back_in_request_order(self):
        ids = ["TC.tc2", "B.I.1", "G.g1"]
        reports = verify(ids, trials=2, seed=1)
        assert [r.identity_id for r in reports] == ids


class TestJDuality:
    def test_both_partners_verify(self):
        ids = sorted(set(J_DUAL) | set(J_DUAL.values()))
        for report in verify(ids, trials=15, seed=23, rel_tol=1e-10):
            assert report.max_rel_residual < 1e-10, report.identity_id

    def test_dual_binding_exchanges_the_sides(self, rng):
        # evaluating a J identity at the dual binding reproduces its
        # partner's sides (up to an overall sign), not just its residual
        by_id = catalog_by_id()
        u, v, x, y = (random_point(rng) for _ in range(4))
        tau = random_tau(rng)
        binding = VariableBinding({"u": u, "v": v, "x": x, "y": y}, tau)
        dual_binding = VariableBinding({"u": v, "v": u, "x": -x, "y": -y}, tau)

        def side_value(terms, b):
            total = 0j
            for term in terms:
                prod = complex(term.coefficient)
                for f in term.factors:
                    arg = complex(float(f.argument.const))
                    for name, c in f.argument.var_coeffs:
                        arg += c * b.values[name]
                    prod *= eval_reduced(f.index, arg, b.tau)
                total += prod
            return total

        for a, b in J_DUAL.items():
            ident_a, ident_b = by_id[a], by_id[b]
            lhs_a_dual = side_value(ident_a.lhs, dual_binding)
            lhs_b = side_value(ident_b.lhs, binding)
            rhs_b = side_value(ident_b.rhs, binding)
            scale = 1.0 + abs(lhs_b)
            matches = (
                abs(lhs_a_dual - rhs_b) <= 1e-10 * scale
                or abs(lhs_a_dual + rhs_b) <= 1e-10 * scale
                or abs(lhs_a_dual - lhs_b) <= 1e-10 * scale
                or abs(lhs_a_dual + lhs_b) <= 1e-10 * scale
            )
            assert matches, (a, b)


class TestKoornwinder:
    def test_totally_symmetric_point(self):
        from thetakit.identities.engine import _koornwinder_relations

        # each index-1 quad is a product of zeros of t1, i.e. rounding noise:
        # A1-B1=C1, which holds no index-2 quad, reads the engine's O(1)
        binding = VariableBinding(dict.fromkeys("uvxy", 0j), ModularParameter(1j))
        report = koornwinder_equivalence_check(0, 0, 0, 0, binding.tau)
        for name, relation in _koornwinder_relations().items():
            assert report.residuals[name] == evaluate_identity(relation, binding)[1], name
        assert max(r for name, r in report.residuals.items() if name != "A1-B1=C1") < 1e-12

    def test_random_binding(self, rng):
        for _ in range(10):
            report = koornwinder_equivalence_check(
                random_point(rng),
                random_point(rng),
                random_point(rng),
                random_point(rng),
                ModularParameter(0.9j),
            )
            assert report.max_residual < 1e-10

    def test_overflowing_quads_stay_checkable(self):
        # at Im u = 12 the raw quads overflow doubles; the split form does not
        report = koornwinder_equivalence_check(
            0.3 + 12j, 0.1 + 0.2j, 0.2 - 0.1j, 0.05 + 0.3j, ModularParameter(1j)
        )
        assert report.max_residual < 1e-10

    def test_each_relation_is_the_one_its_name_writes(self):
        # every name, written out here, has its relation's canonical form,
        # and the three catalog relations are the entries themselves
        from thetakit.identities.engine import _koornwinder_relations

        quads = {
            f"{name}{j}": "*".join(f"t{j}({p}{sign}{q}|tau)" for p, q in pairs for sign in "+-")
            for name, pairs in (("A", ("ux", "vy")), ("B", ("uy", "vx")), ("C", ("uv", "xy")))
            for j in (1, 2)
        }
        by_id = catalog_by_id()
        ids = {"A1-B1=B2-A2": "J.F.1", "A1-B1=C1": "W.III.r1", "C1=B2-A2": "W.III.r2"}
        for name, relation in _koornwinder_relations().items():
            written = parse_identity(re.sub("[ABC][12]", lambda m: quads[m[0]], name), name)
            assert canonical_form(relation) == canonical_form(written), name
            if name in ids:
                assert relation is by_id[ids[name]]
        assert ids.keys() < _koornwinder_relations().keys()


def test_manifest_checks_name_public_attributes():
    import thetakit.identities

    checked_by = {entry["checked_by"] for entry in MANIFEST.values() if "checked_by" in entry}
    assert checked_by
    for name in checked_by:
        assert name in thetakit.identities.__all__ and callable(getattr(thetakit.identities, name))


def test_verify_reports_truncation_exhaustion_as_failure():
    # the alternating product for t4(0) cannot converge within the term
    # cap at the bottom of the stress box; verify must report, not raise
    from thetakit.identities import SamplingBox

    floor_box = SamplingBox(tau_im=(1e-3, 1.5e-3))
    (report,) = verify(["G.g1"], trials=3, seed=1, box=floor_box, rel_tol=1e-8)
    assert report.max_rel_residual == float("inf")
    assert report.failing_binding is not None


def test_verify_reports_an_unreducible_draw_as_failure():
    # at Im tau ~ 1e-310 the lattice shift of u overflows doubles: each
    # trial fails with abs = rel = inf and the run goes on, as for a
    # TruncationError; the first failing draw is the one reported
    from thetakit.identities import SamplingBox
    from thetakit.identities.engine import _sample_binding

    box = SamplingBox(tau_im=(1e-310, 1e-309))
    (report,) = verify(["B.I.1"], trials=2, seed=42, box=box)
    assert report.max_abs_residual == report.max_rel_residual == float("inf")
    variables = catalog_by_id()["B.I.1"].variables
    values, tau = _sample_binding(random.Random("42:B.I.1"), variables, box)
    assert report.failing_binding.tau.tau == tau
    assert list(report.failing_binding.values.values()) == list(values)
    assert mismatches(["B.I.1", "G.g1", "P.bc3c", "W.I.r1"], trials=2, seed=42, box=box) == []


@pytest.mark.parametrize(
    "tau_im",
    [
        (-1.0, 1.0), (0.0, 1.0), (1.0, float("inf")), (float("nan"), 1.0), (1.0, float("nan")), (2.0, 1.0),
        (), (1.0,), (1.0, 2.0, 3.0),  # not a pair
    ],
)
def test_sampling_box_rejects_a_range_outside_the_upper_half_plane(tau_im):
    from thetakit.identities import SamplingBox

    with pytest.raises(ValueError, match="tau_im"):
        SamplingBox(tau_im=tau_im)


def test_verify_walks_each_fresh_tau_past_the_reduction_cache():
    from thetakit.reduction import _tau_path

    before = _tau_path.cache_info()
    verify(["B.I.1", "P.bc3c", "TC.tc1", "G.g1", "W.I.r1"], trials=5, seed=7)
    after = _tau_path.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


# next to the cusp at 0 the reduced mantissas of D.df2a overflow: the
# residual is non-finite (recorded in perfbench/defects.py)
CUSP_BINDING = VariableBinding(
    {"u": -0.3932629781341648 + 0.1751612122871189j},
    ModularParameter(0.0007649580016637154 + 0.0014230987092141564j),
)


def test_non_finite_terms_give_infinite_residuals():
    ident = catalog_by_id()["D.df2a"]
    assert evaluate_identity(ident, CUSP_BINDING) == (float("inf"), float("inf"))


def test_verify_counts_a_non_finite_trial_as_failed(monkeypatch):
    import thetakit.identities.engine as engine

    draw = (tuple(CUSP_BINDING.values.values()), CUSP_BINDING.tau.tau)
    monkeypatch.setattr(engine, "_sample_binding", lambda rng, variables, box: draw)
    (report,) = verify(["D.df2a"], trials=2, seed=1, box=STRESS_BOX, rel_tol=1e-8)
    assert report.max_rel_residual == float("inf")
    assert report.max_abs_residual == float("inf")
    assert repr(report.failing_binding) == repr(CUSP_BINDING)


def test_residual_formula_on_pure_constants():
    # rel = |LHS - RHS| / (eps + sum of |term| over both sides)
    binding = VariableBinding({}, ModularParameter(1j))
    zero_defect = parse_identity("2 = 1 + 1", "const-ok")
    abs_res, rel_res = evaluate_identity(zero_defect, binding)
    assert abs_res == 0.0 and rel_res == 0.0
    unbalanced = parse_identity("2 = 1", "const-bad")
    abs_res, rel_res = evaluate_identity(unbalanced, binding)
    assert abs_res == pytest.approx(1.0)
    assert rel_res == pytest.approx(1.0 / 3.0)


# evaluate_identity(..., use_reduction=False) at three seeded default-box
# bindings per id, pinned bit for bit: the direct-summation branch of the
# compiled plan must reproduce the per-factor evaluation exactly
UNREDUCED_RESIDUALS = {
    "W.I.r1": [
        (1.2014283869232628e-11, 9.675950244531499e-16),
        (3.1720779653525304e-13, 9.07502415810614e-16),
        (7.021666937153402e-16, 2.477953280637009e-16),
    ],
    "B.I.2": [
        (2.482534153247273e-16, 6.726909464934796e-17),
        (3.787898901196402e-16, 2.8620975954805623e-16),
        (9.155133597044475e-16, 2.0538684489329517e-16),
    ],
    "TC.tc1": [
        (4.449557262054371e-16, 1.0148635732358847e-16),
        (5.551115123125783e-17, 1.935514795333606e-17),
        (2.237726045655905e-16, 7.590882759049675e-17),
    ],
}


@pytest.mark.parametrize("identity_id", sorted(UNREDUCED_RESIDUALS))
def test_unreduced_residuals_are_unchanged(identity_id):
    ident = catalog_by_id()[identity_id]
    rng = random.Random(f"unreduced:{identity_id}")
    got = []
    for _ in range(3):
        values = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in ident.variables}
        tau = ModularParameter(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)))
        got.append(evaluate_identity(ident, VariableBinding(values, tau), use_reduction=False))
    assert repr(got) == repr(UNREDUCED_RESIDUALS[identity_id])


# sha256 of the repr of evaluate_identity(...) (reduced route) at three
# seeded bindings per catalog id, in both sampling boxes.  The seed-42
# report keeps only per-id maxima; this pins every trial bit for bit.
REDUCED_RESIDUALS_SHA256 = "0dc99b0c081cd9b1e81dd152b75c407c9c900142057a8d129d6cab4c3c0c79b1"


def test_reduced_residuals_are_pinned_bit_for_bit():
    import hashlib

    from thetakit.core import TruncationError
    from thetakit.identities import DEFAULT_BOX

    digest = hashlib.sha256()
    for box_name, box in (("default", DEFAULT_BOX), ("stress", STRESS_BOX)):
        for identity_id, ident in sorted(catalog_by_id().items()):
            rng = random.Random(f"pin:{box_name}:{identity_id}")
            for _ in range(3):
                values = {
                    n: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                    for n in ident.variables
                }
                tau = ModularParameter(complex(rng.uniform(-0.5, 0.5), rng.uniform(*box.tau_im)))
                try:
                    got = evaluate_identity(ident, VariableBinding(values, tau))
                except TruncationError:
                    got = "TruncationError"
                digest.update(f"{box_name} {identity_id} {got!r}\n".encode())
    assert digest.hexdigest() == REDUCED_RESIDUALS_SHA256


def _outcome(call):
    try:
        return repr(call())
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


HALF_OFFSETS = parse_identity(
    "t1(u+1/2tau|tau)*t2(u+1/2tau|tau)*t3(u+1/2tau|tau)*t4(u+1/2tau|tau)"
    " + t3(u-v-3/2tau|tau)*t4(u-v-3/2tau|tau)*t2(v|tau)"
    " = t1(u+tau|2tau)*t4(u+tau|2tau)*t2(2v-1/2+5/2tau|tau)*t3(u|2tau)",
    "half-offsets",
)


@pytest.mark.parametrize("box_name", ["default", "stress"])
def test_grouped_factor_values_equal_per_factor_evaluation(box_name):
    from thetakit.identities import DEFAULT_BOX
    from thetakit.identities.engine import _compile

    box = DEFAULT_BOX if box_name == "default" else STRESS_BOX
    identities = [*catalog_by_id().values(), HALF_OFFSETS]
    assert {"TC.tc1", "G.g1"} <= {ident.id for ident in identities}
    for ident in identities:
        plan = _compile(ident)
        rng = random.Random(f"group:{box_name}:{ident.id}")
        for _ in range(3):
            values = {
                n: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                for n in ident.variables
            }
            tau = ModularParameter(complex(rng.uniform(-0.5, 0.5), rng.uniform(*box.tau_im)))
            binding = VariableBinding(values, tau)
            got = _outcome(lambda: plan.trial(tuple(values.values()), tau.tau, True))
            assert got == _outcome(lambda: per_factor_values(ident, binding)), ident.id


def test_half_offset_points_group_on_the_shifted_point():
    from thetakit.identities.engine import _compile

    plan = _compile(HALF_OFFSETS)
    groups = {(point[6], point[7]) for point in plan.points}
    # t_r(u + tau/2) sums t_{5-r} at u: one point with all four indices
    assert ((1, 2, 3, 4), (4, 3, 2, 1)) in groups
    assert sum(len(point[8]) for point in plan.points) == plan.n_factors == 11


def test_grouped_kernel_at_the_cusp_binding():
    from thetakit.identities.engine import _compile
    from thetakit.reduction import _path, _reduced_theta, _reduced_thetas

    ident = catalog_by_id()["D.df2a"]
    draw = tuple(CUSP_BINDING.values.values()), CUSP_BINDING.tau.tau
    assert repr(_compile(ident).trial(*draw, True)) == repr(
        per_factor_values(ident, CUSP_BINDING)
    )
    path = _path(CUSP_BINDING.tau)
    u = CUSP_BINDING.values["u"]
    for point in (u, 2 * u, 0j):
        for mask in range(1, 16):
            indices = tuple(r for r in (1, 2, 3, 4) if mask >> (r - 1) & 1)
            want = [_reduced_theta(r, point, path) for r in indices]
            assert repr(_reduced_thetas(indices, point, path)) == repr(want)


# verify against the single-trial public route (tests/trial_reference.py),
# bit for bit: a 2tau id (P.bc3c), the cusp-prone D.df2a, the
# four-index TC.tc1 and the gauss4 product G.g1 among them
EQUIVALENCE_IDS = [
    "AD.ad3b.2", "B.I.1", "D.df2a", "D.df4d", "G.g1", "J.III.4",
    "L.lt2", "P.bc3c", "R.II.7", "TC.tc1", "W.I.r1", "W.III.r2",
]


@pytest.mark.parametrize("seed", [1, 42, 2024])
@pytest.mark.parametrize("box_name", ["default", "stress"])
def test_verify_equals_the_single_trial_route(box_name, seed):
    from thetakit.identities import DEFAULT_BOX

    box, rel_tol = (DEFAULT_BOX, 1e-9) if box_name == "default" else (STRESS_BOX, 1e-8)
    assert mismatches(EQUIVALENCE_IDS, trials=8, seed=seed, box=box, rel_tol=rel_tol) == []


def test_verify_equals_the_single_trial_route_on_failures():
    from thetakit.identities import SamplingBox

    # G.g1 runs out of terms at the bottom of the stress box, a sign-flipped
    # B.I.1 fails on every trial and a zero identity is resampled to the limit
    good = catalog_by_id()["B.I.1"]
    flipped = dataclasses.replace(
        good, id="flipped", rhs=(good.rhs[0], dataclasses.replace(good.rhs[1], coefficient=-good.rhs[1].coefficient))
    )
    catalog = {
        "G.g1": catalog_by_id()["G.g1"],
        "flipped": flipped,
        "zero": parse_identity("0*t3(u|tau) = 0*t4(u|tau)", "zero"),
    }
    floor_box = SamplingBox(tau_im=(1e-3, 1.5e-3))
    assert mismatches(sorted(catalog), trials=3, seed=1, box=floor_box, rel_tol=1e-8, catalog=catalog) == []


def test_verify_equals_the_single_trial_route_when_resampling(monkeypatch):
    import thetakit.identities.engine as engine
    from thetakit.identities import DEFAULT_BOX

    # half the draws land where theta_3 is ~1e-339: both sides are
    # negligible, so the trial draws again; every kept trial fails
    sample = engine._sample_binding
    drawn = []

    def sampler(rng, variables, box):
        draw = sample(rng, variables, box)
        drawn.append(rng.random() < 0.5)
        if drawn[-1]:
            return (0.5 + 0j,) * len(variables), 1e-3j
        return draw

    monkeypatch.setattr(engine, "_sample_binding", sampler)
    catalog = {"bad": parse_identity("t3(u|tau) = 2*t3(u|tau)", "bad")}
    (report,) = verify(["bad"], trials=6, seed=3, rel_tol=1e-8, catalog=catalog)
    assert any(drawn) and drawn.count(False) == 6  # each negligible draw was drawn again
    assert report.failing_binding.tau != ModularParameter(1e-3j)
    assert mismatches(["bad"], trials=6, seed=3, box=DEFAULT_BOX, rel_tol=1e-8, catalog=catalog) == []


@pytest.mark.parametrize("box_name", ["default", "stress"])
def test_sample_binding_draws_as_random_uniform(box_name):
    from thetakit.identities import DEFAULT_BOX
    from thetakit.identities.engine import _sample_binding

    box = DEFAULT_BOX if box_name == "default" else STRESS_BOX
    ours, theirs = random.Random(5), random.Random(5)
    for variables in [(), ("u",), ("u", "v", "x", "y")] * 3:
        drawn = _sample_binding(ours, variables, box)
        values = tuple(complex(theirs.uniform(-1.0, 1.0), theirs.uniform(-1.0, 1.0)) for _ in variables)
        tau = complex(theirs.uniform(-0.5, 0.5), theirs.uniform(*box.tau_im))
        assert repr(drawn) == repr((values, tau))


def test_a_2tau_past_the_double_range_raises_value_error():
    # tau is valid, 2tau is not: the reduced route never builds 2tau's
    # ModularParameter, but still refuses it as ModularParameter would
    ident = catalog_by_id()["P.bc3c"]
    binding = VariableBinding({n: 0.1j for n in ident.variables}, ModularParameter(1e308 + 1j))
    with pytest.raises(ValueError, match="tau must be finite"):
        evaluate_identity(ident, binding)


def _residual_digest(identities, boxes, bindings, use_reduction):
    """sha256 over evaluate_identity at seeded bindings, an exception
    recorded by its type name."""
    import hashlib

    digest = hashlib.sha256()
    for box_name, box in boxes:
        for ident in identities:
            rng = random.Random(f"pin:{use_reduction}:{box_name}:{ident.id}")
            for _ in range(bindings):
                values = {n: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for n in ident.variables}
                tau = ModularParameter(complex(rng.uniform(-0.5, 0.5), rng.uniform(*box.tau_im)))
                try:
                    got = evaluate_identity(ident, VariableBinding(values, tau), use_reduction)
                except (ArithmeticError, ValueError) as exc:
                    got = type(exc).__name__
                digest.update(f"{box_name} {ident.id} {got!r}\n".encode())
    return digest.hexdigest()


# the direct-summation route over every catalog id (default box, three
# bindings each) and the reduced route of HALF_OFFSETS, whose half-integer
# offsets and 2tau factors few catalog ids have (both boxes, 20 each)
UNREDUCED_ALL_SHA256 = "22ba33ee605e0af4023c23dce4f96e31289684b33d6c42bc3d01c3a05ca51316"
HALF_OFFSETS_SHA256 = "e69c4c4fa37a04adaa2db976cfc79a2e4a36062c1022c1b77438006d30b62879"


def test_unreduced_residuals_of_every_id_are_pinned_bit_for_bit():
    from thetakit.identities import DEFAULT_BOX

    identities = [ident for _, ident in sorted(catalog_by_id().items())]
    got = _residual_digest(identities, [("default", DEFAULT_BOX)], 3, use_reduction=False)
    assert got == UNREDUCED_ALL_SHA256


def test_half_offset_residuals_are_pinned_bit_for_bit():
    from thetakit.identities import DEFAULT_BOX

    boxes = [("default", DEFAULT_BOX), ("stress", STRESS_BOX)]
    assert _residual_digest([HALF_OFFSETS], boxes, 20, use_reduction=True) == HALF_OFFSETS_SHA256


# the id is never read while an identity is evaluated
@pytest.mark.parametrize("identity_id", ["B.I.1", "P.bc3c", "TC.tc1", "G.g1", "D.df2a", "half-offsets"])
def test_an_id_with_quotes_and_newlines_evaluates_as_a_plain_one(identity_id):
    from thetakit.identities.engine import _compile

    ident = HALF_OFFSETS if identity_id == "half-offsets" else catalog_by_id()[identity_id]
    quoted = dataclasses.replace(ident, id='a"b\'c\nd # e')
    rng = random.Random(f"quoted:{identity_id}")
    for _ in range(3):
        values = {n: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for n in ident.variables}
        tau = ModularParameter(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.01, 2.0)))
        binding = VariableBinding(values, tau)
        for use_reduction in (True, False):
            want = _outcome(lambda: evaluate_identity(ident, binding, use_reduction))
            assert _outcome(lambda: evaluate_identity(quoted, binding, use_reduction)) == want
            draw = tuple(values.values()), tau.tau, True
            plain, odd = _compile(ident), _compile(quoted)
            want = _outcome(lambda: (plain.trial if use_reduction else plain.direct)(*draw))
            assert _outcome(lambda: (odd.trial if use_reduction else odd.direct)(*draw)) == want


def test_generated_source_holds_only_names_and_integers(monkeypatch):
    import io
    import tokenize

    import thetakit.identities.engine as engine

    sources = []
    code = engine._code
    monkeypatch.setattr(engine, "_code", lambda source: sources.append(source) or code(source))
    for ident in [*catalog_by_id().values(), HALF_OFFSETS]:
        for use_reduction in (True, False):
            engine._generate(engine._compile(ident), use_reduction)
    assert len(sources) == 2 * (len(catalog_by_id()) + 1)
    for source in set(sources):
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type not in (tokenize.STRING, tokenize.COMMENT), tok
            assert tok.type != tokenize.NUMBER or tok.string.isdigit(), tok


def test_each_generated_code_object_has_its_own_profiling_label():
    # cProfile keys on (filename, line, name): one shared label would fold
    # every identity shape's trial function into one profile entry
    import thetakit.identities.engine as engine

    codes = {
        id(code): code
        for ident in catalog_by_id().values()
        for use_reduction in (True, False)
        for code in [engine._generate(engine._compile(ident), use_reduction).__code__]
    }
    labels = {code.co_filename for code in codes.values()}
    assert len(codes) > 1
    assert len(labels) == len(codes)
    assert all(label.startswith("<identity trial ") for label in labels)
