"""Catalog completeness, manifest coverage, and cross-family structure."""

from bracket_utils import defect_vector, solve_in_span, swap_primes
from conftest import random_point, random_tau
from thetakit import eval_reduced
from thetakit.identities import (
    DF5_PARTNER,
    J_DUAL,
    MANIFEST,
    builtin_catalog,
    canonical_form,
    catalog_by_id,
    catalog_ids,
    catalog_tags,
    catalog_tsv,
    format_identity,
    parse_identity,
    structurally_equal,
)

EXPECTED_FAMILY_SIZES = {
    "B.I.": 6,
    "B.II.": 6,
    "W.": 13,
    "J.I.": 4,
    "J.F.": 12,
    "J.II.": 6,
    "J.III.": 6,
    "J.IV.": 4,
    "R.I.": 4,
    "R.II.": 12,
    "R.III.": 4,
    "P.": 12,
    "L.": 3,
    "AD.": 35,
    "D.": 25,
    "TC.": 2,
    "G.": 1,
}


def test_catalog_size_and_family_counts():
    ids = catalog_ids()
    assert len(ids) == 155
    assert len(set(ids)) == 155
    for prefix, count in EXPECTED_FAMILY_SIZES.items():
        assert sum(1 for i in ids if i.startswith(prefix)) == count, prefix


def test_every_entry_parses_and_round_trips():
    for ident in builtin_catalog():
        printed = format_identity(ident)
        reparsed = parse_identity(printed, ident.id)
        assert structurally_equal(ident, reparsed), ident.id


def test_tsv_export_shape():
    lines = catalog_tsv().splitlines()
    assert len(lines) == len(builtin_catalog())
    tags = catalog_tags()
    for line in lines:
        cid, dsl, tag = line.split("\t")
        assert cid in tags and tags[cid] == tag
        parse_identity(dsl, cid)


def test_tsv_export_is_unchanged_after_hashing():
    import hashlib

    for ident in builtin_catalog():
        hash(ident)  # caches each identity's hash outside its fields
    digest = hashlib.sha256(catalog_tsv().encode()).hexdigest()
    assert digest == "61bdda8eb867fc1f3dd58e88edc063311545df6a7b554ab419594b9a6a11137b"


def test_parsed_catalog_is_unchanged():
    import hashlib

    # pinned before factor texts were parsed once per process
    digest = hashlib.sha256(repr(builtin_catalog()).encode()).hexdigest()
    assert digest == "b684be79029d9360f871f852dc3b52506fed8166912e3ba5a444b40b9fae61aa"


class TestManifest:
    def test_every_entry_well_formed_and_resolvable(self):
        known = set(catalog_ids())
        for tag, entry in MANIFEST.items():
            kinds = set(entry) & {"ids", "subsumed_by", "checked_by"}
            assert len(kinds) == 1, tag
            for cid in entry.get("ids", []) + entry.get("subsumed_by", []):
                assert cid in known, (tag, cid)

    def test_no_catalog_entry_is_orphaned(self):
        covered = set()
        for entry in MANIFEST.values():
            covered.update(entry.get("ids", []))
            covered.update(entry.get("subsumed_by", []))
        assert covered == set(catalog_ids())

    def test_manifest_is_pinned(self):
        import hashlib
        import json

        # pinned while the manifest was still a hand-written literal
        digest = hashlib.sha256(json.dumps(MANIFEST, sort_keys=True).encode()).hexdigest()
        assert digest == "e646e230424aa969310f5e58dbeca0331ccdf64109729d19bf4c0d8c6a6e3614"

    def test_tag_labels_cover_all_catalog_tags(self):
        # each identity's own tag must resolve to a manifest entry listing it
        for cid, tag in catalog_tags().items():
            base = tag.split(".")[0] if tag.split(".")[0] in MANIFEST else tag
            entry = MANIFEST.get(base) or MANIFEST.get(tag)
            assert entry is not None, (cid, tag)
            assert cid in entry.get("ids", []), (cid, tag)


class TestSpecifiedEntries:
    def test_bilinear_sample(self):
        ident = catalog_by_id()["B.I.2"]
        want = parse_identity(
            "t1(u|tau)*t2(v|tau) = t1(u+v|2tau)*t4(u-v|2tau)"
            " + t4(u+v|2tau)*t1(u-v|2tau)",
            "B.I.2",
        )
        assert ident == want

    def test_symmetric_addition_subsumes_the_seed_identity(self):
        # the classical four-variable seed identity, with its second
        # term's factor pairs transposed, is W.I at r = 1 (and W.III at r = 1)
        seed = parse_identity(
            "t1(u+x|tau)*t1(u-x|tau)*t1(v+y|tau)*t1(v-y|tau)"
            " - t1(u+y|tau)*t1(u-y|tau)*t1(v+x|tau)*t1(v-x|tau)"
            " = t1(u+v|tau)*t1(u-v|tau)*t1(x+y|tau)*t1(x-y|tau)",
            "seed",
        )
        by_id = catalog_by_id()
        assert canonical_form(seed) == canonical_form(by_id["W.I.r1"])
        assert canonical_form(seed) == canonical_form(by_id["W.III.r1"])

    def test_five_term_entries_carry_coefficient_two(self):
        by_id = catalog_by_id()
        for n in range(1, 5):
            ident = by_id[f"R.I.{n}"]
            assert len(ident.lhs) == 1
            assert ident.lhs[0].coefficient == 2
            assert len(ident.rhs) == 4

    def test_duplication_seed_entry(self):
        want = parse_identity(
            "t1(2u|tau)*t2(0|tau)*t3(0|tau)*t4(0|tau)"
            " = 2*t1(u|tau)*t2(u|tau)*t3(u|tau)*t4(u|tau)",
            "D.df1",
        )
        assert catalog_by_id()["D.df1"] == want


def test_df5_expansion_coincides_with_plain_duplication_entries():
    by_id = catalog_by_id()
    mismatches = []
    for expanded_id, partner_id in DF5_PARTNER.items():
        if canonical_form(by_id[expanded_id]) != canonical_form(by_id[partner_id]):
            mismatches.append((expanded_id, partner_id))
    assert not mismatches, f"df5 expansion drifted from its partners: {mismatches}"


def _bracket_values(binding, tau):
    """Evaluate every monomial appearing in the J/R [r]-bracket families."""
    u, v, x, y = binding
    unprimed = (u + x, u - x, v + y, v - y)
    primed = (v - x, v + x, u - y, u + y)
    values = {}

    def quad(indices, points):
        p = 1.0 + 0j
        for r, pt in zip(indices, points):
            p *= eval_reduced(r, pt, tau)
        return p

    def get(key):
        indices, is_primed = key
        if key not in values:
            values[key] = quad(indices, primed if is_primed else unprimed)
        return values[key]

    return get


class TestLinearStructure:
    def test_full_list_is_spanned_by_the_four_basic_identities(self, rng):
        by_id = catalog_by_id()
        basis = [defect_vector(by_id[f"J.I.{n}"]) for n in range(1, 5)]
        binding = tuple(random_point(rng) for _ in range(4))
        tau = random_tau(rng)
        get = _bracket_values(binding, tau)
        for n in range(1, 13):
            target = defect_vector(by_id[f"J.F.{n}"])
            coeffs = solve_in_span(basis, target)
            assert coeffs is not None, f"J.F.{n} not in the span"
            # the same combination must hold for the evaluated monomials
            want = sum(
                (complex(c) * sum(complex(w) * get(k) for k, w in row.items())
                 for c, row in zip(coeffs, basis)),
                start=0j,
            )
            got = sum(complex(w) * get(k) for k, w in target.items())
            scale = 1.0 + sum(abs(get(k)) for k in target)
            assert abs(got - want) <= 1e-11 * scale

    def test_five_term_identities_are_rearranged_basics(self):
        by_id = catalog_by_id()
        basis = [defect_vector(by_id[f"J.I.{n}"]) for n in range(1, 5)]
        for n in range(1, 5):
            # at dual bindings the primes swap, landing R.I in the J.I span
            target = swap_primes(defect_vector(by_id[f"R.I.{n}"]))
            coeffs = solve_in_span(basis, target)
            assert coeffs is not None, f"R.I.{n} (prime-swapped) not in the span"
            assert all(c.denominator in (1, 2) for c in coeffs)

    def test_mixed_five_term_identities_from_mixed_basics(self):
        by_id = catalog_by_id()
        basis = [defect_vector(by_id[f"J.IV.{n}"]) for n in range(1, 5)]
        for n in range(1, 5):
            target = swap_primes(defect_vector(by_id[f"R.III.{n}"]))
            assert solve_in_span(basis, target) is not None, f"R.III.{n}"

    def test_squared_five_term_identities_from_squared_basics(self):
        by_id = catalog_by_id()
        basis = [defect_vector(by_id[f"J.II.{n}"]) for n in range(1, 7)]
        basis += [defect_vector(by_id[f"J.III.{n}"]) for n in range(1, 7)]
        for n in range(1, 13):
            target = swap_primes(defect_vector(by_id[f"R.II.{n}"]))
            assert solve_in_span(basis, target) is not None, f"R.II.{n}"


class TestDuality:
    def test_dual_table_is_involutive(self):
        for a, b in J_DUAL.items():
            assert J_DUAL[b] == a

    def test_prime_swapped_defects_match_the_dual_entry(self):
        by_id = catalog_by_id()
        for a, b in J_DUAL.items():
            swapped = swap_primes(defect_vector(by_id[a]))
            partner = defect_vector(by_id[b])
            negated = {k: -c for k, c in partner.items()}
            assert swapped in (partner, negated), (a, b)

    def test_bracket_duality_numerically(self, rng):
        # (u,v,x,y) -> (v,u,-x,-y) realizes the dual points slot by slot
        u, v, x, y = (random_point(rng) for _ in range(4))
        tau = random_tau(rng)
        get = _bracket_values((u, v, x, y), tau)
        get_dual = _bracket_values((v, u, -x, -y), tau)
        for indices in [(1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 3, 4), (3, 3, 4, 4)]:
            direct = get((indices, True))
            via_dual = get_dual((indices, False))
            assert abs(direct - via_dual) <= 1e-11 * (1.0 + abs(direct))
