"""Built-in catalog of theta-function identities.

Every entry is a DSL string (see dsl.py) keyed by a stable catalog id
and a short source tag used by the manifest.  The families:

    B.I / B.II   three-term bilinear identities linking tau and 2tau
    W.*          three-term degree-4 addition identities
    J.*          four-term degree-4 bracket identities
    R.*          five-term degree-4 identities (primed bracket via four
                 unprimed ones)
    P.*          bilinear specializations (v = 0 or v = +-u)
    L.*          Landen-type tau <-> 2tau ratio identities (cleared of
                 denominators)
    AD.*         two-variable addition specializations
    D.*          duplication identities, including the expanded form of
                 the compressed cyclic family df5
    TC.* / G.*   theta-constant identities and the alternating-product
                 form of t4(0)

Bracket shorthand: [pqrs] stands for
t_p(u+x) t_q(u-x) t_r(v+y) t_s(v-y), and the primed version for the
same product at the dual points (v-x, v+x, u-y, u+y).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .dsl import Identity, ThetaFactor, format_identity, parse_identity

__all__ = [
    "builtin_catalog",
    "catalog_by_id",
    "catalog_ids",
    "catalog_tags",
    "catalog_tsv",
    "MANIFEST",
    "J_DUAL",
    "DF5_PARTNER",
    "canonical_form",
]


# --------------------------------------------------------------------------
# DSL string builders
# --------------------------------------------------------------------------


def _q(r: int, a: str, b: str) -> str:
    """t_r(a+b)*t_r(a-b) at the base tau."""
    return f"t{r}({a}+{b}|tau)*t{r}({a}-{b}|tau)"


def _sq(r: int, w: str, slot: str = "tau") -> str:
    """t_r(w)^2 at the given modular slot."""
    return f"t{r}({w}|{slot})*t{r}({w}|{slot})"


def _p4(r: int, w: str) -> str:
    """t_r(w)^4 at the base tau."""
    return "*".join([f"t{r}({w}|tau)"] * 4)


_BK_ARGS = ("u+x", "u-x", "v+y", "v-y")
_BK_ARGS_PRIMED = ("v-x", "v+x", "u-y", "u+y")


def _bk(idx: str, primed: bool = False) -> str:
    """Bracket [idx] (or its primed version) spelled out over u, v, x, y."""
    args = _BK_ARGS_PRIMED if primed else _BK_ARGS
    return "*".join(f"t{d}({a}|tau)" for d, a in zip(idx, args))


def _sum(*parts: tuple[int, str]) -> str:
    """Signed sum of DSL products ((sign, text), ...)."""
    out = []
    for i, (sign, text) in enumerate(parts):
        if i == 0:
            out.append(text if sign > 0 else f"-1*{text}")
        else:
            out.append(f"+ {text}" if sign > 0 else f"- {text}")
    return " ".join(out)


def _comp_pair(r: int, s: int) -> tuple[int, int]:
    """Order-preserving complementary index pair within {1,2,3,4}."""
    others = sorted({1, 2, 3, 4} - {r, s})
    return (others[0], others[1]) if r < s else (others[1], others[0])


# --------------------------------------------------------------------------
# catalog source: (id, tag, dsl)
# --------------------------------------------------------------------------


def _build_entries() -> list[tuple[str, str, str]]:
    entries: list[tuple[str, str, str]] = []

    def add(cid: str, tag: str, dsl: str) -> None:
        entries.append((cid, tag, dsl))

    # ---- B.I: six bilinear basis identities (tau -> 2tau) ----
    b1 = {
        1: ("sb1a", "t1(u|tau)*t1(v|tau)", (3, 2), (-1, 2, 3)),
        2: ("sb1b", "t1(u|tau)*t2(v|tau)", (1, 4), (+1, 4, 1)),
        3: ("sb1c", "t2(u|tau)*t2(v|tau)", (2, 3), (+1, 3, 2)),
        4: ("sb1d", "t3(u|tau)*t3(v|tau)", (3, 3), (+1, 2, 2)),
        5: ("sb1e", "t3(u|tau)*t4(v|tau)", (4, 4), (-1, 1, 1)),
        6: ("sb1f", "t4(u|tau)*t4(v|tau)", (3, 3), (-1, 2, 2)),
    }
    for n, (tag, lhs, (p1, p2), (sign, q1, q2)) in b1.items():
        rhs = _sum(
            (1, f"t{p1}(u+v|2tau)*t{p2}(u-v|2tau)"),
            (sign, f"t{q1}(u+v|2tau)*t{q2}(u-v|2tau)"),
        )
        add(f"B.I.{n}", tag, f"{lhs} = {rhs}")

    # ---- B.II: the equivalent system solved for the 2tau products ----
    b2 = {
        1: ("es1a", (1, 1), (4, 3), (-1, 3, 4)),
        2: ("es1b", (1, 4), (1, 2), (+1, 2, 1)),
        3: ("es1c", (2, 2), (3, 3), (-1, 4, 4)),
        4: ("es1d", (2, 3), (2, 2), (-1, 1, 1)),
        5: ("es1e", (3, 3), (3, 3), (+1, 4, 4)),
        6: ("es1f", (4, 4), (3, 4), (+1, 4, 3)),
    }
    for n, (tag, (p1, p2), (a1, a2), (sign, c1, c2)) in b2.items():
        lhs = f"2*t{p1}(u+v|2tau)*t{p2}(u-v|2tau)"
        rhs = _sum(
            (1, f"t{a1}(u|tau)*t{a2}(v|tau)"),
            (sign, f"t{c1}(u|tau)*t{c2}(v|tau)"),
        )
        add(f"B.II.{n}", tag, f"{lhs} = {rhs}")

    # ---- W: three-term addition identities of degree four ----
    for r in (1, 2, 3, 4):
        dsl = (
            f"{_q(1, 'u', 'x')}*{_q(r, 'v', 'y')} - {_q(1, 'v', 'x')}*{_q(r, 'u', 'y')}"
            f" = {_q(1, 'u', 'v')}*{_q(r, 'x', 'y')}"
        )
        add(f"W.I.r{r}", f"tt1.r{r}", dsl)
    w2 = {1: ("tt2c", 2, 3, 4), 2: ("tt2b", 2, 4, 3), 3: ("tt2a", 3, 4, 2)}
    for n, (tag, a, b, c) in w2.items():
        rhs = _sum((-1, f"{_q(1, 'u', 'v')}*{_q(c, 'x', 'y')}"))
        dsl = (
            f"{_q(a, 'u', 'x')}*{_q(b, 'v', 'y')} - {_q(a, 'v', 'x')}*{_q(b, 'u', 'y')}"
            f" = {rhs}"
        )
        add(f"W.II.{n}", tag, dsl)
    for r in (1, 2, 3, 4):
        sign = 1 if r % 2 == 1 else -1
        rhs = _sum((sign, f"{_q(1, 'u', 'v')}*{_q(1, 'x', 'y')}"))
        dsl = (
            f"{_q(r, 'u', 'x')}*{_q(r, 'v', 'y')} - {_q(r, 'u', 'y')}*{_q(r, 'v', 'x')}"
            f" = {rhs}"
        )
        add(f"W.III.r{r}", f"tt3.r{r}", dsl)
    add(
        "W.IV",
        "tt4",
        f"{_q(3, 'u', 'x')}*{_q(3, 'v', 'y')} - {_q(4, 'v', 'x')}*{_q(4, 'u', 'y')}"
        f" = {_q(2, 'u', 'v')}*{_q(2, 'x', 'y')}",
    )
    add(
        "W.V",
        "tt5",
        "t1(u+x|tau)*t2(u-x|tau)*t3(v+y|tau)*t4(v-y|tau)"
        " - t1(u-y|tau)*t2(u+y|tau)*t3(v-x|tau)*t4(v+x|tau)"
        " = t1(x+y|tau)*t2(x-y|tau)*t3(u+v|tau)*t4(u-v|tau)",
    )

    # ---- J.I: the four simplest bracket identities ----
    ji = {
        1: ("ft2a", 1, 2, 1, 1, 2),
        2: ("ft2b", -1, 2, -1, 4, 3),
        3: ("ft2c", 1, 4, 1, 3, 4),
        4: ("ft2d", -1, 4, -1, 2, 1),
    }
    for n, (tag, s_l, bl, s_r, ra, rb) in ji.items():
        la = 1 if n in (1, 2) else 3
        lhs = _sum((1, _bk(str(la) * 4)), (s_l, _bk(str(bl) * 4)))
        rhs = _sum((1, _bk(str(ra) * 4, True)), (s_r, _bk(str(rb) * 4, True)))
        add(f"J.I.{n}", tag, f"{lhs} = {rhs}")

    # ---- J.F: the traditional full list of twelve [r]-bracket relations ----
    jf = [
        (1, 2, 1, 1, 2),
        (1, 3, 1, 2, 4),
        (1, 4, 1, 1, 4),
        (2, 3, 1, 2, 3),
        (2, 4, 1, 1, 3),
        (3, 4, 1, 3, 4),
        (1, 2, -1, 4, 3),
        (1, 3, -1, 1, 3),
        (1, 4, -1, 2, 3),
        (2, 3, -1, 1, 4),
        (2, 4, -1, 2, 4),
        (3, 4, -1, 2, 1),
    ]
    for n, (la, lb, sign, ra, rb) in enumerate(jf, start=1):
        lhs = _sum((1, _bk(str(la) * 4)), (sign, _bk(str(lb) * 4)))
        rhs = _sum((1, _bk(str(ra) * 4, True)), (sign, _bk(str(rb) * 4, True)))
        add(f"J.F.{n}", f"ft3.{n}", f"{lhs} = {rhs}")

    # ---- J.II: symmetric self-dual [rrss] identities ----
    si_pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    si1_tags = ["si1a", "si1b", "si1c", "si1d", "si1e", "si1f"]
    for n, ((r, s), tag) in enumerate(zip(si_pairs, si1_tags), start=1):
        a = f"{r}{r}{s}{s}"
        b = f"{s}{s}{r}{r}"
        dsl = f"{_sum((1, _bk(a)), (1, _bk(b)))} = {_sum((1, _bk(a, True)), (1, _bk(b, True)))}"
        add(f"J.II.{n}", tag, dsl)

    # ---- J.III: complementary [rrss] identities ----
    si2_tags = ["si2a", "si2b", "si2c", "si2d", "si2e", "si2f"]
    for n, ((r, s), tag) in enumerate(zip(si_pairs, si2_tags), start=1):
        rt, st = _comp_pair(r, s)
        a, b = f"{r}{r}{s}{s}", f"{s}{s}{r}{r}"
        at, bt = f"{rt}{rt}{st}{st}", f"{st}{st}{rt}{rt}"
        dsl = f"{_sum((1, _bk(a)), (-1, _bk(b)))} = {_sum((1, _bk(at, True)), (-1, _bk(bt, True)))}"
        add(f"J.III.{n}", tag, dsl)

    # ---- J.IV: fully mixed identities ----
    jiv = {
        1: ("ft11a", "1234", 1, "2143", "3412", 1, "4321"),
        2: ("ft11b", "1234", -1, "2143", "2143", -1, "1234"),
        3: ("ft11c", "3412", 1, "4321", "1234", 1, "2143"),
        4: ("ft11d", "3412", -1, "4321", "4321", -1, "3412"),
    }
    for n, (tag, la, sign, lb, ra, s_r, rb) in jiv.items():
        dsl = (
            f"{_sum((1, _bk(la)), (sign, _bk(lb)))}"
            f" = {_sum((1, _bk(ra, True)), (s_r, _bk(rb, True)))}"
        )
        add(f"J.IV.{n}", tag, dsl)

    # ---- R.I: primed [r] via the four unprimed ones ----
    r1 = {
        1: ("j1a", (1, 1, -1, 1)),
        2: ("j1b", (1, 1, 1, -1)),
        3: ("j1c", (-1, 1, 1, 1)),
        4: ("j1d", (1, -1, 1, 1)),
    }
    for n, (tag, signs) in r1.items():
        rhs = _sum(*((s, _bk(str(r) * 4)) for r, s in zip((1, 2, 3, 4), signs)))
        add(f"R.I.{n}", tag, f"2*{_bk(str(n) * 4, True)} = {rhs}")

    # ---- R.II: primed [rrss] via four unprimed ones ----
    r2_pairs = [
        ("j2a", 1, 2), ("j2b", 1, 3), ("j2c", 1, 4),
        ("j3a", 2, 1), ("j3b", 2, 3), ("j3c", 2, 4),
        ("j4a", 3, 1), ("j4b", 3, 2), ("j4c", 3, 4),
        ("j5a", 4, 1), ("j5b", 4, 2), ("j5c", 4, 3),
    ]
    for n, (tag, r, s) in enumerate(r2_pairs, start=1):
        rt, st = _comp_pair(r, s)
        rhs = _sum(
            (1, _bk(f"{r}{r}{s}{s}")),
            (1, _bk(f"{s}{s}{r}{r}")),
            (1, _bk(f"{rt}{rt}{st}{st}")),
            (-1, _bk(f"{st}{st}{rt}{rt}")),
        )
        add(f"R.II.{n}", tag, f"2*{_bk(f'{r}{r}{s}{s}', True)} = {rhs}")

    # ---- R.III: primed mixed brackets via four unprimed ones ----
    # (a variant of the first entry with [3421], [4312] circulates but is
    # false; the combination below is the one implied by the fully mixed
    # four-term system, which involves no brackets besides [1234],
    # [2143], [3412], [4321] and their primes)
    r3 = {
        1: ("j6a", "1234", [(-1, "1234"), (1, "2143"), (1, "3412"), (1, "4321")]),
        2: ("j6b", "2143", [(-1, "2143"), (1, "1234"), (1, "3412"), (1, "4321")]),
        3: ("j6c", "3412", [(-1, "3412"), (1, "4321"), (1, "1234"), (1, "2143")]),
        4: ("j6d", "4321", [(-1, "4321"), (1, "3412"), (1, "1234"), (1, "2143")]),
    }
    for n, (tag, lhs_idx, rhs_parts) in r3.items():
        rhs = _sum(*((s, _bk(i)) for s, i in rhs_parts))
        add(f"R.III.{n}", tag, f"2*{_bk(lhs_idx, True)} = {rhs}")

    # ---- P: particular bilinear consequences ----
    bc = [
        ("P.bc1a", "bc1a", f"2*{_sq(1, 'u', '2tau')} = t4(u|tau)*t3(0|tau) - t3(u|tau)*t4(0|tau)"),
        ("P.bc1b", "bc1b", f"2*{_sq(2, 'u', '2tau')} = t3(u|tau)*t3(0|tau) - t4(u|tau)*t4(0|tau)"),
        ("P.bc1c", "bc1c", f"2*{_sq(3, 'u', '2tau')} = t3(u|tau)*t3(0|tau) + t4(u|tau)*t4(0|tau)"),
        ("P.bc1d", "bc1d", f"2*{_sq(4, 'u', '2tau')} = t3(u|tau)*t4(0|tau) + t4(u|tau)*t3(0|tau)"),
        ("P.bc2a", "bc2a", "2*t1(u|2tau)*t4(u|2tau) = t1(u|tau)*t2(0|tau)"),
        ("P.bc2b", "bc2b", "2*t2(u|2tau)*t3(u|2tau) = t2(u|tau)*t2(0|tau)"),
        ("P.bc3a", "bc3a", f"2*t2(2u|2tau)*t2(0|2tau) = {_sq(3, 'u')} - {_sq(4, 'u')}"),
        ("P.bc3b", "bc3b", f"2*t2(2u|2tau)*t3(0|2tau) = {_sq(2, 'u')} - {_sq(1, 'u')}"),
        ("P.bc3c", "bc3c", f"2*t3(2u|2tau)*t2(0|2tau) = {_sq(2, 'u')} + {_sq(1, 'u')}"),
        ("P.bc3d", "bc3d", f"2*t3(2u|2tau)*t3(0|2tau) = {_sq(3, 'u')} + {_sq(4, 'u')}"),
        ("P.bc4a", "bc4a", "t1(2u|2tau)*t4(0|2tau) = t1(u|tau)*t2(u|tau)"),
        ("P.bc4b", "bc4b", "t4(2u|2tau)*t4(0|2tau) = t3(u|tau)*t4(u|tau)"),
    ]
    entries.extend(bc)

    # ---- L: Landen-type identities, cleared of denominators ----
    add("L.lt1a", "lt1a", "t4(2u|2tau)*t3(0|tau)*t4(0|tau) = t3(u|tau)*t4(u|tau)*t4(0|2tau)")
    add("L.lt1b", "lt1b", "t1(2u|2tau)*t3(0|tau)*t4(0|tau) = t1(u|tau)*t2(u|tau)*t4(0|2tau)")
    add("L.lt2", "lt2", "t4(0|2tau)*t4(0|2tau) = t3(0|tau)*t4(0|tau)")

    # ---- AD: two-variable addition specializations ----
    # (lhs index, constant index) -> two RHS forms (p, q, sign, r, s) each
    # meaning t_p(u)^2 t_q(v)^2 sign t_r(u)^2 t_s(v)^2.
    ad14 = {
        ("ad1a", 1, 2): [(1, 2, -1, 2, 1), (4, 3, -1, 3, 4)],
        ("ad1b", 1, 3): [(1, 3, -1, 3, 1), (4, 2, -1, 2, 4)],
        ("ad1c", 1, 4): [(1, 4, -1, 4, 1), (3, 2, -1, 2, 3)],
        ("ad2a", 2, 2): [(2, 2, -1, 1, 1), (3, 3, -1, 4, 4)],
        ("ad2b", 2, 3): [(3, 2, -1, 1, 4), (2, 3, -1, 4, 1)],
        ("ad2c", 2, 4): [(4, 2, -1, 1, 3), (2, 4, -1, 3, 1)],
        ("ad3a", 3, 2): [(2, 3, 1, 1, 4), (3, 2, 1, 4, 1)],
        ("ad3b", 3, 3): [(1, 1, 1, 3, 3), (2, 2, 1, 4, 4)],
        ("ad3c", 3, 4): [(4, 3, -1, 1, 2), (3, 4, -1, 2, 1)],
        ("ad4a", 4, 2): [(1, 3, 1, 2, 4), (3, 1, 1, 4, 2)],
        ("ad4b", 4, 3): [(1, 2, 1, 3, 4), (2, 1, 1, 4, 3)],
        ("ad4c", 4, 4): [(4, 4, -1, 1, 1), (3, 3, -1, 2, 2)],
    }
    for (tag, lidx, cidx), forms in ad14.items():
        lhs = f"t{lidx}(u+v|tau)*t{lidx}(u-v|tau)*{_sq(cidx, '0')}"
        for fn, (p, qq, sign, r, s) in enumerate(forms, start=1):
            rhs = _sum((1, f"{_sq(p, 'u')}*{_sq(qq, 'v')}"), (sign, f"{_sq(r, 'u')}*{_sq(s, 'v')}"))
            add(f"AD.{tag}.{fn}", f"{tag}.{fn}", f"{lhs} = {rhs}")
    # ((a, b) mixed pair, (c, d) constant pair, (e, f) second-term pair, sign);
    # the second RHS term pairs the complements of (a, b) and (c, d)
    ad5 = [
        ((1, 2), (3, 4), (3, 4), (1, 2), 1),
        ((1, 3), (2, 4), (2, 4), (1, 3), 1),
        ((1, 4), (2, 3), (2, 3), (1, 4), 1),
        ((2, 3), (2, 3), (1, 4), (1, 4), -1),
        ((2, 4), (2, 4), (1, 3), (1, 3), -1),
        ((3, 4), (3, 4), (1, 2), (1, 2), -1),
    ]
    for n, ((a, b), (c, d), (e, f), (g, h), sign) in enumerate(ad5, start=1):
        lhs = f"t{a}(u+v|tau)*t{b}(u-v|tau)*t{c}(0|tau)*t{d}(0|tau)"
        first = f"t{a}(u|tau)*t{b}(u|tau)*t{c}(v|tau)*t{d}(v|tau)"
        second = f"t{e}(u|tau)*t{f}(u|tau)*t{g}(v|tau)*t{h}(v|tau)"
        add(f"AD.ad5.{n}", f"ad5.{n}", f"{lhs} = {_sum((1, first), (sign, second))}")
    ad6 = [
        ((1, 1, 2, 2), (4, 4, 3, 3)),
        ((1, 2, 2, 1), (4, 3, 3, 4)),
        ((1, 3, 3, 1), (4, 2, 2, 4)),
        ((1, 4, 4, 1), (3, 2, 2, 3)),
    ]
    for n, ((p, qq, r, s), (p2, q2, r2, s2)) in enumerate(ad6, start=1):
        lhs = _sum((1, f"{_sq(p, 'u')}*{_sq(qq, 'v')}"), (-1, f"{_sq(r, 'u')}*{_sq(s, 'v')}"))
        rhs = _sum((1, f"{_sq(p2, 'u')}*{_sq(q2, 'v')}"), (-1, f"{_sq(r2, 'u')}*{_sq(s2, 'v')}"))
        add(f"AD.ad6.{n}", f"ad6.{n}", f"{lhs} = {rhs}")
    add("AD.ad7", "ad7", f"{_p4(1, 'u')} + {_p4(3, 'u')} = {_p4(2, 'u')} + {_p4(4, 'u')}")

    # ---- D: duplication identities ----
    add(
        "D.df1",
        "df1",
        "t1(2u|tau)*t2(0|tau)*t3(0|tau)*t4(0|tau)"
        " = 2*t1(u|tau)*t2(u|tau)*t3(u|tau)*t4(u|tau)",
    )
    # (tag, doubled index, constant-square index, two signed squares)
    df24 = [
        ("df2b", 2, 3, (1, 2, 3), (-1, 1, 4)),
        ("df2a", 2, 4, (1, 2, 4), (-1, 1, 3)),
        ("df3b", 3, 2, (1, 2, 3), (+1, 1, 4)),
        ("df3a", 3, 4, (1, 3, 4), (-1, 1, 2)),
        ("df4b", 4, 2, (1, 2, 4), (+1, 1, 3)),
        ("df4a", 4, 3, (1, 1, 2), (+1, 3, 4)),
    ]
    for tag, didx, cidx, (s1, a, b), (s2, c, d) in df24:
        lhs = f"t{didx}(2u|tau)*t{didx}(0|tau)*{_sq(cidx, '0')}"
        rhs = _sum((s1, f"{_sq(a, 'u')}*{_sq(b, 'u')}"), (s2, f"{_sq(c, 'u')}*{_sq(d, 'u')}"))
        add(f"D.{tag}", tag, f"{lhs} = {rhs}")
    df_quart = [
        ("df2c", 2, (1, 2), (-1, 1)),
        ("df2d", 2, (1, 3), (-1, 4)),
        ("df3c", 3, (1, 1), (+1, 3)),
        ("df3d", 3, (1, 2), (+1, 4)),
        ("df4c", 4, (1, 4), (-1, 1)),
        ("df4d", 4, (1, 3), (-1, 2)),
    ]
    for tag, didx, (s1, a), (s2, b) in df_quart:
        lhs = f"t{didx}(2u|tau)*t{didx}(0|tau)*{_sq(didx, '0')}"
        rhs = _sum((s1, _p4(a, "u")), (s2, _p4(b, "u")))
        add(f"D.{tag}", tag, f"{lhs} = {rhs}")

    # ---- D.df5: literal expansion of the compressed cyclic family ----
    cyclic = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    for al, be, ga in cyclic:
        key = f"{al}{be}{ga}"
        s = 1 if (be + ga) % 2 == 0 else -1
        lhs = _sum((s, f"{_sq(1, 'u')}*{_sq(al + 1, 'u')}"), (1, f"{_sq(be + 1, 'u')}*{_sq(ga + 1, 'u')}"))
        rhs = f"t{be + 1}(2u|tau)*t{be + 1}(0|tau)*{_sq(ga + 1, '0')}"
        add(f"D.df5a.{key}", f"df5a.{key}", f"{lhs} = {rhs}")
        lhs = _sum((s, f"{_sq(1, 'u')}*{_sq(al + 1, 'u')}"), (-1, f"{_sq(be + 1, 'u')}*{_sq(ga + 1, 'u')}"))
        rhs = _sum((-1, f"t{ga + 1}(2u|tau)*t{ga + 1}(0|tau)*{_sq(be + 1, '0')}"))
        add(f"D.df5b.{key}", f"df5b.{key}", f"{lhs} = {rhs}")
    for al in (1, 2, 3):
        lhs = f"t{al + 1}(2u|tau)*t{al + 1}(0|tau)*{_sq(al + 1, '0')}"
        rhs = _sum((1, _p4(al + 1, "u")), (1 if al % 2 == 0 else -1, _p4(1, "u")))
        add(f"D.df5c.{al}", f"df5c.{al}", f"{lhs} = {rhs}")
    for al, be, ga in cyclic:
        key = f"{al}{be}{ga}"
        lhs = f"t{al + 1}(2u|tau)*t{al + 1}(0|tau)*{_sq(al + 1, '0')}"
        s_beta = 1 if (ga + 1) % 2 == 0 else -1
        s_gamma = 1 if (be + 1) % 2 == 0 else -1
        rhs = _sum((s_beta, _p4(be + 1, "u")), (s_gamma, _p4(ga + 1, "u")))
        add(f"D.df5d.{key}", f"df5d.{key}", f"{lhs} = {rhs}")

    # ---- TC / G: theta-constant identities ----
    add("TC.tc1", "tc1", "dt1(0) = pi*t2(0|tau)*t3(0|tau)*t4(0|tau)")
    add("TC.tc2", "tc2", f"{_p4(3, '0')} = {_p4(2, '0')} + {_p4(4, '0')}")
    add("G.g1", "g1", "t4(0|tau) = gauss4(0|tau)")

    return entries


_ENTRIES = tuple(_build_entries())


@lru_cache(maxsize=1)
def builtin_catalog() -> tuple[Identity, ...]:
    """The complete parsed catalog, in stable order."""
    return tuple(parse_identity(dsl, cid) for cid, _tag, dsl in _ENTRIES)


@lru_cache(maxsize=1)
def catalog_by_id() -> dict[str, Identity]:
    return {ident.id: ident for ident in builtin_catalog()}


def catalog_ids() -> tuple[str, ...]:
    return tuple(cid for cid, _tag, _dsl in _ENTRIES)


@lru_cache(maxsize=1)
def catalog_tags() -> dict[str, str]:
    """Catalog id -> short source tag."""
    return {cid: tag for cid, tag, _dsl in _ENTRIES}


def catalog_tsv() -> str:
    """Line-oriented export: ID<TAB>DSL<TAB>tag, one identity per line."""
    tags = catalog_tags()
    return "\n".join(
        f"{ident.id}\t{format_identity(ident)}\t{tags[ident.id]}"
        for ident in builtin_catalog()
    )


# --------------------------------------------------------------------------
# manifest: source tag -> catalog coverage
# --------------------------------------------------------------------------


def _manifest() -> dict[str, dict]:
    """Each entry under its own tag up to the first ".", plus 9 tags that are no entry's own."""
    manifest: dict[str, dict] = {}
    for cid, tag, _dsl in _ENTRIES:
        manifest.setdefault(tag.split(".")[0], {"ids": []})["ids"].append(cid)
    return manifest | {
        "tt0": {"subsumed_by": ["W.I.r1", "W.III.r1"]},
        "si3": {"subsumed_by": [f"J.{f}.{i}" for f in ("II", "III") for i in range(1, 7)]},
        "si4": {"ids": [f"J.IV.{i}" for i in range(1, 5)]},  # J.IV.1-4's own tags: ft11a-ft11d
        "ft1": {"checked_by": "dual_vars"},
        "ft'": {"checked_by": "dual_vars"},
        **{f"z{i}": {"checked_by": "koornwinder_equivalence_check"} for i in (1, 2, 3, 4)},
    }


MANIFEST = _manifest()


# duality partners of the J identities under the primed/unprimed swap
J_DUAL: dict[str, str] = {
    "J.I.1": "J.I.1",
    "J.I.2": "J.I.4",
    "J.I.3": "J.I.3",
    "J.I.4": "J.I.2",
    "J.F.1": "J.F.1",
    "J.F.2": "J.F.5",
    "J.F.3": "J.F.3",
    "J.F.4": "J.F.4",
    "J.F.5": "J.F.2",
    "J.F.6": "J.F.6",
    "J.F.7": "J.F.12",
    "J.F.8": "J.F.8",
    "J.F.9": "J.F.10",
    "J.F.10": "J.F.9",
    "J.F.11": "J.F.11",
    "J.F.12": "J.F.7",
    **{f"J.II.{i}": f"J.II.{i}" for i in range(1, 7)},
    **{f"J.III.{i}": f"J.III.{7 - i}" for i in range(1, 7)},
    "J.IV.1": "J.IV.3",
    "J.IV.2": "J.IV.2",
    "J.IV.3": "J.IV.1",
    "J.IV.4": "J.IV.4",
}

# each expanded df5 instance must coincide structurally with this partner
DF5_PARTNER: dict[str, str] = {
    "D.df5a.123": "D.df3a",
    "D.df5a.231": "D.df4b",
    "D.df5a.312": "D.df2b",
    "D.df5b.123": "D.df4a",
    "D.df5b.231": "D.df2a",
    "D.df5b.312": "D.df3b",
    "D.df5c.1": "D.df2c",
    "D.df5c.2": "D.df3c",
    "D.df5c.3": "D.df4c",
    "D.df5d.123": "D.df2d",
    "D.df5d.231": "D.df3d",
    "D.df5d.312": "D.df4d",
}


def _factor_key(f: ThetaFactor):
    return (
        str(f.index),
        f.tau_multiplier,
        f.argument.var_coeffs,
        f.argument.const,
        f.argument.tau_coeff,
    )


def canonical_form(identity: Identity) -> tuple:
    """Order-insensitive normal form of lhs - rhs, up to overall sign.

    Two identities with equal canonical forms assert the same relation.
    """
    collected: dict[tuple, Fraction] = {}
    for side_sign, side in ((1, identity.lhs), (-1, identity.rhs)):
        for term in side:
            key = tuple(sorted((_factor_key(f) for f in term.factors)))
            collected[key] = collected.get(key, Fraction(0)) + side_sign * term.coefficient
    items = sorted((k, c) for k, c in collected.items() if c != 0)
    if items and items[0][1] < 0:
        items = [(k, -c) for k, c in items]
    return tuple(items)
