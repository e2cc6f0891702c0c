"""Implication tables, nuclei, their lattice, and the named formulas."""

import random

import pytest

from corpus import (
    random_frame,
    random_meet_semilattice,
    random_poset,
    random_prenucleus,
)
from latkit import (
    ClosureOperator,
    Nucleus,
    Subset,
    adjunction_check,
    clsys,
    compose,
    duality,
    enumerate_cl_lattice,
    enumerate_nuclei,
    fix_of_meet_check,
    frame_of_nuclei_check,
    heyting_implication,
    identity_map,
    is_nuclear_system,
    is_nucleus_map,
    is_prenucleus,
    least_nucleus_above,
    nuc_map,
    nuclear_core,
    nucleus_join,
    nucleus_meet,
    nucsys,
    pointwise_leq,
    regular_nucleus,
    validate_structure,
)
from latkit import fixtures as fx
from latkit.errors import (
    CapExceeded,
    NotAFrame,
    NotANucleus,
    NotMeetSemilattice,
    NotPreframe,
    NotPrenucleus,
)
from latkit import heyting
from latkit.heyting import (
    FrameView,
    implication_table,
    require_frame,
    require_preframe,
)
from latkit.maps import preserves_binary_meets
from latkit.order import (
    bits,
    build_poset,
    directed_subsets,
    join_of,
    meet_of,
    meet_table,
)


def pentagon():
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
    )


def test_structure_levels_on_fixtures():
    assert validate_structure(fx.point()).level == "frame"
    assert validate_structure(fx.c3()).level == "frame"
    assert validate_structure(fx.b2()).level == "frame"
    assert validate_structure(fx.chain(5)).level == "frame"
    # complete but not distributive
    assert validate_structure(fx.diamond()).level == "preframe"
    assert validate_structure(fx.diamond()).witness == (
        "meet with 'a' does not distribute over the join of {b, c}"
    )
    assert validate_structure(pentagon()).witness == (
        "meet with 'b' does not distribute over the join of {a, c}"
    )
    # meet-semilattice without a top
    assert validate_structure(fx.topfree()).level == "preframe"
    assert validate_structure(fx.topfree()).witness == "{} lacks a join or meet"
    # no binary meets at all
    assert validate_structure(fx.v4()).level is None
    assert validate_structure(fx.antichain(2)).level is None


def test_require_frame_and_preframe():
    require_frame(fx.b2())
    require_preframe(fx.topfree())
    with pytest.raises(NotAFrame):
        require_frame(fx.diamond())
    with pytest.raises(NotAFrame):
        require_frame(fx.topfree())
    with pytest.raises(NotPreframe):
        require_preframe(fx.v4())


def reference_structure(P, mt):
    """The frame check as a loop over every subset, one join_of per
    image, with the meet table given."""
    if mt is None:
        return FrameView(P, None, "some pair of elements has no meet")
    for dmask, dtop in directed_subsets(P, P.n):
        for x in range(P.n):
            img = 0
            for d in bits(dmask):
                img |= 1 << mt[x][d]
            if join_of(P, img) != mt[x][dtop]:
                return FrameView(
                    P,
                    "meet_semilattice",
                    f"meet with {P.label(x)!r} does not distribute over "
                    f"the directed join of {{{', '.join(P.labels_of(dmask))}}}",
                )
    for m in range(P.full_mask + 1):
        if join_of(P, m) is None or meet_of(P, m) is None:
            return FrameView(
                P,
                "preframe",
                f"{{{', '.join(P.labels_of(m))}}} lacks a join or meet",
            )
    for x in range(P.n):
        row = mt[x]
        for m in range(P.full_mask + 1):
            img = 0
            for y in bits(m):
                img |= 1 << row[y]
            if join_of(P, img) != row[join_of(P, m)]:
                return FrameView(
                    P,
                    "preframe",
                    f"meet with {P.label(x)!r} does not distribute over "
                    f"the join of {{{', '.join(P.labels_of(m))}}}",
                )
    return FrameView(P, "frame", None)


def test_structure_matches_reference_loop():
    rng = random.Random(44)
    posets = [
        fx.point(), fx.c2(), fx.c3(), fx.v4(), fx.b2(), fx.topfree(),
        fx.diamond(), fx.chain(1), fx.chain(6), fx.antichain(0),
        fx.antichain(1), fx.antichain(3), pentagon(),
    ]
    posets += [random_poset(rng, rng.randrange(1, 10)) for _ in range(60)]
    posets += [random_meet_semilattice(rng, max_n=9) for _ in range(60)]
    posets += [random_frame(rng, max_n=9) for _ in range(30)]
    for P in posets:
        got = validate_structure(P, cap=P.n)
        want = reference_structure(P, meet_table(P))
        assert (got.level, got.witness) == (want.level, want.witness), P


def test_structure_matches_reference_on_planted_meets(monkeypatch):
    # a corrupted meet table makes the directed stage fail for several
    # x at once; the witness must still be the first (subset, x) pair
    rng = random.Random(45)
    for _ in range(40):
        P = rng.choice([random_frame, random_meet_semilattice])(rng, max_n=8)
        mt = [list(row) for row in meet_table(P)]
        for _ in range(rng.randrange(1, 4)):
            mt[rng.randrange(P.n)][rng.randrange(P.n)] = rng.randrange(P.n)
        mt = tuple(tuple(row) for row in mt)
        monkeypatch.setattr(heyting, "meet_table", lambda Q, mt=mt: mt)
        got = heyting._validate_structure(P)  # the builder, uncached
        want = reference_structure(P, mt)
        assert (got.level, got.witness) == (want.level, want.witness), P


def test_implication_table_on_b2():
    P = fx.b2()
    imp = implication_table(P)

    def arrow(a, b):
        return P.label(imp[P.index(a)][P.index(b)])

    assert arrow("a", "0") == "b"
    assert arrow("b", "0") == "a"
    assert arrow("a", "b") == "b"
    assert arrow("1", "a") == "a"
    assert arrow("0", "0") == "1"
    assert heyting_implication(P, "a", "0") == "b"


def test_adjunction_on_random_frames():
    rng = random.Random(41)
    for _ in range(25):
        L = random_frame(rng)
        assert adjunction_check(L)


def test_prenucleus_and_nucleus_predicates():
    P = fx.b2()
    assert is_prenucleus(identity_map(P))
    assert is_nucleus_map(identity_map(P))
    # closure operator toward the top that skips meets: Fix {0, 1}
    gamma = duality(clsys(Subset.of(P, ["0"])))
    assert gamma.fix.labels == ("0", "1")
    assert not is_nucleus_map(gamma.map)
    assert preserves_binary_meets(gamma.map) is False


def test_nucleus_validation_errors():
    P = fx.b2()
    gamma = duality(clsys(Subset.of(P, ["0"])))
    with pytest.raises(NotANucleus):
        Nucleus(gamma)
    with pytest.raises(NotMeetSemilattice):
        Nucleus(ClosureOperator(identity_map(fx.v4())))


def test_enumerate_nuclei_on_b2():
    P = fx.b2()
    nucs = enumerate_nuclei(P)
    assert [nu.fix.labels for nu in nucs] == [
        ("0", "a", "b", "1"),
        ("a", "1"),
        ("b", "1"),
        ("1",),
    ]
    # the pointwise order has the identity at the bottom
    for nu in nucs:
        assert nucs[0].leq(nu)
        assert nu.leq(nucs[-1])


def test_enumerate_nuclei_on_topfree_and_diamond():
    # closure operators abound, nuclei are scarce
    assert len(enumerate_cl_lattice(fx.topfree())["closure_systems"]) == 4
    nucs = enumerate_nuclei(fx.topfree())
    assert len(nucs) == 1
    assert nucs[0].table == identity_map(fx.topfree()).table
    dia = enumerate_nuclei(fx.diamond())
    assert [nu.fix.labels for nu in dia] == [("0", "a", "b", "c", "1"), ("1",)]


def test_nucleus_meet_and_fix_product():
    P = fx.b2()
    nucs = enumerate_nuclei(P)
    from latkit.order import meet_table

    mt = meet_table(P)
    for a in nucs:
        for b in nucs:
            m = nucleus_meet(a, b)
            assert fix_of_meet_check(a, b)
            for i in range(P.n):
                assert m(i) == mt[a(i)][b(i)]
            assert m.leq(a) and m.leq(b)
            for other in nucs:
                if other.leq(a) and other.leq(b):
                    assert other.leq(m)


def test_nucleus_join_is_generation():
    rng = random.Random(42)
    for _ in range(25):
        L = random_frame(rng)
        nucs = enumerate_nuclei(L)
        fam = [rng.choice(nucs) for _ in range(rng.randrange(1, 4))]
        joined = nucleus_join(fam, L)
        for nu in fam:
            assert nu.leq(joined)
        for other in nucs:
            if all(nu.leq(other) for nu in fam):
                assert joined.leq(other)


def test_nucleus_join_rejects_non_prenuclei():
    P = fx.b2()
    gamma = duality(clsys(Subset.of(P, ["0"])))  # not meet-preserving
    with pytest.raises(NotPrenucleus):
        nucleus_join([gamma.map], P)


def test_prenucleus_corpus_joins_validate():
    rng = random.Random(43)
    for _ in range(20):
        L = random_frame(rng)
        nucs = enumerate_nuclei(L)
        pre = [random_prenucleus(rng, L, nucs) for _ in range(rng.randrange(1, 3))]
        for f in pre:
            assert is_prenucleus(f)
        nu = nucleus_join(pre, L)
        assert is_nucleus_map(nu.op.map)
        for f in pre:
            assert pointwise_leq(f, nu.op.map)


def test_nuclear_systems_and_nucsys():
    P = fx.b2()
    for m in range(P.full_mask + 1):
        X = Subset(P, m)
        C = nucsys(P, X)
        assert is_nuclear_system(P, Subset(P, C.mask))
        assert C.mask & m == m
    # nuclear systems are scarcer than closure systems
    nuclear = [
        m
        for m in range(P.full_mask + 1)
        if is_nuclear_system(P, Subset(P, m))
    ]
    assert len(nuclear) == 4


def test_nuc_map_example():
    P = fx.b2()
    nu = nuc_map(P, Subset.of(P, ["a"]))
    assert nu.op.map.as_labels() == {"0": "a", "a": "a", "b": "1", "1": "1"}
    assert nu.fix.labels == ("a", "1")


def test_regular_nucleus_membership_lemma():
    P = fx.b2()
    nucs = enumerate_nuclei(P)
    for x in P.elements:
        r = regular_nucleus(P, x)
        for nu in nucs:
            assert nu.leq(r) == bool(nu.fix_mask >> P.index(x) & 1)


def test_least_nucleus_above_and_core_on_b2():
    P = fx.b2()
    gamma = duality(clsys(Subset.of(P, ["0"])))  # Fix {0, 1}
    above = least_nucleus_above(P, gamma)
    assert above.fix.labels == ("1",)
    below = nuclear_core(P, gamma)
    assert below.table == identity_map(P).table
    # idempotent sanity on nuclei themselves
    for nu in enumerate_nuclei(P):
        g = ClosureOperator(nu.op.map)
        assert least_nucleus_above(P, g).table == nu.table
        assert nuclear_core(P, g).table == nu.table


def test_least_nucleus_and_core_against_scan_on_random_frames():
    rng = random.Random(44)
    for _ in range(15):
        L = random_frame(rng)
        nucs = enumerate_nuclei(L)
        for gamma in enumerate_cl_lattice(L)["closure_operators"]:
            above = least_nucleus_above(L, gamma)
            cands = [nu for nu in nucs if pointwise_leq(gamma.map, nu.op.map)]
            assert any(nu.table == above.table for nu in cands)
            for nu in cands:
                assert above.leq(nu)
            below = nuclear_core(L, gamma)
            cands = [nu for nu in nucs if pointwise_leq(nu.op.map, gamma.map)]
            assert any(nu.table == below.table for nu in cands)
            for nu in cands:
                assert nu.leq(below)


def test_frame_of_nuclei_check_on_fixtures():
    for L in (fx.point(), fx.c3(), fx.b2(), fx.diamond(), fx.topfree()):
        rep = frame_of_nuclei_check(L)
        assert rep["is_complete_lattice"]
        assert rep["bottom_is_identity"]
        assert rep["meets_pointwise"]
        assert rep["all_scott_continuous"]


def test_frame_of_nuclei_check_gates_the_number_of_nuclei(monkeypatch):
    # chain(n) has 2^(n-1) nuclei; the bit length of their number is
    # gated before any pair of them is examined
    for n in (13, 14):
        P = fx.chain(n)
        with pytest.raises(
            CapExceeded, match=f"^nucleus pair check: size {n} exceeds cap 12;"
        ):
            frame_of_nuclei_check(P)
        assert heyting._nuclei_rows not in P._derived
    # an explicit cap replaces the default
    monkeypatch.setattr(heyting, "NUCLEUS_PAIR_CAP", 3)
    with pytest.raises(
        CapExceeded, match="^nucleus pair check: size 4 exceeds cap 3;"
    ):
        frame_of_nuclei_check(fx.chain(4))
    assert frame_of_nuclei_check(fx.chain(4), cap=4)["nucleus_count"] == 8


def test_nuclei_order_pairs_on_b2():
    rep = frame_of_nuclei_check(fx.b2())
    assert rep["nucleus_count"] == 4
    assert rep["order_pairs"] == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def test_composition_of_nuclei_is_prenucleus_not_nucleus():
    P = fx.b2()
    nucs = enumerate_nuclei(P)
    a = next(nu for nu in nucs if nu.fix.labels == ("a", "1"))
    b = next(nu for nu in nucs if nu.fix.labels == ("b", "1"))
    f = compose(a.op.map, b.op.map)
    assert is_prenucleus(f)
    joined = nucleus_join([f], P)
    assert joined.fix.labels == ("1",)
