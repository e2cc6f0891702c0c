"""The routes that build closure operators and nuclei, run on every small
input: every poset on up to 6 elements, every frame of up to 10
elements and every Moore family on up to 4 points, each up to
isomorphism (tests/census.py).  Each closure operator or nucleus a
route returns is also built again by its own constructor, which must
accept it.  On the frames, the filter/quotient correspondence and the
least nuclear system are compared with what a finite frame forces:
the principal filters, and the intersection of the listed nuclear
systems.  The library's one-query order picks, which read fixpoint
masks, are compared with the same picks read from the value rows of
the tables (maps.value_rows)."""

from collections import Counter

import census
from latkit import (
    ClosureOperator,
    EndoMap,
    Nucleus,
    PowersetOperator,
    acyclicity,
    convexity_checks,
    enumerate_cl_lattice,
    enumerate_nuclei,
    fix_of_meet_check,
    frame_of_nuclei_check,
    galois_identities_check,
    generate_closure,
    hmj_correspondence,
    kleene_generate,
    least_nucleus_above,
    nuclear_core,
    nucleus_join,
    nucleus_meet,
    nucsys,
    regular_nucleus,
    sccore,
    sccore_bruteforce,
    validate_structure,
)
from latkit import fixtures as fx
from latkit.hmj import fitting, open_nucleus
from latkit.maps import is_scott_continuous, preserves_binary_meets, value_rows
from latkit.order import FinitePoset, Subset, bits, meet_table


def _poset(rows):
    return FinitePoset(tuple(map(str, range(len(rows)))), rows)


def _accepted(value, cls):
    # the value a route returned, built again by cls's constructor from
    # its plain table: cls must accept it and fix the same set
    assert type(value) is cls
    assert cls(EndoMap(value.poset, value.table)).fix_mask == value.fix_mask
    return value


def _closure_system_masks(P):
    # every mask in which each principal upper set has a least member
    def has_least(mask):
        return any(mask & ~P.le[y] == 0 for y in bits(mask))

    return [
        m
        for m in range(P.full_mask + 1)
        if all(has_least(m & up) for up in P.le)
    ]


def rows_least(rows, mask):
    """The member of mask whose up row covers mask, or None."""
    covering = (i for i in bits(mask) if rows.above(rows.tables[i]) & mask == mask)
    return next(covering, None)


def rows_greatest(rows, mask):
    """The member of mask whose down row covers mask, or None."""
    covering = (i for i in bits(mask) if rows.below(rows.tables[i]) & mask == mask)
    return next(covering, None)


def assert_frame_picks_match_the_value_rows(L, gammas):
    # the least nucleus above and the nuclear core of each gamma, and
    # the fitting of each nucleus, the join of the opens below it
    nucs = enumerate_nuclei(L)
    rows = value_rows(L, [nu.table for nu in nucs])
    for gamma in gammas:
        above = rows_least(rows, rows.above(gamma.table))
        assert least_nucleus_above(L, gamma) == nucs[above]
        below = rows_greatest(rows, rows.below(gamma.table))
        assert nuclear_core(L, gamma) == nucs[below]
    opens = [open_nucleus(L, a) for a in L.elements]
    open_rows = value_rows(L, [o.table for o in opens])
    for nu in nucs:
        fitted = [opens[a] for a in bits(open_rows.below(nu.table))]
        assert fitting(L, nu) == nucleus_join(fitted, L)


def assert_scott_core_matches_the_value_rows(P):
    # the greatest Scott-continuous operator below each operator
    ops = enumerate_cl_lattice(P)["closure_operators"]
    rows = value_rows(P, [op.table for op in ops])
    scott = sum(1 << i for i, op in enumerate(ops) if is_scott_continuous(op))
    for gamma in ops:
        core = rows_greatest(rows, rows.below(gamma.table) & scott)
        assert sccore_bruteforce(gamma) == ops[core]


def test_census_counts_match_oeis():
    assert [len(census.posets(n)) for n in range(1, 7)] == [1, 2, 5, 16, 63, 318]
    sizes = Counter(map(len, census.frames(10)))
    assert [sizes[s] for s in range(1, 11)] == [1, 1, 1, 2, 3, 5, 8, 15, 26, 47]
    assert [len(census.moore_families(k)) for k in range(1, 5)] == [2, 7, 61, 2480]


def test_closure_routes_on_every_small_poset():
    # each closure operator is generated again together with the one
    # before it in mask order, by both generation routes
    for n in range(1, 7):
        for rows in census.posets(n):
            P = _poset(rows)
            ops = enumerate_cl_lattice(P)["closure_operators"]
            assert [op.fix_mask for op in ops] == _closure_system_masks(P)
            for prev, gamma in zip(ops[-1:] + ops[:-1], ops):
                _accepted(gamma, ClosureOperator)
                core = _accepted(sccore(gamma), ClosureOperator)
                assert core == _accepted(sccore_bruteforce(gamma), ClosureOperator)
                G = [prev, gamma]
                joined = _accepted(kleene_generate(G, P), ClosureOperator)
                assert joined == _accepted(generate_closure(G, P), ClosureOperator)


def test_nucleus_routes_on_every_small_meet_semilattice():
    # the meet-semilattices on n elements are the lattices on n + 1 with
    # the top taken off: 1 + 1 + 2 + 5 + 15 + 53 of them (A006966)
    semilattices = [
        P
        for n in range(1, 7)
        for P in map(_poset, census.posets(n))
        if meet_table(P) is not None
    ]
    assert len(semilattices) == 77
    for P in semilattices:
        nucs = enumerate_nuclei(P)
        ops = enumerate_cl_lattice(P)["closure_operators"]
        assert {nu.table for nu in nucs} == {
            op.table for op in ops if preserves_binary_meets(op)
        }
        for i, a in enumerate(nucs):
            _accepted(a, Nucleus)
            for b in nucs[i:]:
                _accepted(nucleus_meet(a, b), Nucleus)
                assert fix_of_meet_check(a, b)
                joined = _accepted(nucleus_join([a, b], P), Nucleus)
                assert joined.fix_mask == a.fix_mask & b.fix_mask
        assert frame_of_nuclei_check(P)["nucleus_count"] == len(nucs)


def test_frame_routes_on_every_small_frame():
    frames = [_poset(rows) for rows in census.frames(10)]
    assert len(frames) == 109
    for L in frames:
        assert validate_structure(L).level == "frame"
        for x in L.elements:
            _accepted(regular_nucleus(L, x), Nucleus)
        if L.n > 8:
            continue
        for gamma in enumerate_cl_lattice(L)["closure_operators"]:
            above = _accepted(least_nucleus_above(L, gamma), Nucleus)
            core = _accepted(nuclear_core(L, gamma), Nucleus)
            assert gamma.leq(above) and core.leq(gamma)


def test_order_picks_match_the_value_rows_on_every_input_up_to_6():
    frames = [_poset(rows) for rows in census.frames(6)]
    assert len(frames) == 13
    for L in frames:
        gammas = enumerate_cl_lattice(L)["closure_operators"]
        assert_frame_picks_match_the_value_rows(L, gammas)
    for n in range(1, 7):
        for rows in census.posets(n):
            assert_scott_core_matches_the_value_rows(_poset(rows))


def test_filter_quotient_routes_on_every_frame_up_to_9():
    # on a finite frame every filter is Scott-open and principal, and
    # each element's up row pairs with one compact fitted quotient
    frames = [_poset(rows) for rows in census.frames(9)]
    assert len(frames) == 62
    for L in frames:
        report = hmj_correspondence(L)
        assert report["count"] == L.n
        assert sorted(F.mask for F, _ in report["pairs"]) == sorted(L.le)
        assert galois_identities_check(L)["identities"]


def test_least_nuclear_system_on_every_mask_of_every_frame_up_to_8():
    for L in map(_poset, census.frames(8)):
        fixes = [nu.fix_mask for nu in enumerate_nuclei(L)]
        for X in range(L.full_mask + 1):
            least = L.full_mask
            for F in fixes:
                if X & ~F == 0:
                    least &= F
            assert nucsys(L, Subset(L, X)).mask == least


def test_convexity_routes_on_every_small_moore_family():
    # an antisymmetric funnel forces anti-exchange, and the search
    # reports only linear orders
    for k in range(1, 5):
        U = fx.antichain(k)
        for table in census.moore_families(k):
            op = PowersetOperator(U, "moore", table)
            geometry = convexity_checks(op)["is_convex_geometry"]
            assert geometry or not acyclicity(op, "search")["acyclic"]
