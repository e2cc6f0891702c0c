"""The frame kernels and the masks-only descent against the literal
loops they replaced.

order.directed_join_faults groups the tops by value, so that each value
costs a few unions of per-value columns; literal_directed_join_faults
is the loop it replaced, one top at a time over the whole table.  The
frame routes read joins and meets from order.subset_tables; join_of and
meet_of, the bound scans, are their reference.  order.closure_masks
lists the closure systems with no tables, and order.recorded_tables
builds them from the descent's record; literal_closure_tables is the
descent that carried a table on every branch.  Each kernel must give
its reference's answers on every small input of tests/census.py and on
drawn ones.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import census
from latkit import closure, order
from latkit.closure import ClosureOperator, clsys, dcclsys, directed_closed_systems
from latkit.convexity import clsys_operator
from latkit.errors import TheoremBreach
from latkit.maps import identity_map
from latkit.order import (
    FinitePoset,
    Subset,
    closure_masks,
    closure_tables,
    directed_columns,
    directed_join_faults,
    image_joins,
    is_monotone,
    join_of,
    least_of,
    meet_of,
    meet_table,
    recorded_tables,
    subset_tables,
    top_down,
)


def _poset(rows):
    return FinitePoset(tuple(map(str, range(len(rows)))), rows)


def _census_posets(largest):
    return [_poset(rows) for n in range(largest + 1) for rows in census.posets(n)]


def literal_directed_join_faults(P, table):
    """The fault bits of directed_join_faults, one top t at a time: the
    columns of the members that table sends outside the down row of
    table[t], or into none of its up row, over the whole table."""
    members, tops = directed_columns(P, P.n)
    faults = 0
    for t, v in enumerate(table):
        outside = inside = 0
        for i, w in enumerate(table):
            if not P.down[v] >> w & 1:
                outside |= members[i]
            if P.le[v] >> w & 1:
                inside |= members[i]
        faults |= tops[t] & (outside | ~inside)
    return faults


def literal_closure_tables(P, meets=None):
    """The top-down descent that carries a table on every branch, one
    least_of per branch and level, pruned on meets as closure_tables
    is: (fixpoint mask, table) leaves, unsorted."""
    le, n = P.le, P.n
    pairs = [[] for _ in range(n)]
    if meets is not None:
        for x in range(n):
            for y in range(x + 1, n):
                if not (le[x] >> y & 1 or le[y] >> x & 1):
                    pairs[meets[x][y]].append((x, y))

    def preserved(c, v, zpairs):
        return all(meets[c[x]][c[y]] == v for x, y in zpairs)

    states = [(0, list(range(n)))]
    for z in top_down(P):
        bit, row, zpairs = 1 << z, le[z], pairs[z]
        grown = []
        for kept, c in states:
            if not zpairs or preserved(c, z, zpairs):
                grown.append((kept | bit, c))
            below = least_of(P, kept & row)
            if below is not None and (not zpairs or preserved(c, below, zpairs)):
                t = c.copy()
                t[z] = below
                grown.append((kept, t))
        states = grown
    return [(m, tuple(c)) for m, c in states]


# ---------------------------------------------------------------------------
# Scott continuity, once per value


def _faults_or_breach(P, table):
    try:
        return directed_join_faults(P, table, P.n)
    except TheoremBreach:
        return "breach"


def _literal_faults_or_breach(P, table):
    # directed_join_faults raises when its columns and the finite
    # collapse disagree: no fault iff the map is monotone
    faults = literal_directed_join_faults(P, table)
    return "breach" if (faults == 0) != is_monotone(P, table) else faults


def _tables(n):
    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)


def test_scott_faults_match_the_literal_loop_on_every_census_poset():
    # three drawn tables, mostly not monotone, a constant map and, where
    # the meets exist, a meet row, which are monotone
    rng = random.Random(0)
    for P in _census_posets(6)[1:]:
        n = P.n
        tables = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(3)]
        tables.append((rng.randrange(n),) * n)
        mt = meet_table(P)
        if mt is not None:
            tables.append(mt[rng.randrange(n)])
        for table in tables:
            got = directed_join_faults(P, table, P.n)
            assert got == literal_directed_join_faults(P, table), (P, table)


@st.composite
def flipped_columns(draw):
    rows = draw(st.sampled_from([r for n in range(1, 6) for r in census.posets(n)]))
    n = len(rows)
    table = draw(_tables(n))
    element = draw(st.integers(0, n - 1))
    return rows, table, element, draw(st.integers(0, 2**n - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(flipped_columns())
def test_scott_faults_match_the_literal_loop_with_a_flipped_column_bit(case):
    # one bit of one member column flipped: both read the same broken
    # columns and must name the same fault positions, or both breach
    rows, table, element, draw = case
    real = order._directed_columns

    def flipped(Q):
        members, tops = real(Q)
        width = max(col.bit_length() for col in tops)
        members = list(members)
        members[element] ^= 1 << draw % width
        return tuple(members), tops

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(order, "_directed_columns", flipped)
        P = _poset(rows)
        assert _faults_or_breach(P, table) == _literal_faults_or_breach(P, table)


# ---------------------------------------------------------------------------
# subset tables


def assert_tables_match_the_scans(P):
    tables = subset_tables(P)
    assert tables is subset_tables(P)  # kept on the poset
    for m in range(P.full_mask + 1):
        assert tables.join[m] == join_of(P, m), (P, m)
        assert tables.meet[m] == meet_of(P, m), (P, m)
    for v in range(P.n):
        column = tables.join_columns[v]
        assert len(column) == 256
        assert list(column[: P.n]) == [join_of(P, 1 << u | 1 << v) for u in range(P.n)]
    identity = list(range(P.n))
    assert image_joins(tables, identity) == tables.join


def test_subset_tables_match_the_scans_on_every_census_frame():
    for rows in census.frames(10):
        assert_tables_match_the_scans(_poset(rows))


@st.composite
def down_set_lattices(draw):
    # the down-sets of a drawn census poset, listed in a drawn order
    rows = draw(st.sampled_from([r for n in range(1, 5) for r in census.posets(n)]))
    downs = draw(st.permutations(census.down_sets(rows)))
    return FinitePoset(
        tuple(f"d{m}" for m in downs),
        tuple(sum(1 << j for j, b in enumerate(downs) if a & ~b == 0) for a in downs),
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(down_set_lattices())
def test_subset_tables_match_the_scans_on_drawn_down_set_lattices(P):
    assert_tables_match_the_scans(P)


# ---------------------------------------------------------------------------
# the masks-only descent and tables on request


def assert_descent_matches_the_literal_one(P):
    want = sorted(literal_closure_tables(P))
    masks, record = closure_masks(P)
    assert sorted(masks) == [m for m, _ in want]
    assert sorted(recorded_tables(P, record)) == want
    assert sorted(closure_tables(P)) == want
    assert closure.closure_system_masks(P) == tuple(m for m, _ in want)
    assert closure._carried_tables(P, P.n) == (
        tuple(m for m, _ in want),
        tuple(t for _, t in want),
    )
    mt = meet_table(P)
    if mt is not None:
        assert sorted(closure_tables(P, mt)) == sorted(literal_closure_tables(P, mt))


def test_descent_matches_the_literal_one_on_every_census_poset():
    for P in _census_posets(7):
        assert_descent_matches_the_literal_one(P)


def test_nuclei_descent_matches_the_literal_one_on_every_census_frame():
    for rows in census.frames(10):
        P = _poset(rows)
        mt = meet_table(P)
        assert sorted(closure_tables(P, mt)) == sorted(literal_closure_tables(P, mt))


def test_nuclei_prune_reads_no_least_of_where_several_covers_meet(monkeypatch):
    # on a meet-semilattice an element has several upper covers iff it
    # is the meet of an incomparable pair: two covers meet there, and a
    # lone cover would lie below both members of a pair.  Those are the
    # levels the prune decides from its pair meets, so the nuclei
    # descent asks least_of only for the one cover of each other
    # non-maximal element
    calls = []
    real = order.least_of
    monkeypatch.setattr(
        order, "least_of", lambda Q, mask: calls.append(mask) or real(Q, mask)
    )
    levels = 0
    for P in _census_posets(7):
        mt = meet_table(P)
        if mt is None:
            continue
        ups = [0] * P.n
        for i, _ in order.covers(P.le):
            ups[i] += 1
        paired = set(order.derived(P, order.incomparable_meets)[2])
        assert {z for z in range(P.n) if ups[z] > 1} == paired
        levels += P.n
        above = [row & ~(1 << z) for z, row in enumerate(P.le)]
        calls.clear()
        closure_tables(P, mt)
        assert calls == [
            above[z] for z in top_down(P) if above[z] and z not in paired
        ]
    assert levels == 1976


@st.composite
def posets(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    line = draw(st.permutations(range(n)))
    edges = [(line[i], line[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    labels = [f"e{i}" for i in range(n)]
    return order.build_poset(
        labels, [(labels[a], labels[b]) for (a, b), k in zip(edges, keep) if k]
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(posets())
def test_descent_matches_the_literal_one_on_drawn_posets(P):
    assert_descent_matches_the_literal_one(P)


def test_mask_readers_build_no_table(monkeypatch):
    # clsys, directed_closed_systems, dcclsys and clsys_operator read
    # the masks only; enumerate_cl_lattice and sccore_bruteforce ask
    # for the tables, once per poset
    built = []
    real = closure.recorded_tables

    def counted(Q, record):
        built.append(Q)
        return real(Q, record)

    monkeypatch.setattr(closure, "recorded_tables", counted)
    for P in _census_posets(4):
        X = Subset(P, P.full_mask >> 1)
        clsys(X, method="both")
        dcclsys(X)
        directed_closed_systems(P)
        clsys_operator(P)
    assert built == []
    for P in _census_posets(4)[1:]:
        closure.enumerate_cl_lattice(P)
        gamma = ClosureOperator(identity_map(P))
        assert closure.sccore_bruteforce(gamma) == gamma
        assert built[-1] is P
    assert len(built) == len(_census_posets(4)) - 1
