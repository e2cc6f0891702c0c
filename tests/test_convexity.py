"""Anti-exchange, funnels, and acyclicity of powerset closure operators."""

import functools
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import census
from corpus import random_poset
from latkit import (
    CapExceeded,
    InputError,
    NotAPreorder,
    PowersetOperator,
    acyclicity,
    clsys,
    clsys_operator,
    convexity_checks,
    dcclsys_operator,
    funnel_check,
    rule_closure_operator,
    table_operator,
)
from latkit import convexity
from latkit import fixtures as fx
from latkit.order import Subset, bits, least_closed_table, upper_sets
from latkit.rules import ClosureRule, RuleSet, default_rules, rule_closure_mask


def planted_non_convex():
    # closure of any single point is both points; anti-exchange fails
    A = fx.antichain(2)
    return A, table_operator(
        A,
        {
            (): (),
            ("0",): ("0", "1"),
            ("1",): ("0", "1"),
            ("0", "1"): ("0", "1"),
        },
    )


@functools.lru_cache(maxsize=None)
def partial_orders(n):
    """Every partial order on n elements, as up rows: each of the
    3^(n(n-1)/2) ways to make a pair <, > or incomparable, closed
    transitively, with repeats and cyclic closures dropped."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = {}
    for assignment in range(3 ** len(pairs)):
        rows = [1 << i for i in range(n)]
        a = assignment
        for i, j in pairs:
            a, r = divmod(a, 3)
            if r == 1:
                rows[i] |= 1 << j
            elif r == 2:
                rows[j] |= 1 << i
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        if all(not (rows[i] >> j & 1 and rows[j] >> i & 1) for i, j in pairs):
            found.setdefault(tuple(rows), None)
    return tuple(found)


def reference_relation_search(op):
    """The first partial order that is a funnel for op, or None: the
    search over every relation that acyclicity's linear orders replace.
    Funnel condition (3) screens each order before funnel_check."""
    cl = op.table
    for rows in partial_orders(op.universe.n):
        if all(
            cl[m] & r & ~cl[m & r] == 0
            for m in range(op.universe.full_mask + 1)
            for r in rows
        ):
            if funnel_check(op, rows)["is_funnel"]:
                return rows
    return None


def order_rows(P, pairs):
    """Up rows of the order that acyclicity reports as label pairs."""
    rows = [1 << i for i in range(P.n)]
    for a, b in pairs:
        rows[P.index(a)] |= 1 << P.index(b)
    return rows


# ---------------------------------------------------------------------------
# the literal scans over the 2^n-entry table, one Python step per mask:
# the references that the library's column and table sweeps must match
# witness for witness


def literal_law_fault(P, cl):
    """The first subset, in mask order, at which cl breaks a closure law."""
    for m, c in enumerate(cl):
        if m & ~c:
            return f"not ascending at {{{', '.join(P.labels_of(m))}}}"
        if cl[c] != c:
            return f"not idempotent at {{{', '.join(P.labels_of(m))}}}"
        for e in bits(P.full_mask & ~m):
            if c & ~cl[m | 1 << e]:
                return (
                    f"not monotone when adding {P.label(e)!r} to "
                    f"{{{', '.join(P.labels_of(m))}}}"
                )
    return None


def literal_anti_exchange_failure(P, cl, pulled):
    full = P.full_mask
    for m in range(full + 1):
        out = full & ~cl[m]
        for y in bits(out):
            ybit = 1 << y
            for x in bits(cl[m | ybit] & out & ~ybit):
                pulled[x] |= ybit
                if cl[m | 1 << x] & ybit:
                    return P.labels_of(m), P.label(x), P.label(y)
    return None


def literal_witness_failure(P, cl, rows):
    for m in range(P.full_mask + 1):
        for y in bits(cl[m]):
            base = m & rows[y]
            z = base
            while not cl[z] >> y & 1:
                if z == 0:
                    return P.labels_of(m), P.label(y)
                z = (z - 1) & base
    return None


def literal_upper_set_failure(P, cl, rows):
    uppers = upper_sets(rows)
    for m in range(P.full_mask + 1):
        cm = cl[m]
        for u in uppers:
            if cm & u & ~cl[m & u]:
                return P.labels_of(m), P.labels_of(u)
    return None


def literal_principal_failure(P, cl, rows):
    for m in range(P.full_mask + 1):
        cm = cl[m]
        for y, row in enumerate(rows):
            if cm & row & ~cl[m & row]:
                return P.labels_of(m), P.label(y)
    return None


def assert_sweeps_match_the_literal_scans(op, orders):
    """Every sweep of the library names the literal scan's witness, and
    a convex geometry records the literal scan's pull-in rows."""
    P, cl = op.universe, op.table
    pulled = [0] * P.n
    want = literal_anti_exchange_failure(P, cl, pulled)
    rep = convexity_checks(op, cap=P.n)
    assert rep["anti_exchange_witness"] == want
    assert rep["is_convex_geometry"] == (want is None)
    if want is None:
        assert op._pulled == tuple(pulled)
    for rows in orders:
        assert (
            convexity._witness_failure(P, op.columns, rows),
            convexity._upper_set_failure(P, op.columns, rows),
            convexity._principal_failure(P, cl, rows),
        ) == (
            literal_witness_failure(P, cl, rows),
            literal_upper_set_failure(P, cl, rows),
            literal_principal_failure(P, cl, rows),
        ), rows


def test_table_operator_validates():
    A = fx.antichain(2)
    with pytest.raises(InputError):
        # not ascending on {0}
        table_operator(A, {(): (), ("0",): (), ("1",): ("1",), ("0", "1"): ("0", "1")})
    with pytest.raises(InputError):
        # not a total table
        table_operator(A, {(): ()})


def test_table_operator_rejects_a_subset_named_twice():
    # ("0", "0") and ("0",) both name {0}; the entry that came last used
    # to win, so swapping the two chose another operator
    P = fx.c2()
    rest = {(): (), ("1",): ("1",), ("0", "1"): ("0", "1")}
    twice = [(("0", "0"), ("0", "1")), (("0",), ("0",))]
    for entries in (twice, twice[::-1]):
        with pytest.raises(InputError, match=r"^table names \{0\} twice$"):
            table_operator(P, {**dict(entries), **rest})


def test_table_operator_checks_every_subset_above_ten_elements():
    # the identity, except that {"9"} goes to the empty set: monotone
    # and idempotent, and not ascending at that one subset only
    A = fx.antichain(11)
    table = {}
    for m in range(A.full_mask + 1):
        labels = A.labels_of(m)
        table[labels] = () if labels == ("9",) else labels
    with pytest.raises(InputError, match="not ascending"):
        table_operator(A, table, cap=11)


def test_image_escaping_the_universe_is_rejected():
    A = fx.antichain(2)
    with pytest.raises(InputError, match="image escapes the universe"):
        PowersetOperator(A, "escape", lambda m: m | 1 << A.n)


def test_apply_mask_rejects_masks_outside_the_universe():
    op = clsys_operator(fx.c3())
    assert op.apply_mask(op.universe.full_mask) == op.universe.full_mask
    for mask in (-1, op.universe.full_mask + 1):
        with pytest.raises(InputError):
            op.apply_mask(mask)


def test_clsys_operator_matches_clsys():
    rng = random.Random(61)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 7))
        op = clsys_operator(P)
        for m in range(P.full_mask + 1):
            assert op.apply_mask(m) == clsys(Subset(P, m)).mask


def test_fixture_operators_are_convex_geometries():
    for P in (fx.point(), fx.c2(), fx.c3(), fx.b2(), fx.v4(), fx.diamond(), fx.topfree()):
        for op in (clsys_operator(P), dcclsys_operator(P)):
            rep = convexity_checks(op)
            assert rep["is_convex_geometry"], (P.elements, rep)
            assert rep["anti_exchange_witness"] is None


def test_random_poset_operators_are_convex_geometries():
    rng = random.Random(62)
    for _ in range(60):
        P = random_poset(rng, rng.randrange(1, 8))
        rep = convexity_checks(clsys_operator(P))
        assert rep["is_convex_geometry"]


def test_planted_operator_rejected_with_witness():
    A, bad = planted_non_convex()
    rep = convexity_checks(bad)
    assert not rep["anti_exchange"]
    assert not rep["closed_set_form"]
    assert not rep["is_convex_geometry"]
    base, x, y = rep["anti_exchange_witness"]
    assert x != y and set((x, y)) <= {"0", "1"}
    cbase, cx, cy = rep["closed_set_witness"]
    assert cx != cy


def test_poset_order_is_funnel_for_clsys():
    rng = random.Random(63)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 8))
        rep = funnel_check(clsys_operator(P), P)
        # the three formulations are breach-compared inside; assert all
        assert rep["is_funnel"]
        assert rep["witness_definition"]
        assert rep["upper_set_form"]
        assert rep["principal_form"]
        assert rep["antisymmetric"]
        assert rep["witness"] is None


def test_funnel_fails_for_planted_operator():
    A, bad = planted_non_convex()
    rep = funnel_check(bad, A)
    assert not rep["is_funnel"]
    assert rep["witness"] is not None


def test_funnel_witness_walks_the_part_of_x_above_y():
    # 1 enters the closure of {0, 2} but not that of {2}, the part of
    # {0, 2} above 1 in the chain: condition (1) walks the subsets of
    # {2} before it names the witness
    P = fx.c3()
    everything = ("0", "1", "2")
    op = table_operator(
        P,
        {
            (): (),
            ("0",): ("0",),
            ("1",): ("0", "1"),
            ("0", "1"): ("0", "1"),
            ("2",): ("2",),
            ("0", "2"): everything,
            ("1", "2"): everything,
            everything: everything,
        },
    )
    rep = funnel_check(op, P)
    assert not rep["is_funnel"]
    assert not rep["upper_set_form"]
    assert not rep["principal_form"]
    assert rep["witness"] == (("0", "2"), "1")


def test_acyclicity_modes():
    P = fx.c3()
    rep = acyclicity(clsys_operator(P), mode="poset_order")
    assert rep["acyclic"]
    rep = acyclicity(clsys_operator(P), mode="search")
    assert rep["acyclic"]
    # anti-exchange fails, so no partial order can be a funnel
    A, bad = planted_non_convex()
    rep = acyclicity(bad, mode="search")
    assert not rep["acyclic"]


def test_acyclicity_search_matches_the_relation_search_on_fixtures():
    A, bad = planted_non_convex()
    ops = [bad] + [
        make(P)
        for P in (fx.point(), fx.c2(), fx.c3(), fx.b2(), fx.v4(), fx.diamond())
        for make in (clsys_operator, dcclsys_operator)
    ]
    for op in ops:
        rep = acyclicity(op, mode="search")
        assert rep["acyclic"] == (reference_relation_search(op) is not None)
        if rep["acyclic"]:
            rows = order_rows(op.universe, rep["order"])
            # a linear order: every pair of elements is comparable
            assert all(
                rows[i] >> j & 1 or rows[j] >> i & 1
                for i in range(len(rows))
                for j in range(len(rows))
            )
            assert funnel_check(op, rows)["is_funnel"]


def test_acyclicity_search_cap():
    P = fx.chain(6)
    with pytest.raises(CapExceeded):
        acyclicity(clsys_operator(P), mode="search")
    assert acyclicity(clsys_operator(P), mode="search", cap=6)["acyclic"]


def test_rule_closure_operator_agrees_with_clsys():
    rng = random.Random(64)
    for _ in range(20):
        P = random_poset(rng, rng.randrange(1, 7))
        op1 = rule_closure_operator(default_rules(P))
        op2 = clsys_operator(P)
        for m in range(P.full_mask + 1):
            assert op1.apply_mask(m) == op2.apply_mask(m)


def test_rule_closure_operator_matches_worklist_closure():
    # arbitrary rule sets, not only those whose closed sets are the
    # closure systems
    rng = random.Random(65)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 7))
        R = RuleSet(
            P,
            tuple(
                ClosureRule(P, rng.randrange(P.full_mask + 1), rng.randrange(P.n))
                for _ in range(rng.randrange(10))
            ),
        )
        op = rule_closure_operator(R)
        for m in range(P.full_mask + 1):
            assert op.apply_mask(m) == rule_closure_mask(R, m)


def test_rule_closure_operator_at_fourteen_elements():
    P = fx.chain(14)
    op = rule_closure_operator(default_rules(P, cap=14), cap=14)
    assert op.table == clsys_operator(P, cap=14).table


BAD_OPERATORS = {
    "not ascending": (lambda m: 0, "t: not ascending at {0}"),
    "not idempotent": ((1, 3, 7, 7, 7, 7, 7, 7).__getitem__, "t: not idempotent at {}"),
    "not monotone": (
        (3, 1, 7, 3, 7, 7, 7, 7).__getitem__, "t: not monotone when adding '0' to {}"
    ),
}


@pytest.mark.parametrize("name", list(BAD_OPERATORS))
def test_powerset_operator_rejects_broken_laws(name):
    fn, message = BAD_OPERATORS[name]
    with pytest.raises(InputError) as info:
        PowersetOperator(fx.c3(), "t", fn)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        ((1, 3), "one row mask per element is required"),
        ((1, 3, 12), "row mask outside the universe"),
        ((1, 0, 4), "not reflexive at '1'"),
        ((0b011, 0b110, 0b100), "not transitive at '0' <= '1'"),
    ],
    ids=["length", "outside", "reflexive", "transitive"],
)
def test_funnel_candidate_must_be_a_preorder(rows, message):
    with pytest.raises(NotAPreorder) as info:
        funnel_check(clsys_operator(fx.c3()), rows)
    assert str(info.value) == message


def test_convexity_cap_guard():
    P = fx.chain(11)
    with pytest.raises(CapExceeded):
        convexity_checks(clsys_operator(P, cap=11))
    # lifting the cap makes it run
    assert convexity_checks(clsys_operator(P, cap=11), cap=11)["is_convex_geometry"]


# ---------------------------------------------------------------------------
# the column and table sweeps against the literal scans


def test_bit_columns_read_the_table():
    rng = random.Random(66)
    for n in (0, 1, 7, 8, 9, 16, 17):
        table = [rng.randrange(1 << n) for _ in range(1 << min(n, 10))]
        cols = convexity._bit_columns(table, n)
        assert len(cols) == n
        for j, col in enumerate(cols):
            assert col == sum(1 << m for m, c in enumerate(table) if c >> j & 1)


def relabelled(rows, perm):
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in bits(row))
    return tuple(out)


def one_order_per_shape(k):
    """One partial order on k points from each isomorphism class."""
    shapes = {}
    for rows in partial_orders(k):
        key = min(relabelled(rows, perm) for perm in permutations(range(k)))
        shapes.setdefault(key, rows)
    return list(shapes.values())


@pytest.mark.parametrize("k", range(5))
def test_sweeps_match_the_literal_scans_on_every_moore_family(k):
    # up to 3 points under every partial order; on 4 points, where every
    # order would make 543,120 pairs, under one order of each shape: a
    # relabelling of the points carries each pair onto one of these
    orders = partial_orders(k) if k < 4 else one_order_per_shape(k)
    assert len(orders) == (1, 1, 3, 19, 16)[k]
    P = fx.antichain(k)
    for table in census.moore_families(k):
        assert_sweeps_match_the_literal_scans(
            PowersetOperator(P, "moore", table.__getitem__), orders
        )


@st.composite
def closure_tables(draw, max_points=7):
    """A closure table on up to max_points points: the least member
    above each mask of a family of drawn sets closed under meets."""
    n = draw(st.integers(0, max_points))
    full = (1 << n) - 1
    family = {full}
    for g in draw(st.lists(st.integers(0, full), max_size=2 * n + 2)):
        family |= {g & f for f in family}
    return fx.antichain(n), least_closed_table(full, family)


@st.composite
def preorders(draw, n):
    """Up rows of a preorder on n points: a drawn relation, made
    reflexive and transitive, or a drawn linear order."""
    if draw(st.booleans()):
        rows = [1 << i | r for i, r in enumerate(
            draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        )]
        for k in range(n):
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rows[k]
        return tuple(rows)
    line = draw(st.permutations(range(n)))
    rows, above = [0] * n, 0
    for i in reversed(line):
        above |= 1 << i
        rows[i] = above
    return tuple(rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_sweeps_match_the_literal_scans_on_drawn_operators(data):
    P, table = data.draw(closure_tables())
    op = PowersetOperator(P, "drawn", table.__getitem__)
    orders = data.draw(st.lists(preorders(P.n), min_size=1, max_size=3))
    assert_sweeps_match_the_literal_scans(op, orders)
    for rows in orders:
        rep = funnel_check(op, rows, cap=P.n)
        cl = op.table
        wit = literal_witness_failure(P, cl, rows)
        assert rep["is_funnel"] == (wit is None)
        assert rep["witness"] == (
            wit
            or literal_upper_set_failure(P, cl, rows)
            or literal_principal_failure(P, cl, rows)
        )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_column_routes_match_the_literal_scans_on_any_ascending_table(data):
    # the column routes assume no law but ascent, so they name the
    # literal scans' witnesses on tables that are not monotone or not
    # idempotent too; a route that leant on monotonicity, such as
    # condition (1) without its walk over the subsets Z, fails here
    n = data.draw(st.integers(0, 6))
    full = (1 << n) - 1
    P = fx.antichain(n)
    extra = data.draw(st.integers(0, full))
    table = [m | (data.draw(st.integers(0, full)) & extra) for m in range(full + 1)]
    cols = convexity._bit_columns(table, n)
    pulled, literal_pulled = [0] * n, [0] * n
    want = literal_anti_exchange_failure(P, table, literal_pulled)
    assert convexity._anti_exchange_failure(P, cols, pulled) == want
    if want is None:
        assert pulled == literal_pulled
    rows = data.draw(preorders(n))
    assert convexity._witness_failure(P, cols, rows) == literal_witness_failure(
        P, table, rows
    )
    assert convexity._upper_set_failure(
        P, cols, rows
    ) == literal_upper_set_failure(P, table, rows)


def law_verdicts(P, table):
    """The constructor's verdict on a table, and the literal scan's."""
    try:
        PowersetOperator(P, "t", table.__getitem__)
        got = None
    except InputError as e:
        got = str(e)
    fault = literal_law_fault(P, table)
    return got, fault and f"t: {fault}"


def test_law_check_names_the_literal_fault_for_every_one_entry_change():
    # each image of each Moore family on up to 3 points, replaced by
    # each other subset: every law breaks somewhere, often several
    seen = set()
    for k in range(4):
        P = fx.antichain(k)
        for table in census.moore_families(k):
            for m in range(P.full_mask + 1):
                for c in range(P.full_mask + 1):
                    if c != table[m]:
                        changed = list(table)
                        changed[m] = c
                        got, want = law_verdicts(P, changed)
                        assert got == want, changed
                        seen.add(want and want.split(" ")[2])
    assert seen == {None, "ascending", "idempotent", "monotone"}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_law_check_names_the_literal_fault_on_drawn_tables(data):
    P, table = data.draw(closure_tables(max_points=6))
    table = list(table)
    for _ in range(data.draw(st.integers(0, 3))):
        m = data.draw(st.integers(0, P.full_mask))
        table[m] = data.draw(st.integers(0, P.full_mask))
    got, want = law_verdicts(P, table)
    assert got == want


def test_acyclicity_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'x'"):
        acyclicity(clsys_operator(fx.c3()), mode="x")


def test_powerset_operator_applies_to_a_subset():
    # a closure system of the chain holds its top
    P = fx.c3()
    assert clsys_operator(P).apply(Subset.of(P, ["0"])) == Subset.of(P, ["0", "2"])
