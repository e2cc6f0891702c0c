"""Anti-exchange, funnels, and acyclicity of powerset closure operators."""

import functools
import random

import pytest

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
from latkit import fixtures as fx
from latkit.order import Subset
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
