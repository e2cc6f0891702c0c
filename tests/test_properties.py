"""Property tests over generated inputs.

Every finite meet-semilattice is isomorphic to a family of sets closed
under intersection (send x to its principal down-set), so the
generator draws a few sets, closes them under intersection and orders
the family by inclusion, listing its members in a drawn order.  Plain
posets are drawn as a set of edges along a drawn linear order, so no
edge closes a cycle; rule sets are drawn as (body mask, head) pairs.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latkit.closure import clsys  # noqa: E402
from latkit.convexity import rule_closure_operator  # noqa: E402
from latkit.order import Subset, build_poset  # noqa: E402
from latkit.rules import (  # noqa: E402
    ClosureRule,
    RuleSet,
    default_rules,
    rul,
    rule_closure_mask,
)
from test_enumerations import (  # noqa: E402
    nucleus_tables,
    reference_default_rules,
    reference_nuclei,
)
from test_rules import naive_closure_mask  # noqa: E402


def _close_under_meets(family):
    family = set(family)
    while True:
        grown = family | {a & b for a in family for b in family}
        if grown == family:
            return family
        family = grown


@st.composite
def meet_semilattices(draw, max_n=8):
    gens = draw(st.lists(st.integers(0, 31), min_size=1, max_size=6))
    family = set()
    for g in gens:
        grown = _close_under_meets(family | {g})
        if len(grown) > max_n:
            break
        family = grown
    masks = draw(st.permutations(sorted(family)))
    labels = [f"s{m}" for m in masks]
    pairs = [
        (labels[i], labels[j])
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if i != j and a & ~b == 0
    ]
    return build_poset(labels, pairs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(meet_semilattices())
def test_nuclei_descent_matches_closure_system_filter(P):
    assert nucleus_tables(P) == reference_nuclei(P)


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    labels = [f"e{i}" for i in range(n)]
    line = draw(st.permutations(range(n)))
    edges = [(line[i], line[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    pairs = [(labels[a], labels[b]) for (a, b), k in zip(edges, keep) if k]
    return build_poset(labels, pairs)


@st.composite
def rule_sets(draw):
    P = draw(posets())
    items = draw(
        st.lists(
            st.tuples(st.integers(0, P.full_mask), st.integers(0, P.n - 1)),
            max_size=12,
        )
    )
    return RuleSet(P, [ClosureRule(P, b, h) for b, h in items])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rule_sets())
def test_rule_closure_matches_repeated_passes(R):
    for m in range(R.poset.full_mask + 1):
        assert rule_closure_mask(R, m) == naive_closure_mask(R, m)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rule_sets())
def test_rules_of_the_closure_operator_close_alike(R):
    R2 = rul(rule_closure_operator(R))
    for m in range(R.poset.full_mask + 1):
        assert rule_closure_mask(R2, m) == rule_closure_mask(R, m)
    assert R2 == RuleSet(R.poset, R2.rules)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(posets())
def test_default_rules_close_to_clsys(P):
    R = default_rules(P)
    for m in range(P.full_mask + 1):
        assert rule_closure_mask(R, m) == clsys(Subset(P, m)).mask


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets())
def test_default_rules_list_matches_per_body_scan(P):
    R = default_rules(P)
    assert [(r.body_mask, r.head) for r in R.rules] == reference_default_rules(P)
    again = RuleSet(P, R.rules)
    assert R == again and hash(R) == hash(again)
