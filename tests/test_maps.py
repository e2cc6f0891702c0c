"""Endomaps: classification, composition, pointwise structure, fixpoints."""

import random

import pytest

from corpus import random_poset, random_preclosure
from latkit import (
    EndoMap,
    InputError,
    MixedPosets,
    ParseError,
    Subset,
    UnknownLabel,
    cl_meet,
    classify,
    closed_under,
    compose,
    constant_map,
    directed_closed,
    fix,
    generate_closure,
    identity_map,
    inaccessible_by_directed_joins,
    inversely_closed_under,
    is_preclosure,
    is_scott_continuous,
    kleene_generate,
    nucleus_join,
    pointwise_join,
    pointwise_leq,
    pointwise_meet,
)
from latkit import fixtures as fx
from latkit.maps import (
    closure_table_fault,
    is_ascending,
    is_idempotent,
    is_increasing,
    preserves_binary_meets,
)
from latkit.order import meet_table


def test_from_labels_requires_totality():
    P = fx.c3()
    with pytest.raises(ParseError, match="table not total"):
        EndoMap.from_labels(P, {"0": "1"})


def test_from_labels_rejects_stray_keys():
    P = fx.c3()
    with pytest.raises(UnknownLabel):
        EndoMap.from_labels(P, {"0": "0", "1": "1", "2": "2", "q": "0"})


def test_identity_classification():
    P = fx.b2()
    rep = classify(identity_map(P))
    assert rep["ascending"] and rep["increasing"] and rep["idempotent"]
    assert rep["closure_operator"] and rep["interior_operator"]
    assert rep["scott_continuous"]
    assert rep["preserves_binary_meets"]


def test_constant_to_top_is_closure():
    P = fx.b2()
    f = constant_map(P, "1")
    rep = classify(f)
    assert rep["closure_operator"]
    assert not rep["interior_operator"]


def test_step_map_is_preclosure_not_closure():
    P = fx.c3()
    f = EndoMap.from_labels(P, {"0": "1", "1": "2", "2": "2"})
    assert is_preclosure(f)
    assert not is_idempotent(f)


def test_nonmonotone_map_detected():
    P = fx.c3()
    f = EndoMap.from_labels(P, {"0": "2", "1": "1", "2": "2"})
    assert is_ascending(f)
    assert not is_increasing(f)


def test_compose_order():
    P = fx.c3()
    f = EndoMap.from_labels(P, {"0": "1", "1": "1", "2": "2"})
    g = EndoMap.from_labels(P, {"0": "0", "1": "2", "2": "2"})
    # compose(g, f) applies f first
    assert compose(g, f).apply_label("0") == "2"


def test_pointwise_join_and_meet_on_b2():
    P = fx.b2()
    ca = constant_map(P, "a")
    cb = constant_map(P, "b")
    j = pointwise_join([ca, cb])
    m = pointwise_meet([ca, cb])
    assert j.as_labels() == {"0": "1", "a": "1", "b": "1", "1": "1"}
    assert m.as_labels() == {"0": "0", "a": "0", "b": "0", "1": "0"}


def test_pointwise_join_can_fail_without_joins():
    P = fx.v4()
    ca = constant_map(P, "a")
    cb = constant_map(P, "b")
    assert pointwise_join([ca, cb]) is None


def test_empty_pointwise_join_is_none():
    # the empty family has no pointwise join in general
    assert pointwise_join([], poset=fx.b2()) is None


def test_pointwise_join_and_meet_check_the_given_poset():
    # the explicit poset must be the family's, as for fix
    f = identity_map(fx.c3())
    for op in (pointwise_join, pointwise_meet):
        with pytest.raises(MixedPosets):
            op([f], fx.b2())
        assert op([f], f.poset).table == f.table
    with pytest.raises(MixedPosets):
        fix([f], fx.b2())


@pytest.mark.parametrize(
    "build", [generate_closure, kleene_generate, cl_meet, nucleus_join, fix]
)
def test_an_empty_family_without_its_poset_is_bad_input(build):
    # with no member and no explicit poset there is no poset to work in:
    # bad input, raised as a latkit error
    with pytest.raises(InputError, match="^an empty family needs an explicit poset$"):
        build([])


def test_pointwise_leq():
    P = fx.b2()
    assert pointwise_leq(identity_map(P), constant_map(P, "1"))
    assert not pointwise_leq(constant_map(P, "1"), identity_map(P))


def test_fix_and_closures_under_maps():
    P = fx.c3()
    f = EndoMap.from_labels(P, {"0": "1", "1": "1", "2": "2"})
    assert fix([f], P).labels == ("1", "2")
    assert closed_under(Subset.of(P, ["1", "2"]), [f])
    assert not closed_under(Subset.of(P, ["0"]), [f])
    assert inversely_closed_under(Subset.of(P, ["0", "1"]), [f])


def test_directed_closure_predicates():
    P = fx.b2()
    X = Subset.of(P, ["0", "a", "b"])  # joins of directed subsets stay inside
    assert directed_closed(X)
    # a finite directed set contains its own join (the maximum), so
    # every subset of a finite poset is inaccessible by directed joins
    for m in range(P.full_mask + 1):
        assert inaccessible_by_directed_joins(Subset(P, m))


def test_scott_shortcut_matches_definition():
    # the finite collapse: a directed subset holds its maximum, so Scott
    # continuity is being increasing
    rng = random.Random(11)
    for _ in range(60):
        P = random_poset(rng, rng.randrange(1, 7))
        table = tuple(rng.randrange(P.n) for _ in range(P.n))
        f = EndoMap(P, table)
        assert is_scott_continuous(f) == is_increasing(f)


def test_preclosure_corpus_is_preclosure():
    rng = random.Random(12)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 7))
        f = random_preclosure(rng, P)
        assert is_preclosure(f)


def test_preserves_binary_meets_is_none_without_meets():
    P = fx.v4()
    assert preserves_binary_meets(identity_map(P)) is None


def test_closure_table_fault_names_the_first_bad_leaf():
    P = fx.b2()  # 0 < a, b < 1, indexed 0, 1, 2, 3
    mt = meet_table(P)
    identity = (P.full_mask, (0, 1, 2, 3))
    top = (0b1000, (3, 3, 3, 3))
    assert closure_table_fault(P, [identity, top], mt) is None
    for bad in [
        (P.full_mask, (0, 1, 2)),  # short
        (P.full_mask, (0, 1, 2, 4)),  # a value outside P
        (P.full_mask, (0, 1, 2, -1)),  # a negative value
        (0b11000, (3, 3, 3, 3)),  # a fixpoint outside P
        (0b0100, (3, 3, 3, 3)),  # another fixpoint set
        (0b1110, (3, 1, 2, 3)),  # not monotone: 0 <= a, 0 -> 1
        (0b1101, (0, 0, 2, 3)),  # not ascending: a -> 0
        (0b1100, (1, 3, 2, 3)),  # not idempotent: 0 -> a -> 1
    ]:
        assert closure_table_fault(P, [identity, bad]) == 1, bad
    # the closure operator fixing {0, 1} sends a and b to 1 but their
    # meet 0 to 0
    not_nucleus = (0b1001, (0, 3, 3, 3))
    assert closure_table_fault(P, [not_nucleus]) is None
    assert closure_table_fault(P, [identity, not_nucleus], mt) == 1
