"""Refined values are their base values: a nucleus is a closure
operator, which is an endomap, and a closure system or a filter is a
subset.  Each constructor checks its own laws after its base class's,
and a value that breaks a law is rejected with a fixed error.  A
constructor does not check again the laws its argument has passed as
a value of a refined type, and the inherited from_labels, of and
from_indices build the refined type."""

import copy
import pickle

import pytest

from latkit import closure
from latkit import fixtures as fx
from latkit.closure import ClosureOperator, ClosureSystem, clsys, duality
from latkit.errors import (
    CapExceeded,
    InputError,
    InvalidValue,
    MixedPosets,
    NotAClosureSystem,
    NotAFrame,
    NotANucleus,
    NotMeetSemilattice,
    NotPreclosure,
)
from latkit.heyting import (
    FrameView,
    Nucleus,
    enumerate_nuclei,
    nucleus_join,
    validate_structure,
)
from latkit.convexity import PowersetOperator, clsys_operator, table_operator
from latkit.hmj import FilterSet, enumerate_filters, is_fitted
from latkit.maps import EndoMap, ValueRows, value_rows
from latkit.order import (
    FinitePoset,
    Subset,
    build_poset,
    meet_table,
    same_poset,
    trusted,
)
from latkit.rules import ClosureRule, RuleSet


def test_results_carry_the_type_chain():
    P = fx.b2()
    nucs = enumerate_nuclei(P)
    assert len(nucs) == 4
    for nu in nucs:
        assert isinstance(nu, Nucleus)
        assert isinstance(nu, ClosureOperator)
        assert isinstance(nu, EndoMap)
        assert type(nu.op) is ClosureOperator and nu.op.table == nu.table
        assert type(nu.map) is EndoMap and nu.map.table == nu.table
        assert type(nu.op.map) is EndoMap
    C = clsys(Subset.of(P, ["a"]))
    assert isinstance(C, ClosureSystem) and isinstance(C, Subset)
    assert type(C.subset) is Subset and C.subset.mask == C.mask
    gamma = duality(C)
    assert type(gamma) is ClosureOperator and type(gamma.map) is EndoMap
    assert gamma.fix_mask == C.mask
    filters = enumerate_filters(P)
    assert [F.labels for F in filters] == [
        ("1",), ("a", "1"), ("b", "1"), ("0", "a", "b", "1")
    ]
    for F in filters:
        assert isinstance(F, FilterSet) and isinstance(F, Subset)
        assert type(F.subset) is Subset and F.subset.mask == F.mask


def test_duality_takes_a_closure_system_as_it_is(monkeypatch):
    P = fx.b2()
    C = clsys(Subset.of(P, ["a"]))
    checks = []
    real = ClosureSystem.__post_init__

    def counting(self):
        checks.append(self)
        real(self)

    monkeypatch.setattr(ClosureSystem, "__post_init__", counting)
    assert duality(C).fix_mask == C.mask
    assert checks == []
    assert duality(Subset.of(P, ["a", "1"])).fix_mask == C.mask
    assert len(checks) == 1


def _labels(P, mapping):
    return EndoMap.from_labels(P, mapping)


# (law, build, exception class, message); each build breaks one law
BROKEN = [
    (
        "table covers the poset",
        lambda: EndoMap(fx.b2(), (0, 1, 2)),
        InvalidValue,
        "map table must cover every element",
    ),
    (
        "table values in range",
        lambda: EndoMap(fx.b2(), (0, 1, 2, 4)),
        InvalidValue,
        "map table value 4 out of range",
    ),
    (
        "table values are indices",
        lambda: EndoMap(fx.c3(), (0.0, 1, 2)),
        InvalidValue,
        "map table value 0.0 is not an element index",
    ),
    (
        "closure operator: ascending",
        lambda: ClosureOperator(
            _labels(fx.b2(), {"0": "0", "a": "0", "b": "b", "1": "1"})
        ),
        NotPreclosure,
        "EndoMap(0->0, a->0, b->b, 1->1) is not a preclosure map "
        "(ascending and increasing)",
    ),
    (
        "closure operator: increasing",
        lambda: ClosureOperator(
            _labels(fx.b2(), {"0": "a", "a": "1", "b": "b", "1": "1"})
        ),
        NotPreclosure,
        "EndoMap(0->a, a->1, b->b, 1->1) is not a preclosure map "
        "(ascending and increasing)",
    ),
    (
        "closure operator: idempotent",
        lambda: ClosureOperator(_labels(fx.c3(), {"0": "1", "1": "2", "2": "2"})),
        InputError,
        "EndoMap(0->1, 1->2, 2->2) is not idempotent",
    ),
    (
        "nucleus: pairwise meets",
        lambda: Nucleus(ClosureOperator(_labels(
            fx.v4(), {"a": "a", "b": "b", "c": "c", "d": "d"}
        ))),
        NotMeetSemilattice,
        "nuclei need pairwise meets",
    ),
    (
        "nucleus: preserves binary meets",
        lambda: Nucleus(ClosureOperator(_labels(
            fx.b2(), {"0": "0", "a": "1", "b": "1", "1": "1"}
        ))),
        NotANucleus,
        "EndoMap(0->0, a->1, b->1, 1->1) does not preserve binary meets",
    ),
    (
        "closure system: least member above each element",
        lambda: ClosureSystem(Subset.of(fx.b2(), ["a", "b"])),
        NotAClosureSystem,
        "{a, b} is not a closure system",
    ),
    (
        "filter: upper set closed under meets",
        lambda: FilterSet(Subset.of(fx.b2(), ["a"])),
        InputError,
        "{a} is not a filter",
    ),
    (
        "filter: on a frame",
        lambda: FilterSet(Subset.of(fx.diamond(), ["1"])),
        NotAFrame,
        "not a frame: meet with 'a' does not distribute over the join of "
        "{b, c}",
    ),
    (
        "filter: within the cap",
        lambda: FilterSet(Subset.of(fx.b2(), ["1"]), 3),
        CapExceeded,
        "structure validation: size 4 exceeds cap 3; raise the cap to force "
        "the computation",
    ),
]


@pytest.mark.parametrize(
    "build, error, message",
    [case[1:] for case in BROKEN],
    ids=[case[0] for case in BROKEN],
)
def test_each_broken_law_raises_its_error(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "table",
    [
        {"0": "0", "a": "0", "b": "b", "1": "1"},  # not ascending
        {"0": "0", "a": "1", "b": "1", "1": "1"},  # does not keep a meet b
    ],
)
def test_nucleus_of_a_plain_map_checks_every_law(table):
    f = _labels(fx.b2(), table)
    errors = []
    for build in (lambda: Nucleus(f), lambda: Nucleus(ClosureOperator(f))):
        with pytest.raises(InputError) as info:
            build()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_refined_constructor_skips_the_laws_its_argument_passed(monkeypatch):
    P = fx.b2()
    f = _labels(P, {"0": "b", "a": "1", "b": "b", "1": "1"})
    gamma = ClosureOperator(f)
    calls = []
    real = closure.is_preclosure

    def counting(g):
        calls.append(g.table)
        return real(g)

    monkeypatch.setattr(closure, "is_preclosure", counting)
    assert Nucleus(gamma).table == f.table
    assert calls == []
    assert Nucleus(f).table == f.table
    assert calls == [f.table]
    endo_checks = []
    real_check = EndoMap.__post_init__

    def counting_check(self):
        endo_checks.append(self)
        real_check(self)

    monkeypatch.setattr(EndoMap, "__post_init__", counting_check)
    Nucleus(EndoMap(P, f.table))
    assert len(endo_checks) == 1
    # the nuclei of a pair are joined without re-checking their laws
    nucs = enumerate_nuclei(P)
    calls.clear()
    joined = nucleus_join(nucs[1:3], P)
    assert joined.table == nucs[3].table
    assert calls == []  # the generated join is checked in batch


def test_endomap_from_labels_refines():
    P = fx.b2()
    table = {"0": "b", "a": "1", "b": "b", "1": "1"}
    gamma = ClosureOperator.from_labels(P, table)
    assert type(gamma) is ClosureOperator and gamma.as_labels() == table
    nu = Nucleus.from_labels(P, table)
    assert type(nu) is Nucleus and nu.table == gamma.table
    assert type(EndoMap.from_labels(P, table)) is EndoMap
    with pytest.raises(NotPreclosure):
        ClosureOperator.from_labels(P, {"0": "0", "a": "0", "b": "b", "1": "1"})
    with pytest.raises(NotANucleus):
        Nucleus.from_labels(P, {"0": "0", "a": "1", "b": "1", "1": "1"})


@pytest.mark.parametrize("cls", [ClosureSystem, FilterSet])
def test_subset_constructors_refine(cls):
    P = fx.b2()
    for X in (cls.of(P, ["a", "1"]), cls.from_indices(P, [1, 3])):
        assert type(X) is cls and X.labels == ("a", "1")
    assert type(Subset.of(P, ["a"])) is Subset
    assert type(Subset.from_indices(P, [1])) is Subset
    with pytest.raises(InputError):
        cls.of(P, ["a"])


# ---------------------------------------------------------------------------
# value equality: values built from lists, operator tables, rule listings


def test_list_fields_are_stored_as_tuples():
    P = fx.b2()
    for nu in enumerate_nuclei(P):
        listed = Nucleus(EndoMap(P, list(nu.table)))
        assert listed == nu and hash(listed) == hash(nu)
        assert type(listed.table) is tuple
        assert is_fitted(P, listed) == is_fitted(P, nu) is True
    Q = FinitePoset(["a", "b"], [3, 2])
    assert Q == build_poset(["a", "b"], [("a", "b")])
    assert same_poset(Q, build_poset(["a", "b"], [("a", "b")])) is Q
    assert hash(Q) == hash(build_poset(["a", "b"], [("a", "b")]))
    with pytest.raises(MixedPosets):
        same_poset(Q, FinitePoset(["a", "b"], [1, 2]))


def test_powerset_operators_compare_their_tables():
    P = fx.c2()
    subsets = [[], ["0"], ["1"], ["0", "1"]]
    identity = table_operator(P, {tuple(X): X for X in subsets})
    universe = table_operator(P, {tuple(X): ["0", "1"] for X in subsets})
    assert identity != universe
    assert len({identity, universe}) == 2
    again = table_operator(P, {tuple(X): X for X in subsets})
    assert again == identity and hash(again) == hash(identity)


def test_rule_sets_compare_as_sets():
    P = fx.c3()
    r1 = ClosureRule.of(P, ["0"], "1")
    r2 = ClosureRule.of(P, [], "2")
    assert RuleSet(P, [r1, r2]) == RuleSet(P, [r2, r1])
    assert hash(RuleSet(P, [r1, r2])) == hash(RuleSet(P, [r2, r1]))
    assert RuleSet(P, [r1, r2]).rules == (r1, r2)
    assert RuleSet(P, [r2, r1]).rules == (r2, r1)
    assert len(RuleSet(P, [r1, r1])) == 1
    assert RuleSet(P, [r2, r1, r2]).rules == (r2, r1)
    indexed = RuleSet._indexed(P, {0: 0b100, 0b001: 0b010})
    # a set built from the index alone lists body 0 first, then body {0}
    assert indexed == RuleSet(P, [r1, r2]) and indexed.rules == (r2, r1)
    assert RuleSet(P, [r1]) != RuleSet(P, [r2])


# ---------------------------------------------------------------------------
# value semantics: one immutable base under every value class


def test_value_semantics():
    # class -> two values of it with unequal constructor fields, over
    # the two-element chain P (a frame) and the antichain Q
    P = build_poset(["a", "b"], [("a", "b")])
    Q = build_poset(["a", "b"], [])
    ident, top = EndoMap(P, (0, 1)), EndoMap(P, (1, 1))
    pairs = {
        FinitePoset: (P, Q),
        Subset: (Subset(P, 1), Subset(P, 2)),
        EndoMap: (ident, top),
        ValueRows: (value_rows(P, [(0, 1)]), value_rows(P, [(0, 1), (1, 1)])),
        ClosureOperator: (ClosureOperator(ident), ClosureOperator(top)),
        ClosureSystem: (ClosureSystem(Subset(P, 3)), ClosureSystem(Subset(P, 2))),
        FrameView: (validate_structure(P), validate_structure(Q)),
        Nucleus: (Nucleus(ident), Nucleus(top)),
        FilterSet: (FilterSet(Subset(P, 2)), FilterSet(Subset(P, 3))),
        PowersetOperator: (clsys_operator(P), PowersetOperator(P, "top", (3,) * 4)),
        ClosureRule: (ClosureRule(P, 1, 1), ClosureRule(P, 1, 0)),
        RuleSet: (RuleSet(P, [ClosureRule(P, 1, 1)]), RuleSet(P, [])),
    }
    for cls, (a, b) in pairs.items():
        assert type(a) is cls and type(b) is cls
        assert a != b and not a == b
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
            assert twin is not a and type(twin) is cls
            assert twin == a and hash(twin) == hash(a)
        for name in (*vars(a), "extra"):
            with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
                setattr(a, name, None)
            if name in vars(a):
                with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable"):
                    delattr(a, name)
        assert "extra" not in vars(a)
    # a refined value never equals its base value with the same fields
    assert ClosureOperator(ident) != ident and Nucleus(ident) != ClosureOperator(ident)
    S = pairs[Subset][1]
    assert ClosureSystem(S) != S and FilterSet(S) != S
    # the fields a check sets are neither compared nor hashed
    meet_table(P)
    fresh = FinitePoset(P.elements, P.le)
    assert fresh._derived != P._derived and fresh == P and hash(fresh) == hash(P)
    C = pairs[ClosureSystem][1]
    odd = trusted(ClosureSystem, C, _table=(1, 0))
    assert odd == C and hash(odd) == hash(C)
    # the generated reprs, which name every field but a table
    assert repr(pairs[FrameView][0]) == (
        "FrameView(poset=FinitePoset(['a', 'b']), level='frame', witness=None)"
    )
    assert repr(pairs[ValueRows][1]) == (
        "ValueRows(tables=((0, 1), (1, 1)), at_most=((1, 3), (0, 3)), "
        "at_least=((3, 2), (3, 3)), every=3)"
    )
    assert repr(pairs[PowersetOperator][0]) == (
        "PowersetOperator(universe=FinitePoset(['a', 'b']), kind='clsys')"
    )
