"""Planted bugs in the enumerated lists that route pairs read, and in
the routes themselves.

Each test first runs the route pair clean, then makes one list or
route wrong and expects the cross-check to raise TheoremBreach in the
library and, where a command runs the pair, the CLI to exit 3.  Derived
data is kept on the poset that it was built for, so a planted builder
is run on a poset built after planting.
"""

import json

import pytest

from latkit import fixtures as fx
from latkit import closure, commands, convexity, heyting, hmj, maps, order, rules
from latkit.cli import main
from latkit.closure import ClosureOperator, clsys
from latkit.errors import (
    InputError,
    NotAClosureSystem,
    NotANucleus,
    NotPreclosure,
    TheoremBreach,
)
from latkit.heyting import (
    Nucleus,
    is_nuclear_system,
    least_nucleus_above,
    nuclear_core,
)
from latkit.hmj import hmj_correspondence, is_nuclear_filter
from latkit.maps import EndoMap, constant_map, identity_map, is_scott_continuous
from latkit.order import Subset


@pytest.fixture
def b2_files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return {
        "poset": write(
            "b2.json",
            {
                "elements": ["0", "a", "b", "1"],
                "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
            },
        ),
        "gam": write(
            "gam.json", {"table": {"0": "0", "a": "1", "b": "1", "1": "1"}}
        ),
        "id": write(
            "id.json", {"table": {"0": "0", "a": "a", "b": "b", "1": "1"}}
        ),
    }


def _without(masks, drop):
    return tuple(m for m in masks if m != drop)


class _PlantedLookups(bytearray):
    # a subset table whose lookup at a mask answers answer(mask) unless
    # that is None; whole-table reads (translate, find, slices), which
    # the frame check makes, still see the real entries

    def __init__(self, table, answer):
        super().__init__(table)
        self.answer = answer

    def __getitem__(self, key):
        if isinstance(key, int):
            got = self.answer(key)
            if got is not None:
                return got
        return super().__getitem__(key)


def _plant_subset_lookups(monkeypatch, join=None, meet=None):
    # the frame's subset tables as heyting reads them, each lookup of
    # the join (meet) table at a mask answered by join(Q, mask)
    # (meet(Q, mask)) where that is not None
    real = heyting.subset_tables

    def planted(Q):
        tables = real(Q)
        if join is not None:
            tables = tables._replace(
                join=_PlantedLookups(tables.join, lambda m: join(Q, m))
            )
        if meet is not None:
            tables = tables._replace(
                meet=_PlantedLookups(tables.meet, lambda m: meet(Q, m))
            )
        return tables

    monkeypatch.setattr(heyting, "subset_tables", planted)


def _plant_carried_tables(monkeypatch, module, edit):
    # the closure-table descent as module reads it (closure's closure
    # systems, heyting's nuclei), its list of (fixpoint mask, table)
    # pairs passed through edit
    real = module.closure_tables
    monkeypatch.setattr(
        module, "closure_tables", lambda Q, *meets: edit(real(Q, *meets))
    )


def _plant_closure_masks(monkeypatch, edit):
    # the masks-only closure-system descent as closure reads it, its
    # list of masks passed through edit
    real = closure.closure_masks
    monkeypatch.setattr(closure, "closure_masks", lambda Q: edit(real(Q)))


def _plant_closure_tables(monkeypatch, edit):
    # the carrying closure-system descent as closure reads it
    _plant_carried_tables(monkeypatch, closure, edit)


def _plant_dropped_system(monkeypatch, drop):
    # a closure-system descent that leaves out the system drop, in both
    # forms closure reads: the masks alone, and the carried tables
    _plant_closure_masks(monkeypatch, lambda masks: [m for m in masks if m != drop])
    _plant_closure_tables(monkeypatch, lambda pairs: [s for s in pairs if s[0] != drop])


def test_dropped_closure_system_breaks_clsys(monkeypatch):
    P = fx.c3()
    X = Subset.of(P, ["1", "2"])
    assert clsys(X, method="both").mask == X.mask
    _plant_dropped_system(monkeypatch, X.mask)
    P = fx.c3()
    X = Subset.of(P, ["1", "2"])
    with pytest.raises(TheoremBreach):
        clsys(X, method="both")


def test_dropped_constant_top_breaks_sccore_scan(
    monkeypatch, b2_files, tmp_path, capsys
):
    # the constant-top operator is Scott continuous, so it is its own
    # Scott core; without its table the others below it, among them
    # the operators fixing {a, 1} and {b, 1}, have no greatest member
    P = fx.b2()
    gamma = ClosureOperator(constant_map(P, "1"))
    assert closure.sccore_bruteforce(gamma) == gamma
    top = tmp_path / "top.json"
    top.write_text(json.dumps({"table": {x: "1" for x in P.elements}}))
    argv = ["sccore", b2_files["poset"], str(top)]
    assert main(argv) == 0
    _plant_dropped_system(monkeypatch, P.mask_of(["1"]))
    P = fx.b2()
    with pytest.raises(TheoremBreach, match="no greatest member"):
        closure.sccore_bruteforce(ClosureOperator(constant_map(P, "1")))
    assert main(argv) == 3
    capsys.readouterr()


def test_dropped_top_only_system_breaks_dcclsys(monkeypatch):
    # the least directed-closed closure system containing the empty set
    # is {1}; without it the others intersect to {1} all the same, which
    # is no longer among them
    P = fx.b2()
    assert closure.dcclsys(Subset(P, 0)).labels == ("1",)
    _plant_dropped_system(monkeypatch, P.mask_of(["1"]))
    P = fx.b2()
    with pytest.raises(TheoremBreach, match="no least directed-closed"):
        closure.dcclsys(Subset(P, 0))


def test_planted_non_system_is_a_breach_in_dcclsys_and_clsys(monkeypatch):
    # {0} on c3 misses the top, so it is no closure system; planted into
    # the descent, it is the least system containing {0} for both
    # routes, and the ClosureSystem each builds rejects it as a breach
    P = fx.c3()
    X = Subset.of(P, ["0"])
    assert closure.dcclsys(X).labels == ("0", "2")
    assert clsys(X).labels == ("0", "2")
    bottom = P.mask_of(["0"])
    _plant_closure_masks(monkeypatch, lambda masks: [*masks, bottom])
    for route in (closure.dcclsys, clsys):
        P = fx.c3()
        with pytest.raises(TheoremBreach, match="built a result") as info:
            route(Subset.of(P, ["0"]))
        assert isinstance(info.value.__cause__, NotAClosureSystem)


def test_swapped_carried_tables_break_closure_enumeration(monkeypatch):
    # each table is a closure operator, but carried with the other's
    # fixpoint set
    P = fx.c3()
    assert len(closure.enumerate_cl_lattice(P)["closure_operators"]) == 4

    def swapped(pairs):
        (m0, t0), (m1, t1), *rest = pairs
        return [(m0, t1), (m1, t0), *rest]

    _plant_closure_tables(monkeypatch, swapped)
    with pytest.raises(TheoremBreach, match="fixes another set"):
        closure.enumerate_cl_lattice(fx.c3())


def _plant_default_heads(monkeypatch, edit):
    # the default-rule heads that the principal-body closure reads, each
    # body's entry passed through edit as a one-entry body-to-heads index
    real = rules._default_heads
    monkeypatch.setattr(
        rules,
        "_default_heads",
        lambda Q, body: edit({body: real(Q, body)}).get(body, 0),
    )


def _empty_set_breach():
    # the least closure system containing the empty set of c3 is {2}:
    # the empty body concludes the top
    P = fx.c3()
    with pytest.raises(TheoremBreach) as info:
        clsys(Subset(P, 0), method="both")
    assert list(info.value.routes) == ["system_intersection", "default_rules"]
    return info.value.routes


def _assert_clean_empty_set():
    P = fx.c3()
    assert clsys(Subset(P, 0), method="both").labels == ("2",)


def test_dropped_body_breaks_default_rules(monkeypatch):
    _assert_clean_empty_set()
    _plant_default_heads(
        monkeypatch, lambda heads: {b: h for b, h in heads.items() if b}
    )
    routes = _empty_set_breach()
    assert routes["default_rules"].labels == ()


def test_wrong_head_breaks_default_rules(monkeypatch):
    _assert_clean_empty_set()
    _plant_default_heads(monkeypatch, lambda heads: {**heads, 0: 0b010})
    routes = _empty_set_breach()
    assert routes["default_rules"].labels == ("1",)


def test_identity_rule_closure_breaks_clsys(monkeypatch):
    _assert_clean_empty_set()
    monkeypatch.setattr(rules, "default_closure_mask", lambda Q, mask: mask)
    routes = _empty_set_breach()
    assert routes["system_intersection"].labels == ("2",)


def test_wrong_double_implication_breaks_nuc_map(monkeypatch):
    # a meet that always answers the top turns the double-implication
    # formula into the constant-top nucleus, a valid nucleus whose
    # fixpoints miss a
    P = fx.b2()
    X = Subset.of(P, ["a"])
    assert heyting.nuc_map(P, X).fix.labels == ("a", "1")
    _plant_subset_lookups(monkeypatch, meet=lambda Q, mask: order.top_index(Q))
    P = fx.b2()
    X = Subset.of(P, ["a"])
    with pytest.raises(TheoremBreach) as info:
        heyting.nuc_map(P, X)
    routes = info.value.routes
    assert list(routes) == ["double_implication", "nucsys"]
    assert routes["double_implication"].labels == ("1",)
    assert routes["nucsys"].labels == ("a", "1")


def _plant_moved_directed_top(monkeypatch):
    # on b2, the column of {0, a} is moved from top a to top 1
    real = order._directed_columns
    P = fx.b2()
    d, a, top = P.mask_of(["0", "a"]), P.index("a"), P.index("1")

    def planted(Q):
        members, tops = real(Q)
        col = tops[a]
        for i, m in enumerate(members):
            col &= m if d >> i & 1 else ~m
        tops = list(tops)
        tops[a] ^= col
        tops[top] |= col
        return members, tuple(tops)

    monkeypatch.setattr(order, "_directed_columns", planted)


def test_wrong_directed_top_breaks_scott_continuity(
    monkeypatch, b2_files, capsys
):
    P = fx.b2()
    f = identity_map(P)
    assert is_scott_continuous(f)
    argv = ["sccore", b2_files["poset"], b2_files["gam"]]
    assert main(argv) == 0
    assert main(["hmj", b2_files["poset"]]) == 0
    _plant_moved_directed_top(monkeypatch)
    P = fx.b2()
    f = identity_map(P)
    with pytest.raises(TheoremBreach):
        is_scott_continuous(f)
    assert main(argv) == 3
    assert main(["hmj", b2_files["poset"]]) == 3
    capsys.readouterr()


# Every quantifier over directed subsets, each asked a question whose
# answer on b2 reads the moved column, and the column primitive it
# calls, which must raise where the columns and the finite collapse
# part.
TOPS, SCOTT = "tops of directed subsets", "Scott continuity"
DIRECTED_QUANTIFIERS = {
    "directed_closed": (
        lambda P: maps.directed_closed(Subset.of(P, ["0", "a"])), TOPS
    ),
    "inaccessible": (
        lambda P: maps.inaccessible_by_directed_joins(Subset.of(P, ["1"])), TOPS
    ),
    "dj": (lambda P: closure.dj(Subset.of(P, ["0", "a"])), TOPS),
    "compact_quotient": (
        lambda P: hmj.is_compact_quotient(
            P, Nucleus(ClosureOperator(identity_map(P)))
        ),
        TOPS,
    ),
    "way_below": (order.way_below_relation, TOPS),
    "scott_continuity": (lambda P: is_scott_continuous(identity_map(P)), SCOTT),
    "structure": (heyting._validate_structure, SCOTT),  # the builder, uncached
}


@pytest.mark.parametrize("name", list(DIRECTED_QUANTIFIERS))
def test_wrong_directed_top_breaks_each_directed_quantifier(monkeypatch, name):
    ask, primitive = DIRECTED_QUANTIFIERS[name]
    ask(fx.b2())
    P = fx.b2()
    # kept on P, so the frame gate in front of a quantifier reads the
    # real columns and the quantifier itself reads the planted ones
    assert heyting.validate_structure(P).level == "frame"
    _plant_moved_directed_top(monkeypatch)
    with pytest.raises(TheoremBreach, match=f"^routes disagree on {primitive} "):
        ask(P)


def _plant_dropped_nucleus(monkeypatch, fix_mask):
    # a nuclei descent that leaves out the nucleus with this fixpoint set
    _plant_carried_tables(
        monkeypatch, heyting, lambda pairs: [s for s in pairs if s[0] != fix_mask]
    )


def test_dropped_closure_system_breaks_nuclear_core(
    monkeypatch, b2_files, capsys
):
    # the identity is its own nuclear core; drop its fixpoint set, the
    # whole frame, from the enumerated nuclei
    P = fx.b2()
    gamma = ClosureOperator(identity_map(P))
    assert nuclear_core(P, gamma).table == gamma.table
    argv = ["nuclear-core", b2_files["poset"], b2_files["id"]]
    assert main(argv) == 0
    _plant_dropped_nucleus(monkeypatch, P.full_mask)
    P = fx.b2()
    gamma = ClosureOperator(identity_map(P))
    with pytest.raises(TheoremBreach):
        nuclear_core(P, gamma)
    assert main(argv) == 3
    capsys.readouterr()


def test_wrong_nuc_map_breaks_regular_nucleus(monkeypatch):
    # the regular nucleus at a fixes L => a = {a, 1}; a nuc_map that
    # answers the identity nucleus fixes every element
    P = fx.b2()
    assert heyting.regular_nucleus(P, "a").fix.labels == ("a", "1")
    monkeypatch.setattr(
        heyting, "nuc_map", lambda L, X, cap=None: Nucleus(identity_map(L))
    )
    with pytest.raises(TheoremBreach, match="regular nucleus fixpoints") as info:
        heyting.regular_nucleus(P, "a")
    routes = info.value.routes
    assert list(routes) == ["nuc_map", "implication_image"]
    assert routes["nuc_map"].labels == ("0", "a", "b", "1")
    assert routes["implication_image"].labels == ("a", "1")


def test_wrong_double_implication_breaks_least_nucleus_fixpoints(
    monkeypatch, b2_files, capsys
):
    # gam fixes {0, 1}, and the least nucleus above it is the constant
    # top; a double implication that answers the identity nucleus gives
    # the formula every element as a fixpoint, which neither description
    # of the fixpoints allows
    P = fx.b2()
    gamma = ClosureOperator(EndoMap(P, (0, 3, 3, 3)))
    assert least_nucleus_above(P, gamma).fix.labels == ("1",)
    argv = ["least-nucleus", b2_files["poset"], b2_files["gam"]]
    assert main(argv) == 0
    monkeypatch.setattr(
        heyting,
        "_double_implication",
        lambda Q, xs, route: Nucleus(identity_map(Q)),
    )
    with pytest.raises(
        TheoremBreach, match="fixpoints of the least nucleus above"
    ) as info:
        least_nucleus_above(P, gamma)
    routes = info.value.routes
    assert list(routes) == [
        "formula",
        "implication_in_fixpoints",
        "implication_in_poset",
    ]
    assert routes["formula"].labels == ("0", "a", "b", "1")
    assert routes["implication_in_fixpoints"].labels == ("1",)
    assert main(argv) == 3
    capsys.readouterr()


def test_dropped_identity_nucleus_breaks_least_nucleus(
    monkeypatch, b2_files, capsys
):
    # the identity is the least nucleus above itself; without it the
    # nuclei above the identity have no least member
    P = fx.b2()
    gamma = ClosureOperator(identity_map(P))
    assert least_nucleus_above(P, gamma).table == gamma.table
    argv = ["least-nucleus", b2_files["poset"], b2_files["id"]]
    assert main(argv) == 0
    _plant_dropped_nucleus(monkeypatch, P.full_mask)
    P = fx.b2()
    gamma = ClosureOperator(identity_map(P))
    with pytest.raises(TheoremBreach):
        least_nucleus_above(P, gamma)
    assert main(argv) == 3
    capsys.readouterr()


def test_dropped_nucleus_breaks_nuclear_system_check(monkeypatch):
    # {a, 1} is the fixpoint set of a nucleus on B2; once that nucleus
    # is dropped, enumeration and the implication test disagree on it
    P = fx.b2()
    X = Subset.of(P, ["a", "1"])
    assert is_nuclear_system(P, X)
    _plant_dropped_nucleus(monkeypatch, X.mask)
    P = fx.b2()
    X = Subset.of(P, ["a", "1"])
    with pytest.raises(TheoremBreach):
        is_nuclear_system(P, X)


def test_dropped_empty_closed_set_breaks_anti_exchange(monkeypatch):
    # on two points whose singletons both close to the pair, anti-exchange
    # fails at the empty set; without the empty set among the closed
    # sets, the closed-set form has nowhere to find its witness
    A = fx.antichain(2)
    bad = convexity.table_operator(
        A,
        {(): (), ("0",): ("0", "1"), ("1",): ("0", "1"), ("0", "1"): ("0", "1")},
    )
    rep = convexity.convexity_checks(bad)
    assert not rep["anti_exchange"] and not rep["closed_set_form"]
    real = convexity.PowersetOperator.closed_masks
    monkeypatch.setattr(
        convexity.PowersetOperator,
        "closed_masks",
        lambda op: _without(real(op), 0),
    )
    # the sweep runs once per operator: a fresh one sweeps again
    with pytest.raises(TheoremBreach):
        convexity.convexity_checks(
            convexity.PowersetOperator(bad.universe, bad.kind, bad.table)
        )


def test_wrong_least_member_breaks_nuclei_descent(monkeypatch, b2_files, capsys):
    # a least_of, where order.closure_tables reads it, that answers the
    # bottom for every nonempty mask sends left-out elements below
    # themselves, so the descent's leaves fail their own Nucleus
    # validation: a breach, not bad input
    assert len(heyting.enumerate_nuclei(fx.b2())) == 4
    argv = ["nuclei", b2_files["poset"]]
    assert main(argv) == 0
    real = order.least_of
    monkeypatch.setattr(
        order, "least_of", lambda Q, mask: real(Q, Q.full_mask) if mask else None
    )
    with pytest.raises(TheoremBreach) as info:
        heyting.enumerate_nuclei(fx.b2())
    assert "nuclei descent" in str(info.value)
    assert isinstance(info.value.__cause__, InputError)
    assert main(argv) == 3
    capsys.readouterr()


def test_wrong_pair_meet_reaches_the_nuclei_prune_leave_out(
    monkeypatch, b2_files, capsys
):
    # the descent's meet table reads 1 meet b as a: on the branch that
    # keeps b and sends a to 1, the pair (a, b) at 0 meets at a, so the
    # prune leaves 0 out to a, which that branch does not keep, and the
    # leaf fails the batch check of the nuclei
    argv = ["nuclei", b2_files["poset"]]
    assert main(argv) == 0
    real = heyting.closure_tables

    def planted(Q, meets):
        meets = [list(row) for row in meets]
        one, b = Q.index("1"), Q.index("b")
        meets[one][b] = meets[b][one] = Q.index("a")
        return real(Q, meets)

    monkeypatch.setattr(heyting, "closure_tables", planted)
    with pytest.raises(TheoremBreach) as info:
        heyting.enumerate_nuclei(fx.b2())
    assert "nuclei descent" in str(info.value)
    assert main(argv) == 3
    capsys.readouterr()


def test_wrong_iteration_route_breaks_generate(monkeypatch, tmp_path, capsys):
    poset = tmp_path / "c3.json"
    poset.write_text(
        json.dumps({"elements": ["0", "1", "2"], "le": [["0", "1"], ["1", "2"]]})
    )
    step = tmp_path / "step.json"
    step.write_text(json.dumps({"table": {"0": "1", "1": "2", "2": "2"}}))
    argv = ["generate", str(poset), str(step)]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        commands, "kleene_generate", lambda G, Q: ClosureOperator(identity_map(Q))
    )
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "fixpoint_intersection=" in err and "iteration=" in err


def test_dropped_nucleus_breaks_nuclear_filter_check(monkeypatch):
    # {a, 1} is the kernel of the nucleus whose fixpoints are {b, 1};
    # once that nucleus is dropped the kernel scan misses {a, 1}, while
    # the Galois closure still finds it
    P = fx.b2()
    assert is_nuclear_filter(P, Subset.of(P, ["a", "1"]))
    _plant_dropped_nucleus(monkeypatch, P.mask_of(["b", "1"]))
    P = fx.b2()
    with pytest.raises(TheoremBreach) as info:
        is_nuclear_filter(P, Subset.of(P, ["a", "1"]))
    assert info.value.routes == {"kernel_scan": False, "galois_closure": True}


def test_non_filter_kernel_breaks_the_kernel_scan(monkeypatch):
    # a map the kernel table takes for a nucleus, sending a and b to the
    # top but not their meet 0: its kernel {a, b, 1} is no filter, and
    # the table, which checks each distinct kernel once as oneker would,
    # rejects it
    P = fx.b2()
    X = Subset.of(P, ["a", "1"])
    assert is_nuclear_filter(P, X)
    real = hmj._nuclei

    def with_bad_kernel(Q):
        bad = order.trusted(Nucleus, poset=Q, table=(0, 3, 3, 3))
        return real(Q) + (bad,)

    monkeypatch.setattr(hmj, "_nuclei", with_bad_kernel)
    with pytest.raises(TheoremBreach, match="^oneker built") as info:
        is_nuclear_filter(fx.b2(), X)
    assert isinstance(info.value.__cause__, InputError)
    assert "{a, b, 1} is not a filter" in str(info.value)


def test_unpruned_leaf_breaks_nuclei_descent(monkeypatch, b2_files, capsys):
    # a descent that skips its meet prune on one branch of b2 passes on
    # a closure table that is no nucleus; the batched check rejects it,
    # and the Nucleus constructor names the meet law it breaks
    argv = ["nuclei", b2_files["poset"]]
    assert main(argv) == 0
    real = heyting.closure_tables

    def one_unpruned(Q, meets):
        pruned = real(Q, meets)
        every = real(Q)
        return pruned + [next(s for s in every if s not in pruned)]

    monkeypatch.setattr(heyting, "closure_tables", one_unpruned)
    with pytest.raises(TheoremBreach, match="^nuclei descent built") as info:
        heyting.enumerate_nuclei(fx.b2())
    assert isinstance(info.value.__cause__, NotANucleus)
    assert main(argv) == 3
    assert "does not preserve binary meets" in capsys.readouterr().err


@pytest.mark.parametrize(
    "plant, build, command",
    [
        (_plant_closure_tables, closure.enumerate_cl_lattice, "closure-systems"),
        (
            lambda mp, edit: _plant_carried_tables(mp, heyting, edit),
            heyting.enumerate_nuclei,
            "nuclei",
        ),
    ],
    ids=["closure-systems", "nuclei"],
)
def test_swapped_tables_break_the_batched_check(
    monkeypatch, b2_files, capsys, plant, build, command
):
    # two leaves of the descent on b2 carried with each other's tables:
    # each table passes its constructor, but fixes the other mask
    argv = [command, b2_files["poset"]]
    assert main(argv) == 0

    def swapped(pairs):
        (m0, t0), (m1, t1), *rest = pairs
        return [(m0, t1), (m1, t0), *rest]

    plant(monkeypatch, swapped)
    with pytest.raises(TheoremBreach, match="fixes another set"):
        build(fx.b2())
    assert main(argv) == 3
    assert "fixes another set" in capsys.readouterr().err


def _full(X):
    return Subset(X.poset, X.poset.full_mask)


def _nucsys_case():
    P = fx.b2()
    return heyting.nucsys(P, Subset.of(P, ["a"]))


def _nuc_map_case():
    P = fx.b2()
    return heyting.nuc_map(P, Subset.of(P, ["a"]))


def _tarski_case():
    P = fx.c3()
    return closure.tarski(EndoMap(P, (1, 2, 2)))


def _cl_meet_case():
    P = fx.c3()
    top = closure.duality(Subset.of(P, ["2"]))
    return closure.cl_meet([top, ClosureOperator(identity_map(P))])


def _fix_of_meet_case():
    P = fx.b2()
    nucs = heyting.enumerate_nuclei(P)
    return heyting.fix_of_meet_check(nucs[-1], nucs[0])


# route pair -> (module, name, planted replacement, expected routes)
ROUTE_PAIRS = {
    "nucsys": (
        heyting,
        "meet_closure",
        lambda Q, mask: Q.full_mask,
        _nucsys_case,
        ["intersection", "implication_formula"],
    ),
    "nuc_map": (
        heyting,
        "nucsys",
        lambda L, X, cap=None: _full(X),
        _nuc_map_case,
        ["double_implication", "nucsys"],
    ),
    "tarski": (
        closure,
        "generate_closure",
        lambda G, Q=None: ClosureOperator(identity_map(Q)),
        _tarski_case,
        ["restriction", "scan"],
    ),
    "cl_meet": (
        closure,
        "pointwise_meet",
        lambda maps, poset=None: maps[0],
        _cl_meet_case,
        ["pointwise", "operator_lattice"],
    ),
    "fix_of_meet": (
        heyting,
        "nucleus_meet",
        lambda a, b: a,
        _fix_of_meet_case,
        ["meet", "meets_of_fixpoints"],
    ),
}


@pytest.mark.parametrize("pair", list(ROUTE_PAIRS))
def test_planted_route_names_its_routes(monkeypatch, pair):
    module, name, planted, call, routes = ROUTE_PAIRS[pair]
    call()
    monkeypatch.setattr(module, name, planted)
    with pytest.raises(TheoremBreach) as info:
        call()
    assert list(info.value.routes) == routes
    for route in routes:
        assert f"{route}=" in str(info.value)


# principle -> (check, the subset it is tried on, its breach text); on
# c3 with no generators every premise holds for these subsets, and the
# constant-top operator moves each out of its conclusion
PRINCIPLES = {
    "induction": (closure.induction_check, ["0"], "induction principle failed"),
    "obverse": (closure.obverse_induction_check, ["2"], "obverse induction failed"),
    "default": (closure.default_induction_check, ["0"], "default induction failed"),
}


@pytest.mark.parametrize("principle", list(PRINCIPLES))
def test_constant_top_generation_breaks_each_principle(monkeypatch, principle):
    check, members, breach = PRINCIPLES[principle]
    P = fx.c3()
    A = Subset.of(P, members)
    rep = check(A, [], P)
    assert rep["premises_hold"] and list(rep.values())[-1]
    monkeypatch.setattr(
        closure,
        "generate_closure",
        lambda G, poset=None: ClosureOperator(EndoMap(poset, (2, 2, 2))),
    )
    with pytest.raises(TheoremBreach) as info:
        check(A, [], P)
    assert breach in str(info.value)


def test_wrong_scan_route_breaks_sccore(monkeypatch, b2_files, capsys):
    argv = ["sccore", b2_files["poset"], b2_files["gam"]]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        commands,
        "sccore_bruteforce",
        lambda gamma, cap=None: ClosureOperator(identity_map(gamma.poset)),
    )
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "way_below_formula=" in err and "candidate_scan=" in err


def test_swapped_open_nucleus_row_breaks_hmj(monkeypatch, b2_files, capsys):
    # the open nucleus at a replaced by the one at b: the membership
    # lemma in fitting no longer holds for the real open nucleus at a
    argv = ["hmj", b2_files["poset"]]
    assert hmj_correspondence(fx.b2())["count"] == 4
    assert main(argv) == 0
    real = hmj._open_nuclei

    def swapped(Q):
        opens = list(real(Q))
        opens[Q.index("a")] = opens[Q.index("b")]
        return tuple(opens)

    monkeypatch.setattr(hmj, "_open_nuclei", swapped)
    with pytest.raises(TheoremBreach):
        hmj_correspondence(fx.b2())
    assert main(argv) == 3
    capsys.readouterr()


def test_identity_fitnuc_breaks_hmj_also_from_the_kernel_cache(
    monkeypatch, b2_files, capsys
):
    # fitnuc answers the identity for the filter {a, 1}; fitting keeps
    # that answer per kernel, and a later call that reads it from there
    # instead of calling fitnuc must still raise
    argv = ["hmj", b2_files["poset"]]
    assert hmj_correspondence(fx.b2())["count"] == 4
    assert main(argv) == 0
    real = hmj.fitnuc

    def planted(L, S, cap=None):
        if S.labels == ("a", "1"):
            return Nucleus(ClosureOperator(identity_map(S.poset)))
        return real(L, S, cap)

    monkeypatch.setattr(hmj, "fitnuc", planted)
    P = fx.b2()
    with pytest.raises(TheoremBreach):
        hmj_correspondence(P)
    kernel = P.mask_of(["a", "1"])
    cached = order.derived(P, hmj._fitted_by_kernel)[kernel]
    assert cached.table == tuple(range(P.n))
    assert main(argv) == 3
    capsys.readouterr()
    # fitnuc mended: only the kept fitting is wrong now
    monkeypatch.setattr(hmj, "fitnuc", real)
    with pytest.raises(TheoremBreach):
        hmj_correspondence(P)
    assert hmj_correspondence(fx.b2())["count"] == 4


def test_wrong_implication_in_its_candidates_breaks_adjunction(
    monkeypatch, b2_files, capsys
):
    # a => 0 answered by the least x with x meet a <= 0 instead of the
    # greatest: 0 still lies in that candidate set, so only the
    # adjunction check can tell it from b, the right answer
    argv = ["heyting", b2_files["poset"]]
    assert heyting.heyting_implication(fx.b2(), "a", "0") == "b"
    assert main(argv) == 0
    def planted(Q, mask):
        if mask == Q.mask_of(["0", "b"]):
            return order.least_of(Q, mask)
        return None

    _plant_subset_lookups(monkeypatch, join=planted)
    with pytest.raises(TheoremBreach) as info:
        heyting.implication_table(fx.b2())
    assert str(info.value) == "implication adjunction failed at x='b' a='a' b='0'"
    assert main(argv) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "answer, failure",
    [(None, "x='0' a='a' b='0'"), (3, "x='a' a='a' b='0'")],
    ids=["missing", "escaped"],
)
def test_bad_join_of_the_solutions_breaks_adjunction(monkeypatch, answer, failure):
    # the join of the solutions of x meet a <= 0, {0, b}, answered as
    # missing (the table's Q.n) or as the top, which is not a solution:
    # the adjunction check is the one check of that join
    def planted(Q, mask):
        if mask != Q.mask_of(["0", "b"]):
            return None
        return Q.n if answer is None else answer

    _plant_subset_lookups(monkeypatch, join=planted)
    with pytest.raises(TheoremBreach) as info:
        heyting.implication_table(fx.b2())
    assert str(info.value) == f"implication adjunction failed at {failure}"


def test_wrong_join_index_breaks_frame_of_nuclei(monkeypatch):
    # the nuclei fixing {a, 1} and {b, 1} swap indices in the lookup
    # the fixpoint-intersection joins read, so the join of the identity
    # and the first of them lands on the second
    assert heyting.frame_of_nuclei_check(fx.b2())["nucleus_count"] == 4
    real = heyting._nuclei_by_fix

    def swapped(Q):
        index = dict(real(Q))
        a, b = Q.mask_of(["a", "1"]), Q.mask_of(["b", "1"])
        index[a], index[b] = index[b], index[a]
        return index

    monkeypatch.setattr(heyting, "_nuclei_by_fix", swapped)
    with pytest.raises(TheoremBreach) as info:
        heyting.frame_of_nuclei_check(fx.b2())
    assert "fixpoint intersection is not their least upper bound" in str(
        info.value
    )


def test_lost_order_pair_breaks_the_meets_of_nuclei(monkeypatch):
    # the down row of the top nucleus loses the identity, the bottom:
    # the pointwise meet of the two is the identity, whose down row is
    # then no longer the intersection of theirs
    real = heyting.FinitePoset

    def planted(labels, le):
        N = real(labels, le)
        down = list(N.down)
        down[-1] &= ~1
        object.__setattr__(N, "down", tuple(down))
        return N

    monkeypatch.setattr(heyting, "FinitePoset", planted)
    with pytest.raises(TheoremBreach) as info:
        heyting.frame_of_nuclei_check(fx.b2())
    assert str(info.value) == "meet of two nuclei is not pointwise"


def test_one_wrong_distributivity_route_breaks_frame_of_nuclei(monkeypatch):
    # the second call is the dual test on the pointwise meets
    real = heyting.distributivity_failure
    calls = []

    def planted(rows, table):
        calls.append(rows)
        return (0, 0) if len(calls) == 2 else real(rows, table)

    monkeypatch.setattr(heyting, "distributivity_failure", planted)
    with pytest.raises(TheoremBreach) as info:
        heyting.frame_of_nuclei_check(fx.b2())
    assert info.value.routes == {"join_prime": True, "meet_prime": False}
    assert "join_prime=True" in str(info.value)
    # both routes wrong: they agree, and the frame law fails
    monkeypatch.setattr(heyting, "distributivity_failure", lambda r, t: (0, 0))
    with pytest.raises(TheoremBreach) as info:
        heyting.frame_of_nuclei_check(fx.b2())
    assert info.value.routes == {}
    assert "fails to distribute" in str(info.value)


def test_identity_open_nuclei_break_the_membership_lemma(
    monkeypatch, b2_files, capsys
):
    # every open nucleus built as the identity and carried with the
    # whole frame, its fixpoints: each passes the batch check, but the
    # identity lies below every nucleus, so the opens below one are no
    # longer those its kernel holds
    argv = ["hmj", b2_files["poset"]]
    assert hmj.open_nucleus(fx.b2(), "a").fix.labels == ("b", "1")
    assert main(argv) == 0
    real = hmj.trusted_operators
    monkeypatch.setattr(
        hmj,
        "trusted_operators",
        lambda cls, Q, rows, route: real(
            cls, Q, [(Q.full_mask, tuple(range(Q.n))) for _ in rows], route
        ),
    )
    assert hmj.open_nucleus(fx.b2(), "a").fix.labels == ("0", "a", "b", "1")
    with pytest.raises(TheoremBreach) as info:
        hmj_correspondence(fx.b2())
    assert info.value.routes == {"opens_below": 15, "kernel": 8}
    assert main(argv) == 3
    assert "membership lemma" in capsys.readouterr().err


def test_open_nucleus_carried_with_another_image_breaks_the_batch_check(
    monkeypatch, b2_files, capsys
):
    # the row of a, a nucleus fixing {b, 1}, carried with the whole
    # frame instead of its image: the batch check that builds the open
    # nuclei is the one check of their fixpoints
    argv = ["hmj", b2_files["poset"]]
    assert main(argv) == 0
    real = hmj.trusted_operators

    def planted(cls, Q, leaves, route):
        leaves = list(leaves)
        a = Q.index("a")
        leaves[a] = (Q.full_mask, leaves[a][1])
        return real(cls, Q, leaves, route)

    monkeypatch.setattr(hmj, "trusted_operators", planted)
    with pytest.raises(TheoremBreach) as info:
        hmj.open_nucleus(fx.b2(), "b")
    assert str(info.value).startswith(
        "open nuclei: a carried closure table fixes another set"
    )
    assert main(argv) == 3
    assert "open nuclei" in capsys.readouterr().err


def _dropping_rows(real, member, point):
    # value rows that lose the member-th table of the family at (y, y),
    # y = point(Q)
    def planted(Q, tables):
        rows = real(Q, tables)
        y = point(Q)

        def drop(side):
            side = [list(r) for r in side]
            side[y][y] &= ~(1 << member)
            return tuple(map(tuple, side))

        return maps.ValueRows(
            rows.tables, drop(rows.at_most), drop(rows.at_least), rows.every
        )

    return planted


def test_dropped_fixpoint_member_breaks_least_nucleus_and_core(
    monkeypatch, b2_files, tmp_path, capsys
):
    # gamma fixes {0, a, 1}: the least nucleus above it fixes {a, 1},
    # and its nuclear core is the identity.  Once the identity's carried
    # fixpoint mask loses b, after the descent's check, the masks inside
    # fix gamma join to {0, a, 1}, and the masks holding it meet there
    # too, a set no nucleus fixes
    P = fx.b2()
    gamma = ClosureOperator(EndoMap(P, (0, 1, 3, 3)))
    assert least_nucleus_above(P, gamma).fix.labels == ("a", "1")
    assert nuclear_core(P, gamma).table == (0, 1, 2, 3)
    gam = tmp_path / "gam_a.json"
    gam.write_text(json.dumps({"table": {"0": "0", "a": "a", "b": "1", "1": "1"}}))
    argv = ["least-nucleus", b2_files["poset"], str(gam)]
    assert main(argv) == 0
    real = heyting._nuclei_leaves
    b = 1 << P.index("b")

    def planted(Q):
        return [(m & ~b if m == Q.full_mask else m, t) for m, t in real(Q)]

    monkeypatch.setattr(heyting, "_nuclei_leaves", planted)
    for route in (least_nucleus_above, nuclear_core):
        with pytest.raises(TheoremBreach) as info:
            route(P, gamma)
        assert info.value.routes["enumeration"] is None
    # a fresh poset carries the mask into the descent's own check
    assert main(argv) == 3
    assert "nuclei descent" in capsys.readouterr().err


def _smuggled(P, table):
    # a map built as a Nucleus without running its checks
    nu = object.__new__(Nucleus)
    object.__setattr__(nu, "poset", P)
    object.__setattr__(nu, "table", table)
    return nu


def test_quotient_frame_check_catches_each_breach(monkeypatch):
    P = fx.b2()
    nu = heyting.enumerate_nuclei(P)[1]
    assert hmj.quotient_frame_check(P, nu)["is_frame"]
    # a closure operator that is no nucleus: 0 = a meet b is fixed
    # while a and b go to the top
    gamma = _smuggled(P, tuple(P.index(v) for v in ("0", "1", "1", "1")))
    with pytest.raises(TheoremBreach, match="does not preserve binary meets"):
        hmj.quotient_frame_check(P, gamma)
    # fixpoints {a, b, 1} lack the meet of a and b
    lost = _smuggled(P, tuple(P.index(v) for v in ("a", "a", "b", "1")))
    with pytest.raises(TheoremBreach, match="not closed under meets"):
        hmj.quotient_frame_check(P, lost)
    real_tables = hmj.subset_tables

    def swapped(Q):
        # the join of {a} answers b
        tables = real_tables(Q)
        join = bytearray(tables.join)
        join[1 << Q.index("a")] = Q.index("b")
        return tables._replace(join=join)

    monkeypatch.setattr(hmj, "subset_tables", swapped)
    with pytest.raises(TheoremBreach, match="does not preserve joins"):
        hmj.quotient_frame_check(P, nu)
    monkeypatch.setattr(hmj, "subset_tables", real_tables)
    real_view = hmj.validate_structure
    monkeypatch.setattr(
        hmj,
        "validate_structure",
        lambda Q, cap=None: heyting.FrameView(Q, "preframe", "planted"),
    )
    with pytest.raises(TheoremBreach, match="distributivity failed"):
        hmj.quotient_frame_check(P, nu)
    monkeypatch.setattr(hmj, "validate_structure", real_view)
    assert hmj.quotient_frame_check(P, nu)["is_frame"]


def test_image_joins_that_skip_an_element_break_the_frame_checks(monkeypatch):
    # the doubling skips the translate of the last element, the top of
    # b2: a subset holding it reads the join of the rest of its image.
    # So the join of a's meet image of {1} reads 0, not a meet 1 = a,
    # and the join of a nucleus's image of {1} reads its value at 0
    real = order.image_joins

    def skipping(tables, table):
        built = real(tables, table)[: len(tables.join) // 2]
        return built + built

    assert heyting.validate_structure(fx.b2()).level == "frame"
    monkeypatch.setattr(heyting, "image_joins", skipping)
    fv = heyting.validate_structure(fx.b2())
    assert (fv.level, fv.witness) == (
        "preframe",
        "meet with 'a' does not distribute over the join of {1}",
    )
    monkeypatch.setattr(heyting, "image_joins", real)
    P = fx.b2()
    nu = heyting.enumerate_nuclei(P)[1]
    assert hmj.quotient_frame_check(P, nu)["is_frame"]
    monkeypatch.setattr(hmj, "image_joins", skipping)
    with pytest.raises(TheoremBreach, match="does not preserve joins"):
        hmj.quotient_frame_check(P, nu)


def test_dropped_value_row_member_breaks_the_galois_and_order_checks(monkeypatch):
    # the first nucleus (the identity) and the first Scott-open filter's
    # nucleus drop out of the value rows at the top: the nuclei above
    # fitnuc of the empty set, and the pairs above the first one, miss
    # them
    P = fx.b2()
    assert hmj.galois_identities_check(P)["adjunction"]
    assert hmj_correspondence(P)["antiisomorphism_verified"]
    real = heyting.value_rows
    top = order.top_index
    monkeypatch.setattr(heyting, "value_rows", _dropping_rows(real, 0, top))
    with pytest.raises(TheoremBreach) as info:
        hmj.galois_identities_check(fx.b2())
    assert list(info.value.routes) == ["nuclei_above_fitnuc", "kernels_holding"]
    monkeypatch.setattr(heyting, "value_rows", real)
    P = fx.b2()
    monkeypatch.setattr(hmj, "value_rows", _dropping_rows(real, 0, top))
    with pytest.raises(TheoremBreach) as info:
        hmj_correspondence(P)
    routes = info.value.routes
    assert list(routes) == ["filter_inclusion", "nucleus_order", "fixpoint_reversal"]
    assert routes["filter_inclusion"] == routes["fixpoint_reversal"]
    assert routes["nucleus_order"] != routes["filter_inclusion"]


def _breach_of(what, info, routes):
    # the breach names the identity and its routes, in order
    assert str(info.value).startswith(f"routes disagree on {what} of")
    assert list(info.value.routes) == routes


def test_dropped_open_fixpoint_member_breaks_the_membership_lemma(
    monkeypatch, b2_files, capsys
):
    # the open nucleus at 0, the constant top, fixes only the top; once
    # its fixpoint mask as fitting reads it loses the top, it no longer
    # sits below the constant top, though that sends 0 to the top
    P = fx.b2()
    top_nucleus = Nucleus(ClosureOperator(constant_map(P, "1")))
    assert hmj.fitting(P, top_nucleus) == top_nucleus
    argv = ["hmj", b2_files["poset"]]
    assert main(argv) == 0
    real = hmj._open_fixes

    def planted(Q):
        fixes = real(Q)
        return (fixes[0] & ~(1 << order.top_index(Q)),) + fixes[1:]

    monkeypatch.setattr(hmj, "_open_fixes", planted)
    P = fx.b2()
    with pytest.raises(TheoremBreach) as info:
        hmj.fitting(P, Nucleus(ClosureOperator(constant_map(P, "1"))))
    _breach_of("membership lemma", info, ["opens_below", "kernel"])
    assert main(argv) == 3
    assert "membership lemma" in capsys.readouterr().err


def test_swapped_kernel_filters_break_the_fitnuc_round_trip(monkeypatch):
    # the kernel table files the filter {b, 1} under the kernel {a, 1}
    # and back: fitnuc of oneker of fitnuc({a}) comes out as the open
    # nucleus at b
    assert hmj.galois_identities_check(fx.b2())["identities"]
    real = hmj._kernels

    def swapped(Q):
        kernels, filters = real(Q)
        a, b = Q.mask_of(["a", "1"]), Q.mask_of(["b", "1"])
        return kernels, {**filters, a: filters[b], b: filters[a]}

    monkeypatch.setattr(hmj, "_kernels", swapped)
    with pytest.raises(TheoremBreach) as info:
        hmj.galois_identities_check(fx.b2())
    _breach_of("fitnuc round trip", info, ["fitnuc", "fitnuc_oneker_fitnuc"])


def test_constant_oneker_breaks_the_oneker_round_trip(monkeypatch):
    # oneker answers the kernel of the identity, {1}, for every nucleus
    real = hmj.oneker
    monkeypatch.setattr(
        hmj,
        "oneker",
        lambda nu, cap=None: real(Nucleus(ClosureOperator(identity_map(nu.poset)))),
    )
    with pytest.raises(TheoremBreach) as info:
        hmj.galois_identities_check(fx.b2())
    _breach_of("oneker round trip", info, ["oneker", "oneker_fitnuc_oneker"])
    assert info.value.routes["oneker_fitnuc_oneker"] == fx.b2().mask_of(["1"])


def test_unfitted_fitting_breaks_the_galois_round_trip_on_nuclei(monkeypatch):
    # a fitting that answers its own nucleus: on c3 the nucleus fixing
    # {1, 2} sends only 2 to the top, so its fitting is the identity
    assert hmj.galois_identities_check(fx.c3())["identities"]
    monkeypatch.setattr(hmj, "fitting", lambda L, nu, cap=None: nu)
    with pytest.raises(TheoremBreach) as info:
        hmj.galois_identities_check(fx.c3())
    _breach_of(
        "Galois round trip on a nucleus", info, ["fitnuc_oneker", "fitting"]
    )
    assert info.value.routes["fitting"].fix.labels == ("1", "2")


def test_missed_compact_quotient_breaks_the_correspondence(
    monkeypatch, b2_files, capsys
):
    # the quotient of the open nucleus at a, fixing {b, 1}, taken for
    # not compact: the pair ({a, 1}, o_a) is left on the filter side
    P = fx.b2()
    o_a = hmj.open_nucleus(P, "a")
    argv = ["hmj", b2_files["poset"]]
    assert main(argv) == 0
    real = hmj.is_compact_quotient
    monkeypatch.setattr(
        hmj,
        "is_compact_quotient",
        lambda L, nu, cap=None: nu.table != o_a.table and real(L, nu, cap),
    )
    with pytest.raises(TheoremBreach) as info:
        hmj_correspondence(fx.b2())
    routes = ["scott_open_filters", "compact_fitted_nuclei"]
    _breach_of("Scott-open filters and compact fitted nuclei", info, routes)
    sides = info.value.routes
    assert sides["scott_open_filters"] - sides["compact_fitted_nuclei"] == {
        (P.mask_of(["a", "1"]), o_a.table)
    }
    assert sides["compact_fitted_nuclei"] < sides["scott_open_filters"]
    assert main(argv) == 3
    capsys.readouterr()


def test_fitnuc_above_its_nucleus_breaks_fitting(monkeypatch):
    # fitnuc answers the constant top: the membership lemma still holds
    # for the identity, but its fitting would lie above it
    P = fx.b2()
    identity = Nucleus(ClosureOperator(identity_map(P)))
    assert hmj.fitting(P, identity) == identity
    monkeypatch.setattr(
        hmj,
        "fitnuc",
        lambda L, S, cap=None: Nucleus(ClosureOperator(constant_map(L, "1"))),
    )
    P = fx.b2()
    with pytest.raises(TheoremBreach, match="escaped above its nucleus"):
        hmj.fitting(P, Nucleus(ClosureOperator(identity_map(P))))


def test_non_nuclear_verdict_breaks_the_scott_open_filter_check(monkeypatch):
    assert hmj.scott_open_filter_is_nuclear_check(fx.b2())
    monkeypatch.setattr(hmj, "is_nuclear_filter", lambda L, X, cap=None: False)
    with pytest.raises(TheoremBreach, match=r"^Scott-open filter \{1\} is not"):
        hmj.scott_open_filter_is_nuclear_check(fx.b2())


@pytest.mark.parametrize(
    "condition", ["_witness_failure", "_upper_set_failure", "_principal_failure"]
)
def test_each_wrong_funnel_condition_breaks_funnel_check(monkeypatch, condition):
    # one of the three funnel conditions flipped: it finds a witness
    # where there is none, and none where there is one
    good = (fx.c3(), convexity.clsys_operator)
    A = fx.antichain(2)
    bad = (A, lambda Q: convexity.table_operator(
        Q,
        {(): (), ("0",): ("0", "1"), ("1",): ("0", "1"), ("0", "1"): ("0", "1")},
    ))
    for (P, make), funnel in ((good, True), (bad, False)):
        assert convexity.funnel_check(make(P), P)["is_funnel"] is funnel
    real = getattr(convexity, condition)
    monkeypatch.setattr(
        convexity,
        condition,
        lambda Q, cl, rows: (("planted",), "planted")
        if real(Q, cl, rows) is None
        else None,
    )
    for P, make in (good, bad):
        with pytest.raises(TheoremBreach) as info:
            convexity.funnel_check(make(P), P)
        assert list(info.value.routes) == [
            "witness_definition",
            "upper_set_form",
            "principal_form",
        ]


def _flip_column_bit(monkeypatch, j, m):
    # the column builder answers the opposite for mask m in column j
    real = convexity.bit_columns
    monkeypatch.setattr(
        convexity,
        "bit_columns",
        lambda table, n: tuple(
            col ^ 1 << m if i == j else col for i, col in enumerate(real(table, n))
        ),
    )


def test_flipped_column_bit_breaks_the_column_routes(monkeypatch):
    # anti-exchange and funnel conditions (1) and (2) read the bit
    # columns; the closed-set form and condition (3) read the table.
    # Each flip below leaves columns that keep the closure laws, so the
    # constructor lets them through, and a route pair disagrees
    A = fx.antichain(2)
    pair = {(): (), ("0",): ("0", "1"), ("1",): ("0", "1"), ("0", "1"): ("0", "1")}
    C = fx.c2()
    assert not convexity.convexity_checks(convexity.table_operator(A, pair))[
        "anti_exchange"
    ]
    assert convexity.funnel_check(convexity.clsys_operator(C), C)["is_funnel"]
    # column 1 says that {0} closes to {0}: anti-exchange then holds
    _flip_column_bit(monkeypatch, 1, 0b01)
    with pytest.raises(TheoremBreach) as info:
        convexity.convexity_checks(convexity.table_operator(A, pair))
    assert list(info.value.routes) == ["anti_exchange", "closed_set_form"]
    monkeypatch.undo()
    # clsys on the chain 0 < 1 closes the empty set to {1}; column 1
    # says that it closes to the empty set
    _flip_column_bit(monkeypatch, 1, 0b00)
    with pytest.raises(TheoremBreach) as info:
        convexity.funnel_check(convexity.clsys_operator(C), C)
    assert list(info.value.routes) == [
        "witness_definition",
        "upper_set_form",
        "principal_form",
    ]


def test_flipped_column_bit_breaks_the_law_check(monkeypatch):
    # column 0 says that the empty set of the chain 0 < 1 closes to
    # {0, 1}, and {1} still to {1}: not monotone on the columns, while
    # the table keeps every law
    C = fx.c2()
    _flip_column_bit(monkeypatch, 0, 0b00)
    with pytest.raises(TheoremBreach) as info:
        convexity.clsys_operator(C)
    assert info.value.routes == {"bit_columns": False, "table_scan": True}


def _pull_bottom_into_top(op):
    # record, in the operator's cached anti-exchange sweep, that the
    # bottom of c3 pulls its top in, a pair the chain's order does not
    # hold
    P = op.universe
    ae, cas, pulled = op.anti_exchange
    pulled = list(pulled)
    pulled[P.index("2")] |= 1 << P.index("0")
    vars(op)["anti_exchange"] = ae, cas, tuple(pulled)


def test_extra_pull_in_pair_breaks_the_antisymmetric_funnel(
    monkeypatch, tmp_path, capsys
):
    P = fx.c3()
    op = convexity.clsys_operator(P)
    convexity.convexity_checks(op)
    assert convexity.funnel_check(op, P)["is_funnel"]
    _pull_bottom_into_top(op)
    with pytest.raises(TheoremBreach, match="admitted a new point"):
        convexity.funnel_check(op, P)
    poset = tmp_path / "c3.json"
    poset.write_text(
        json.dumps({"elements": ["0", "1", "2"], "le": [["0", "1"], ["1", "2"]]})
    )
    argv = ["convexity", str(poset)]
    assert main(argv) == 0
    real = convexity.convexity_checks

    def planted(op, cap=None):
        rep = real(op, cap)
        _pull_bottom_into_top(op)
        return rep

    monkeypatch.setattr(commands, "convexity_checks", planted)
    assert main(argv) == 3
    assert "admitted a new point" in capsys.readouterr().err


def test_short_closure_table_is_a_breach_not_bad_input(
    monkeypatch, b2_files, capsys
):
    # a carried closure table that misses its last element makes the
    # enumeration build an EndoMap that rejects its table: the library
    # built a malformed value, which is a breach, and the command exits 3
    argv = ["closure-systems", b2_files["poset"]]
    assert main(argv) == 0
    _plant_closure_tables(monkeypatch, lambda pairs: [(m, t[:-1]) for m, t in pairs])
    with pytest.raises(TheoremBreach) as info:
        closure.enumerate_cl_lattice(fx.b2())
    assert isinstance(info.value.__cause__, ValueError)
    assert main(argv) == 3
    assert "map table must cover every element" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# guards behind an upstream function: each fires when that function is
# planted wrong, and is quiet before


def test_meet_check_blind_to_comparable_pairs_breaks_prenucleus(monkeypatch):
    # on a chain every pair is comparable, so a meet-preservation test
    # that skips comparable pairs passes a map that is ascending but not
    # increasing; the prenucleus check re-derives monotonicity and raises
    P = fx.c3()
    f = EndoMap(P, (2, 1, 2))
    assert not heyting.is_prenucleus(f)

    def incomparable_pairs_only(g):
        Q, t = g.poset, g.table
        mt, le = order.meet_table(Q), Q.le
        return all(
            t[mt[i][j]] == mt[t[i]][t[j]]
            for i in range(Q.n)
            for j in range(i + 1, Q.n)
            if not (le[i] >> j & 1 or le[j] >> i & 1)
        )

    monkeypatch.setattr(heyting, "preserves_binary_meets", incomparable_pairs_only)
    with pytest.raises(TheoremBreach, match="is not increasing"):
        heyting.is_prenucleus(f)


def test_meet_without_the_empty_case_breaks_double_implication(monkeypatch):
    # the nucleus of the empty set is the meet of no values at each
    # point, the top; a meet that needs a nonempty set has none, and the
    # breach names the route that asked
    P = fx.b2()
    assert heyting.nuc_map(P, Subset(P, 0)).fix.labels == ("1",)
    _plant_subset_lookups(monkeypatch, meet=lambda Q, mask: None if mask else Q.n)
    with pytest.raises(TheoremBreach) as info:
        heyting.nuc_map(P, Subset(P, 0))
    assert str(info.value) == (
        "double-implication formula: the meet at '0' does not exist"
    )


def test_repeated_nucleus_breaks_the_order_on_nuclei(monkeypatch):
    # a descent that yields one nucleus twice: the two copies lie below
    # each other, so the pointwise order is not antisymmetric
    assert heyting.frame_of_nuclei_check(fx.b2())["nucleus_count"] == 4
    _plant_carried_tables(monkeypatch, heyting, lambda pairs: pairs + pairs[:1])
    with pytest.raises(TheoremBreach, match="^pointwise order on nuclei: "):
        heyting.frame_of_nuclei_check(fx.b2())


def test_empty_descent_breaks_the_lattice_of_nuclei(monkeypatch):
    # a descent that yields no leaves leaves N(L) without a bottom or top
    _plant_carried_tables(monkeypatch, heyting, lambda pairs: [])
    with pytest.raises(TheoremBreach) as info:
        heyting.frame_of_nuclei_check(fx.b2())
    assert str(info.value) == "nuclei do not form a complete lattice"


def test_top_for_the_empty_family_breaks_the_generation_probe(monkeypatch):
    # a generation that closes the empty family to the constant top:
    # the validated nucleus_join of no nuclei is then the top, not the
    # bottom of the join table
    P = fx.b2()
    assert heyting.nucleus_join([], P).table == (0, 1, 2, 3)
    real = heyting.generate_closure

    def planted(G, poset=None):
        if not G:
            return ClosureOperator(constant_map(poset, "1"))
        return real(G, poset)

    monkeypatch.setattr(heyting, "generate_closure", planted)
    with pytest.raises(TheoremBreach, match="join of nuclei of \\(\\)") as info:
        heyting.frame_of_nuclei_check(fx.b2())
    assert info.value.routes == {
        "generation": (3, 3, 3, 3),
        "join_table": (0, 1, 2, 3),
    }


def test_fixpoints_of_the_first_generator_break_generate_closure(monkeypatch):
    # common fixpoints read from the first generator alone: the identity
    # first fixes everything, and the answer is not above the second
    P = fx.b2()
    g = EndoMap(P, (1, 1, 3, 3))
    assert closure.generate_closure([identity_map(P), g]).table == g.table
    real = closure.fix
    monkeypatch.setattr(closure, "fix", lambda G, poset=None: real(G[:1], poset))
    with pytest.raises(TheoremBreach, match="not above a generator"):
        closure.generate_closure([identity_map(P), g])


def test_total_way_below_relation_breaks_the_scott_core_formula(monkeypatch):
    # if every element were way below every other, each way-below set
    # of the two-point antichain would be both points, which have no join
    gamma = ClosureOperator(identity_map(fx.antichain(2)))
    assert closure.sccore(gamma) == gamma
    monkeypatch.setattr(order, "_way_below", lambda Q: (Q.full_mask,) * Q.n)
    gamma = ClosureOperator(identity_map(fx.antichain(2)))
    with pytest.raises(TheoremBreach, match="has no join"):
        closure.sccore(gamma)


def test_unchecked_monotonicity_breaks_the_antisymmetric_funnel(monkeypatch):
    # the empty set closes to {1, 2} but {0} to itself: ascending and
    # idempotent, not monotone.  The chain's order passes all three
    # funnel forms while anti-exchange fails, which the theorem rules
    # out for monotone operators; a constructor that skips monotonicity
    # lets the map through to funnel_check
    P = fx.c3()
    everything = ("0", "1", "2")
    table = {
        (): ("1", "2"),
        ("0",): ("0",),
        ("1",): ("1", "2"),
        ("0", "1"): everything,
        ("2",): ("1", "2"),
        ("0", "2"): everything,
        ("1", "2"): ("1", "2"),
        everything: everything,
    }
    with pytest.raises(InputError, match="not monotone"):
        convexity.table_operator(P, table)

    def without_monotonicity(op):
        cl = tuple(op.table)
        if any(m & ~c or cl[c] != c for m, c in enumerate(cl)):
            raise InputError(f"{op.kind}: not a closure table")
        object.__setattr__(op, "table", cl)

    monkeypatch.setattr(
        convexity.PowersetOperator, "__post_init__", without_monotonicity
    )
    op = convexity.table_operator(P, table)
    with pytest.raises(TheoremBreach, match="fails anti-exchange"):
        convexity.funnel_check(op, P)


# ---------------------------------------------------------------------------
# a route that builds one closure operator or nucleus from a table: when
# an upstream bug hands it a table that breaks a law, the constructor
# names that law in a breach that names the route


def _assert_built_breach(route, cause, build):
    with pytest.raises(TheoremBreach) as info:
        build()
    assert str(info.value).startswith(f"{route} built a result its own class")
    assert type(info.value.__cause__) is cause


def test_non_ascending_generator_breaks_round_robin_iteration(monkeypatch):
    # a generator check that lets 1 -> 0 through on a chain: the
    # iteration then sends 1 to 0, below itself
    P = fx.c3()
    g = EndoMap(P, (0, 0, 2))
    with pytest.raises(NotPreclosure, match="^generator "):
        closure.kleene_generate([g])
    monkeypatch.setattr(
        closure, "_check_generators", lambda G, poset: order.family_poset(G, poset)
    )
    _assert_built_breach(
        "round-robin iteration", NotPreclosure, lambda: closure.kleene_generate([g])
    )


def test_empty_way_below_sets_break_the_scott_core_formula(monkeypatch):
    # with nothing way below anything, every element goes to the empty
    # join, the bottom, which lies below the rest of the chain
    gamma = ClosureOperator(identity_map(fx.c3()))
    assert closure.sccore(gamma) == gamma
    monkeypatch.setattr(closure, "way_down_sets", lambda Q, cap: (0,) * Q.n)
    _assert_built_breach(
        "Scott core formula", NotPreclosure, lambda: closure.sccore(gamma)
    )


def test_edited_carried_table_breaks_the_scott_core_scan(monkeypatch):
    # the identity's carried table sends 1 to 0: still monotone and below
    # the identity, so the scan picks it, and it is not ascending
    P = fx.c2()
    gamma = ClosureOperator(identity_map(P))
    assert closure.sccore_bruteforce(gamma) == gamma
    _plant_closure_tables(
        monkeypatch,
        lambda pairs: [(m, (0, 0) if t == (0, 1) else t) for m, t in pairs],
    )
    P = fx.c2()
    gamma = ClosureOperator(identity_map(P))
    _assert_built_breach(
        "Scott core scan", NotPreclosure, lambda: closure.sccore_bruteforce(gamma)
    )


def test_mask_carried_with_another_table_breaks_the_scott_core_scan(
    monkeypatch, b2_files, tmp_path, capsys
):
    # the constant top is its own Scott core; carry its mask {1} with
    # the table of the operator fixing {a, 1}, a closure operator all
    # the same, and the scan picks the mask {1} with that table
    P = fx.b2()
    gamma = ClosureOperator(constant_map(P, "1"))
    assert closure.sccore_bruteforce(gamma) == gamma
    top = tmp_path / "top.json"
    top.write_text(json.dumps({"table": {x: "1" for x in P.elements}}))
    argv = ["sccore", b2_files["poset"], str(top)]
    assert main(argv) == 0
    one, a1 = P.mask_of(["1"]), P.mask_of(["a", "1"])
    _plant_closure_tables(
        monkeypatch,
        lambda pairs: [(m, dict(pairs)[a1] if m == one else t) for m, t in pairs],
    )
    P = fx.b2()
    with pytest.raises(TheoremBreach) as info:
        closure.sccore_bruteforce(ClosureOperator(constant_map(P, "1")))
    assert str(info.value).startswith(
        "Scott core scan: a carried closure table fixes another set: "
        "Subset({a, 1}), carried with Subset({1})"
    )
    assert main(argv) == 3
    assert "Scott core scan" in capsys.readouterr().err


def test_continuity_fault_on_gamma_moves_the_scott_core_scan(
    monkeypatch, tmp_path, capsys
):
    # on a finite poset every closure operator is Scott continuous, so
    # gamma is its own Scott core.  Once the scan's continuity test
    # rejects the constant top of c2, the operators left below it fix
    # {1} and more, and the greatest is the identity, which the way-below
    # formula does not give
    P = fx.c2()
    gamma = ClosureOperator(constant_map(P, "1"))
    assert closure.sccore_bruteforce(gamma) == gamma
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"elements": ["0", "1"], "le": [["0", "1"]]}))
    top = tmp_path / "top.json"
    top.write_text(json.dumps({"table": {"0": "1", "1": "1"}}))
    argv = ["sccore", str(c2), str(top)]
    assert main(argv) == 0
    real = closure.directed_join_faults
    monkeypatch.setattr(
        closure,
        "directed_join_faults",
        lambda Q, t, cap=None: 1 if tuple(t) == (1, 1) else real(Q, t, cap),
    )
    assert closure.sccore_bruteforce(gamma) == ClosureOperator(identity_map(P))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "way_below_formula=" in err and "candidate_scan=" in err


def test_wrong_meet_table_breaks_the_pointwise_nucleus_meet(monkeypatch):
    # a meet table that answers 0 for a meet a, so the pointwise meet of
    # two identities sends a below itself
    P = fx.b2()
    nu = heyting.enumerate_nuclei(P)[0]
    assert heyting.nucleus_meet(nu, nu) == nu
    real = heyting.meet_table

    def planted(Q):
        mt = [list(row) for row in real(Q)]
        mt[1][1] = 0
        return mt

    monkeypatch.setattr(heyting, "meet_table", planted)
    _assert_built_breach(
        "pointwise nucleus meet", NotPreclosure, lambda: heyting.nucleus_meet(nu, nu)
    )


def test_meet_breaking_generation_breaks_the_join_of_prenuclei(monkeypatch):
    # generation answering the closure operator that fixes {0, 1}: it
    # sends a and b to 1, and their meet 0 to 0
    P = fx.b2()
    assert heyting.nucleus_join([], P).table == (0, 1, 2, 3)
    monkeypatch.setattr(
        heyting,
        "generate_closure",
        lambda G, Q: closure.duality(Subset.of(Q, ["0", "1"])),
    )
    _assert_built_breach(
        "generated join of prenuclei",
        NotANucleus,
        lambda: heyting.nucleus_join([], P),
    )


def test_wrong_meet_breaks_the_double_implication_nucleus(monkeypatch):
    # a meet of {a} that answers the top: the regular nucleus at 0, the
    # identity on b2, then sends a to 1 and keeps 0 and b, so it breaks
    # the meet of a and b
    P = fx.b2()
    assert heyting.regular_nucleus(P, "0").table == (0, 1, 2, 3)
    _plant_subset_lookups(monkeypatch, meet=lambda Q, mask: 3 if mask == 0b10 else None)
    _assert_built_breach(
        "double-implication formula",
        NotANucleus,
        lambda: heyting.regular_nucleus(fx.b2(), "0"),
    )


def test_wrong_formula_breaks_the_greatest_nucleus_below(
    monkeypatch, b2_files, capsys
):
    # the identity is the one nucleus below gam, which keeps 0 fixed; a
    # double-implication route that answers the constant-top nucleus
    # disagrees with the enumeration
    P = fx.b2()
    gamma = ClosureOperator(
        EndoMap.from_labels(P, {"0": "0", "a": "1", "b": "1", "1": "1"})
    )
    assert nuclear_core(P, gamma).table == (0, 1, 2, 3)
    argv = ["nuclear-core", b2_files["poset"], b2_files["gam"]]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        heyting, "nuc_map", lambda L, X, cap=None: Nucleus(constant_map(L, "1"))
    )
    with pytest.raises(
        TheoremBreach, match="^routes disagree on greatest nucleus below "
    ) as info:
        nuclear_core(P, gamma)
    assert info.value.routes["enumeration"].table == (0, 1, 2, 3)
    assert main(argv) == 3
    assert "routes disagree on greatest nucleus below" in capsys.readouterr().err


def test_dropped_kernel_breaks_the_nuclear_filter_status(monkeypatch):
    # {a, 1} is the kernel of the nucleus fixing {b, 1}; a kernel table
    # that leaves it out makes the scan miss it, while the Galois
    # closure still finds it
    P = fx.b2()
    X = Subset.of(P, ["a", "1"])
    assert is_nuclear_filter(P, X)
    real = hmj._kernels

    def dropping(Q):
        kernels, filters = real(Q)
        return kernels, {k: F for k, F in filters.items() if k != X.mask}

    monkeypatch.setattr(hmj, "_kernels", dropping)
    P = fx.b2()
    X = Subset.of(P, ["a", "1"])
    with pytest.raises(
        TheoremBreach, match="^routes disagree on nuclear-filter status "
    ) as info:
        is_nuclear_filter(P, X)
    assert info.value.routes == {"kernel_scan": False, "galois_closure": True}


def test_wrong_system_join_breaks_the_meet_of_closure_operators(monkeypatch):
    # the constant-top operator on c3 is its own meet; a least closure
    # system that answers the whole chain makes the operator-lattice
    # route the identity
    P = fx.c3()
    top = closure.duality(Subset.of(P, ["2"]))
    assert closure.cl_meet([top]) == top
    monkeypatch.setattr(
        closure, "clsys", lambda X, cap=None: closure.ClosureSystem(_full(X))
    )
    with pytest.raises(
        TheoremBreach, match="^routes disagree on meet of closure operators "
    ) as info:
        closure.cl_meet([top])
    assert info.value.routes["operator_lattice"].table == (0, 1, 2)


def test_identity_meet_breaks_the_fixpoints_of_a_nucleus_meet(monkeypatch):
    # the constant-top nucleus and the one fixing {a, 1} meet in a
    # nucleus fixing {a, 1}; a meet that answers the identity fixes all
    P = fx.b2()
    top = Nucleus(constant_map(P, "1"))
    nu = heyting.nuc_map(P, Subset.of(P, ["a", "1"]))
    assert heyting.fix_of_meet_check(top, nu)
    monkeypatch.setattr(
        heyting, "nucleus_meet", lambda a, b: Nucleus(identity_map(a.poset))
    )
    with pytest.raises(
        TheoremBreach, match="^routes disagree on fixpoints of a nucleus meet "
    ) as info:
        heyting.fix_of_meet_check(top, nu)
    assert info.value.routes["meets_of_fixpoints"].labels == ("a", "1")



def _chain_file(tmp_path, n):
    labels = [str(i) for i in range(n)]
    p = tmp_path / f"c{n}.json"
    p.write_text(json.dumps({"elements": labels, "le": list(zip(labels, labels[1:]))}))
    return str(p)


def _closing_empty_to_bottom(real):
    # the least closed set above the empty set answered as {0}, which no
    # closure system on the chain holds: the image of {} is not closed
    def planted(full, masks):
        return (0b1,) + tuple(real(full, masks))[1:]

    return planted


@pytest.mark.parametrize(
    "build, route",
    [
        (convexity.clsys_operator, "least closure systems"),
        (convexity.dcclsys_operator, "least directed-closed systems"),
        (
            lambda P: convexity.rule_closure_operator(rules.default_rules(P)),
            "obeying sets of a rule set",
        ),
    ],
)
def test_wrong_least_closed_table_breaks_the_powerset_operators(
    monkeypatch, build, route
):
    # a powerset operator the library built that breaks a closure law is
    # a breach of its route, not bad input
    P = fx.c2()
    assert build(P).table == (2, 3, 2, 3)
    real = convexity.least_closed_table
    monkeypatch.setattr(convexity, "least_closed_table", _closing_empty_to_bottom(real))
    _assert_built_breach(route, InputError, lambda: build(P))
    with pytest.raises(TheoremBreach, match="not idempotent at {}"):
        build(P)


@pytest.mark.parametrize("which", ["clsys", "dcclsys"])
def test_wrong_least_closed_table_makes_convexity_exit_3(
    monkeypatch, tmp_path, capsys, which
):
    argv = ["convexity", _chain_file(tmp_path, 2), "--operator", which]
    assert main(argv) == 0
    real = convexity.least_closed_table
    monkeypatch.setattr(convexity, "least_closed_table", _closing_empty_to_bottom(real))
    capsys.readouterr()
    assert main(argv) == 3
    assert "built a result its own class rejects" in capsys.readouterr().err


def test_increasing_check_letting_a_swap_through_breaks_tarski(
    monkeypatch, tmp_path, capsys
):
    # f = (1, 0, 2) on the chain is not increasing; a check that lets it
    # through leaves A = {0, 2}, the elements below their image, through
    # f(0) = 1, which the theorem says cannot happen
    P = fx.c3()
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"table": {"0": "1", "1": "0", "2": "2"}}))
    argv = ["tarski", _chain_file(tmp_path, 3), str(path)]
    assert main(argv) == 1
    monkeypatch.setattr(closure, "is_increasing", lambda f: True)
    with pytest.raises(
        TheoremBreach, match="^Tarski restriction: '0' is below its image '1'"
    ):
        closure.tarski(EndoMap(P, (1, 0, 2)))
    capsys.readouterr()
    assert main(argv) == 3
    assert "Tarski restriction" in capsys.readouterr().err


def test_increasing_check_letting_a_drop_through_breaks_the_tarski_restriction(
    monkeypatch,
):
    # f = (2, 1, 2) keeps every element below its image, so A is the
    # whole chain, but 0 <= 1 and f(0) = 2 > f(1): the restriction is
    # not a preclosure map, and generation rejects it
    P = fx.c3()
    monkeypatch.setattr(closure, "is_increasing", lambda f: True)
    _assert_built_breach(
        "Tarski restriction",
        NotPreclosure,
        lambda: closure.tarski(EndoMap(P, (2, 1, 2))),
    )
