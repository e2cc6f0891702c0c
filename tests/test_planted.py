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
from latkit import cli, closure, convexity, heyting, order, rules
from latkit.cli import main
from latkit.closure import ClosureOperator, clsys
from latkit.errors import InputError, TheoremBreach
from latkit.heyting import is_nuclear_system, least_nucleus_above, nuclear_core
from latkit.hmj import is_nuclear_filter
from latkit.maps import EndoMap, identity_map, is_scott_continuous
from latkit.order import Subset
from latkit.rules import RuleSet


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


def test_dropped_closure_system_breaks_clsys(monkeypatch):
    P = fx.c3()
    X = Subset.of(P, ["1", "2"])
    assert clsys(X, method="both").mask == X.mask
    real = closure._closure_system_masks
    monkeypatch.setattr(
        closure, "_closure_system_masks", lambda Q: _without(real(Q), X.mask)
    )
    P = fx.c3()
    X = Subset.of(P, ["1", "2"])
    with pytest.raises(TheoremBreach):
        clsys(X, method="both")


def _plant_default_heads(monkeypatch, edit):
    # a default-rule builder whose body-to-heads index is edited
    real = rules._default_rules
    monkeypatch.setattr(
        rules,
        "_default_rules",
        lambda Q: RuleSet._indexed(Q, edit(dict(real(Q)._heads))),
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
    monkeypatch.setattr(rules, "rule_closure_mask", lambda R, mask: mask)
    routes = _empty_set_breach()
    assert routes["system_intersection"].labels == ("2",)


def test_wrong_double_implication_breaks_nuc_map(monkeypatch):
    # a meet that always answers the top turns the double-implication
    # formula into the constant-top nucleus, a valid nucleus whose
    # fixpoints miss a
    P = fx.b2()
    X = Subset.of(P, ["a"])
    assert heyting.nuc_map(P, X).fix.labels == ("a", "1")
    monkeypatch.setattr(heyting, "meet_of", lambda Q, mask: order.top_index(Q))
    P = fx.b2()
    X = Subset.of(P, ["a"])
    with pytest.raises(TheoremBreach) as info:
        heyting.nuc_map(P, X)
    routes = info.value.routes
    assert list(routes) == ["double_implication", "nucsys"]
    assert routes["double_implication"].labels == ("1",)
    assert routes["nucsys"].labels == ("a", "1")


def test_wrong_directed_top_breaks_scott_continuity(
    monkeypatch, b2_files, capsys
):
    P = fx.b2()
    f = identity_map(P)
    assert is_scott_continuous(f)
    argv = ["sccore", b2_files["poset"], b2_files["gam"]]
    assert main(argv) == 0
    real = order._directed_subsets
    d, top = P.mask_of(["0", "a"]), P.index("1")
    monkeypatch.setattr(
        order,
        "_directed_subsets",
        lambda Q: tuple((m, top if m == d else t) for m, t in real(Q)),
    )
    P = fx.b2()
    f = identity_map(P)
    with pytest.raises(TheoremBreach):
        is_scott_continuous(f)
    assert main(argv) == 3
    capsys.readouterr()


def _plant_dropped_nucleus(monkeypatch, fix_mask):
    # a nuclei builder that leaves out the nucleus with this fixpoint set
    real = heyting._nuclei
    monkeypatch.setattr(
        heyting,
        "_nuclei",
        lambda Q: tuple(nu for nu in real(Q) if nu.fix_mask != fix_mask),
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
    with pytest.raises(TheoremBreach):
        convexity.convexity_checks(bad)


def test_wrong_least_member_breaks_nuclei_descent(monkeypatch, b2_files, capsys):
    # a least_of that answers the bottom for every nonempty mask sends
    # left-out elements below themselves, so the descent's leaves fail
    # their own Nucleus validation: a breach, not bad input
    assert len(heyting.enumerate_nuclei(fx.b2())) == 4
    argv = ["nuclei", b2_files["poset"]]
    assert main(argv) == 0
    monkeypatch.setattr(
        heyting,
        "least_of",
        lambda Q, mask: order.bottom_index(Q) if mask else None,
    )
    with pytest.raises(TheoremBreach) as info:
        heyting.enumerate_nuclei(fx.b2())
    assert "nuclei descent" in str(info.value)
    assert isinstance(info.value.__cause__, InputError)
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
        cli, "kleene_generate", lambda G, Q: ClosureOperator(identity_map(Q))
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
        "clsys",
        lambda X, cap=None: closure.clsys(_full(X), cap),
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


def test_wrong_scan_route_breaks_sccore(monkeypatch, b2_files, capsys):
    argv = ["sccore", b2_files["poset"], b2_files["gam"]]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(
        cli,
        "sccore_bruteforce",
        lambda gamma, cap=None: ClosureOperator(identity_map(gamma.poset)),
    )
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "way_below_formula=" in err and "candidate_scan=" in err
