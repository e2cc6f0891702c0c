"""Planted bugs in the enumerated lists that route pairs read.

Each test first runs the route pair clean, then makes one list wrong
and expects the cross-check to raise TheoremBreach in the library and,
where a command runs the pair, the CLI to exit 3.  Derived data is kept
on the poset that it was built for, so a planted builder is run on a
poset built after planting.
"""

import json

import pytest

from latkit import fixtures as fx
from latkit import closure, convexity, heyting, order
from latkit.cli import main
from latkit.closure import ClosureOperator, clsys
from latkit.errors import TheoremBreach
from latkit.heyting import is_nuclear_system, least_nucleus_above, nuclear_core
from latkit.maps import identity_map, is_scott_continuous
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
