"""Closure operators and systems: duality, enumeration, generation,
induction principles, meets and joins, Scott cores, Tarski fixpoints."""

import random

import pytest

from corpus import (
    random_increasing_map,
    random_pointed_poset,
    random_poset,
    random_preclosure,
    random_subset,
)
from latkit import (
    ClosureOperator,
    ClosureSystem,
    EndoMap,
    InputError,
    Subset,
    cl_join,
    cl_meet,
    clsys,
    constant_map,
    dcclsys,
    default_induction_check,
    dj,
    duality,
    duality_inv,
    enumerate_cl_lattice,
    generate_closure,
    identity_map,
    induction_check,
    is_closure_system,
    kleene_generate,
    obverse_induction_check,
    pointwise_leq,
    sccore,
    sccore_bruteforce,
    tarski,
)
from latkit import fixtures as fx
from latkit.errors import (
    NoLeastElement,
    NotAClosureSystem,
    NotAscendingAt,
    NotIncreasing,
    NotPreclosure,
)


def test_closure_operator_rejects_non_preclosure():
    P = fx.c3()
    with pytest.raises(NotPreclosure):
        ClosureOperator(EndoMap.from_labels(P, {"0": "0", "1": "0", "2": "2"}))


def test_closure_operator_rejects_non_idempotent():
    P = fx.c3()
    step = EndoMap.from_labels(P, {"0": "1", "1": "2", "2": "2"})
    with pytest.raises(InputError):
        ClosureOperator(step)


def test_closure_system_validation():
    P = fx.b2()
    ClosureSystem(Subset.of(P, ["1"]))
    with pytest.raises(NotAClosureSystem):
        ClosureSystem(Subset.of(P, ["a", "b"]))  # up(0) has no least member


def test_duality_round_trips():
    rng = random.Random(21)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 7))
        for C in enumerate_cl_lattice(P)["closure_systems"]:
            gamma = duality(C)
            assert duality_inv(gamma).mask == C.mask
            # gamma(x) is the least fixpoint above x
            for i in range(P.n):
                v = gamma(i)
                assert C.mask >> v & 1 and P.le[i] >> v & 1


def test_counting_fixtures():
    assert len(enumerate_cl_lattice(fx.c2())["closure_systems"]) == 2
    assert len(enumerate_cl_lattice(fx.c3())["closure_systems"]) == 4
    assert len(enumerate_cl_lattice(fx.b2())["closure_systems"]) == 7
    # a k-chain's closure systems are exactly the subsets containing the top
    for k in (1, 2, 3, 4, 5):
        got = len(enumerate_cl_lattice(fx.chain(k))["closure_systems"])
        assert got == 2 ** (k - 1)


def test_closure_systems_of_topfree():
    P = fx.topfree()
    got = {C.labels for C in enumerate_cl_lattice(P)["closure_systems"]}
    assert got == {
        ("0", "u", "v"),
        ("0", "a", "u", "v"),
        ("0", "b", "u", "v"),
        ("0", "a", "b", "u", "v"),
    }


def test_generate_closure_example():
    P = fx.c3()
    g = EndoMap.from_labels(P, {"0": "1", "1": "2", "2": "2"})
    gamma = generate_closure([g])
    assert gamma.map.as_labels() == {"0": "2", "1": "2", "2": "2"}
    assert gamma.fix.labels == ("2",)


def test_generation_routes_and_least_above():
    rng = random.Random(22)
    for _ in range(60):
        P = random_poset(rng, rng.randrange(1, 7))
        G = [random_preclosure(rng, P) for _ in range(rng.randrange(4))]
        gamma = generate_closure(G, P)
        assert kleene_generate(G, P).table == gamma.table
        # least closure operator above every generator, by scan
        candidates = [
            op
            for op in enumerate_cl_lattice(P)["closure_operators"]
            if all(pointwise_leq(g, op.map) for g in G)
        ]
        least = min(
            candidates, key=lambda op: sum(1 << v for v in op.table)
        )  # any total order; verify minimality properly below
        assert any(op.table == gamma.table for op in candidates)
        for op in candidates:
            assert pointwise_leq(gamma.map, op.map)
        # fixpoints intersect
        want = P.full_mask
        for g in G:
            want &= g.fix_mask
        assert gamma.fix_mask == want
        del least


def test_empty_generation_is_identity():
    P = fx.b2()
    assert generate_closure([], P).table == identity_map(P).table


def test_induction_principles_exhaustive():
    rng = random.Random(23)
    for _ in range(25):
        P = random_poset(rng, rng.randrange(1, 6))
        G = [random_preclosure(rng, P) for _ in range(rng.randrange(3))]
        for m in range(P.full_mask + 1):
            A = Subset(P, m)
            rep = induction_check(A, G, P)
            if rep["premises_hold"]:
                assert rep["closed_under_generated"]
            orep = obverse_induction_check(A, G, P)
            if orep["premises_hold"]:
                assert orep["inversely_closed_under_generated"]
            drep = default_induction_check(A, G, P)
            if drep["premises_hold"]:
                assert drep["closed_under_generated"]


def test_clsys_both_methods_agree():
    rng = random.Random(24)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 7))
        X = random_subset(rng, P)
        C = clsys(X, method="both")
        assert is_closure_system(Subset(P, C.mask))
        assert C.mask & X.mask == X.mask


def test_dcclsys_collapses_to_clsys():
    rng = random.Random(25)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 7))
        X = random_subset(rng, P)
        assert dcclsys(X).mask == clsys(X).mask


def test_dj_is_directed_join_closure():
    P = fx.b2()
    X = Subset.of(P, ["a"])
    assert dj(X).labels == ("a",)
    Y = Subset.of(P, ["0", "a"])
    assert dj(Y).labels == ("0", "a")


def test_cl_meet_and_join_are_lattice_operations():
    P = fx.b2()
    ops = enumerate_cl_lattice(P)["closure_operators"]
    for g in ops:
        for h in ops:
            lo = cl_meet([g, h])
            hi = cl_join([g, h])
            assert lo.leq(g) and lo.leq(h)
            assert g.leq(hi) and h.leq(hi)
            for other in ops:
                if other.leq(g) and other.leq(h):
                    assert other.leq(lo)
                if g.leq(other) and h.leq(other):
                    assert hi.leq(other)


def test_sccore_collapses_finitely():
    rng = random.Random(26)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 7))
        for gamma in enumerate_cl_lattice(P)["closure_operators"]:
            s = sccore(gamma)
            assert s.table == gamma.table
            assert sccore_bruteforce(gamma).table == gamma.table


def test_scott_core_scan_runs_under_the_one_cap():
    # 13 elements: within the subset cap that also guards the directed
    # columns, so both Scott-core routes answer at the default cap
    P = fx.chain(13)
    gamma = ClosureOperator(identity_map(P))
    assert sccore_bruteforce(gamma).table == gamma.table
    assert sccore(gamma).table == gamma.table


def test_tarski_on_example():
    P = fx.c3()
    g = EndoMap.from_labels(P, {"0": "1", "1": "2", "2": "2"})
    assert tarski(g) == "2"
    assert tarski(g, "1") == "2"


def test_tarski_matches_fixpoint_scan():
    rng = random.Random(27)
    for _ in range(120):
        P = random_pointed_poset(rng, rng.randrange(2, 8))
        f = random_increasing_map(rng, P)
        lfp = tarski(f)
        fixes = [i for i in range(P.n) if f(i) == i]
        assert fixes, "increasing map on a pointed finite poset has a fixpoint"
        idx = P.index(lfp)
        assert f(idx) == idx
        for j in fixes:
            assert P.le[idx] >> j & 1
        # started variant: least fixpoint at or above any ascent point
        starts = [i for i in range(P.n) if P.le[i] >> f(i) & 1]
        x = rng.choice(starts)
        got = P.index(tarski(f, P.label(x)))
        assert f(got) == got and P.le[x] >> got & 1
        for j in fixes:
            if P.le[x] >> j & 1:
                assert P.le[got] >> j & 1


def test_tarski_error_cases():
    P = fx.c3()
    with pytest.raises(NotIncreasing):
        tarski(EndoMap.from_labels(P, {"0": "2", "1": "1", "2": "2"}))
    # start not below its image
    desc = EndoMap.from_labels(P, {"0": "0", "1": "0", "2": "2"})
    with pytest.raises(NotAscendingAt):
        tarski(desc, "1")
    # no bottom and no start
    A = fx.antichain(2)
    with pytest.raises(NoLeastElement):
        tarski(identity_map(A))


def test_constant_bottom_closure():
    P = fx.b2()
    gamma = generate_closure([constant_map(P, "1")], P)
    assert gamma.fix.labels == ("1",)
