"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Corpora are seeded and shared module-wide so the whole suite stays well
under the runtime budget.  Every comparison is exact; no tolerances.
"""

import random

import pytest

from corpus import (
    random_frame,
    random_increasing_map,
    random_meet_semilattice,
    random_pointed_poset,
    random_poset,
    random_preclosure,
    random_prenucleus,
    random_ruleset,
    random_subset,
)
from latkit import (
    Subset,
    adjunction_check,
    clsys,
    clsys_operator,
    convexity_checks,
    dcclsys,
    dcclsys_operator,
    enumerate_cl_lattice,
    enumerate_filters,
    enumerate_nuclei,
    fix_of_meet_check,
    frame_of_nuclei_check,
    funnel_check,
    galois_identities_check,
    generate_closure,
    hmj_correspondence,
    is_nucleus_map,
    is_scott_continuous,
    is_scott_open,
    kleene_generate,
    least_nucleus_above,
    nuc_map,
    nuclear_core,
    nuclear_rules,
    nucleus_join,
    nucsys,
    obeys,
    pointwise_leq,
    regular_nucleus,
    rho,
    sccore,
    sigma,
    table_operator,
    tarski,
    way_below,
)
from latkit import fixtures as fx
from latkit.closure import induction_check, obverse_induction_check
from latkit.maps import fix as common_fix
from latkit.rules import default_rules, rule_closure_mask


@pytest.fixture(scope="module")
def poset_corpus():
    rng = random.Random(101)
    out = []
    for _ in range(200):
        P = random_poset(rng, rng.randrange(1, 8))
        G = [random_preclosure(rng, P) for _ in range(rng.randrange(4))]
        out.append((P, G))
    return out


@pytest.fixture(scope="module")
def pointed_corpus():
    rng = random.Random(102)
    return [
        (P, random_increasing_map(rng, P))
        for P in (
            random_pointed_poset(rng, rng.randrange(2, 8)) for _ in range(200)
        )
    ]


@pytest.fixture(scope="module")
def msl_corpus():
    rng = random.Random(103)
    return [random_meet_semilattice(rng, 6) for _ in range(100)]


@pytest.fixture(scope="module")
def frame_corpus():
    rng = random.Random(104)
    return [random_frame(rng, 6) for _ in range(50)]


FRAME_FIXTURES = (fx.point(), fx.c2(), fx.c3(), fx.b2(), fx.chain(4), fx.chain(5))


def _report(num, desc):
    print(f"criterion {num:02d} PASS: {desc}")


def test_criterion_01_generation_theorem(poset_corpus):
    for P, G in poset_corpus:
        gamma = generate_closure(G, P)
        assert kleene_generate(G, P).table == gamma.table
        ops = enumerate_cl_lattice(P)["closure_operators"]
        above = [
            op for op in ops if all(pointwise_leq(g, op.map) for g in G)
        ]
        assert any(op.table == gamma.table for op in above)
        for op in above:
            assert pointwise_leq(gamma.map, op.map)
        want = P.full_mask
        for g in G:
            want &= g.fix_mask
        assert gamma.fix_mask == want
        if G:
            assert common_fix(G, P).mask == want
    _report(1, "generation agrees across both routes, the brute-force "
               "least-above scan, and the fixpoint intersection (200 posets)")


def test_criterion_02_induction_principles(poset_corpus):
    for P, G in poset_corpus:
        if P.n > 6:
            continue
        for m in range(P.full_mask + 1):
            A = Subset(P, m)
            rep = induction_check(A, G, P)
            if rep["premises_hold"]:
                assert rep["closed_under_generated"]
            orep = obverse_induction_check(A, G, P)
            if orep["premises_hold"]:
                assert orep["inversely_closed_under_generated"]
    _report(2, "induction and obverse induction premises imply their "
               "conclusions over exhaustive subsets (|P| <= 6)")


def test_criterion_03_counting_fixtures():
    assert len(enumerate_cl_lattice(fx.c2())["closure_systems"]) == 2
    assert len(enumerate_cl_lattice(fx.c3())["closure_systems"]) == 4
    assert len(enumerate_cl_lattice(fx.b2())["closure_systems"]) == 7
    assert len(enumerate_nuclei(fx.b2())) == 4
    assert len(enumerate_filters(fx.b2())) == 4
    _report(3, "ClSys(C2)=2, ClSys(C3)=4, ClSys(B2)=7, Nuc(B2)=4, "
               "filters(B2)=4")


def test_criterion_04_tarski(pointed_corpus):
    for P, f in pointed_corpus:
        fixes = [i for i in range(P.n) if f(i) == i]
        assert fixes
        lfp = P.index(tarski(f))
        assert lfp in fixes
        for j in fixes:
            assert P.le[lfp] >> j & 1
        for x in range(P.n):
            if not P.le[x] >> f(x) & 1:
                continue
            got = P.index(tarski(f, P.label(x)))
            assert f(got) == got and P.le[x] >> got & 1
            for j in fixes:
                if P.le[x] >> j & 1:
                    assert P.le[got] >> j & 1
    _report(4, "tarski matches the scan minimum, started and unstarted "
               "(200 increasing maps on pointed posets)")


def test_criterion_05_nucleus_theorems(msl_corpus):
    rng = random.Random(105)
    for L in msl_corpus:
        nucs = enumerate_nuclei(L)
        pre = [random_prenucleus(rng, L, nucs) for _ in range(rng.randrange(1, 4))]
        joined = nucleus_join(pre, L)
        assert is_nucleus_map(joined.op.map)
        for f in pre:
            assert pointwise_leq(f, joined.op.map)
        for a in nucs:
            for b in nucs:
                assert fix_of_meet_check(a, b)
        rep = frame_of_nuclei_check(L)
        assert rep["is_complete_lattice"] and rep["meets_pointwise"]
        assert rep["bottom_is_identity"] and rep["all_scott_continuous"]
    _report(5, "nucleus joins validate, the meet fixpoint product formula "
               "holds, and the nuclei form a frame (100 meet-semilattices)")


def test_criterion_06_frame_formulas(frame_corpus):
    for L in frame_corpus:
        assert adjunction_check(L)
        nucs = enumerate_nuclei(L)
        for m in range(L.full_mask + 1):
            X = Subset(L, m)
            nucsys(L, X)  # breach-compares the two routes
            nu = nuc_map(L, X)
            cands = [n for n in nucs if n.fix_mask & m == m]
            # nu is the nucleus of the least nuclear system containing
            # X; least fixpoint set means pointwise greatest map
            want = L.full_mask
            for n in cands:
                want &= n.fix_mask
            assert nu.fix_mask == want
            assert any(n.table == nu.table for n in cands)
            for n in cands:
                assert n.leq(nu)
        for gamma in enumerate_cl_lattice(L)["closure_operators"]:
            above = least_nucleus_above(L, gamma)
            cands = [n for n in nucs if pointwise_leq(gamma.map, n.op.map)]
            assert any(n.table == above.table for n in cands)
            for n in cands:
                assert above.leq(n)
            below = nuclear_core(L, gamma)
            cands = [n for n in nucs if pointwise_leq(n.op.map, gamma.map)]
            assert any(n.table == below.table for n in cands)
            for n in cands:
                assert n.leq(below)
        for x in L.elements:
            r = regular_nucleus(L, x)
            xb = L.index(x)
            for n in nucs:
                assert n.leq(r) == bool(n.fix_mask >> xb & 1)
    _report(6, "implication adjunction, nuclear-system and least-nucleus "
               "formulas, cores, and the regular-nucleus lemma (50 frames)")


def test_criterion_07_hmj(frame_corpus):
    for L in FRAME_FIXTURES + tuple(frame_corpus):
        rep = hmj_correspondence(L)
        assert rep["antiisomorphism_verified"]
        assert rep["count"] == len(rep["scott_open_filters"])
        assert rep["count"] == len(rep["compact_fitted_quotients"])
        gal = galois_identities_check(L)
        assert all(gal.values()), gal
    _report(7, "Scott-open filters biject order-reversingly with compact "
               "fitted quotients; Galois identities hold (fixtures + 50 frames)")


def test_criterion_08_rules(poset_corpus, msl_corpus):
    rng = random.Random(106)
    for P, G in poset_corpus:
        R = default_rules(P)
        for m in range(P.full_mask + 1):
            assert rule_closure_mask(R, m) == clsys(Subset(P, m)).mask
        for g in G:
            assert obeys(Subset(P, g.fix_mask), R)
    for L in msl_corpus:
        NR = nuclear_rules(L)
        nucs = enumerate_nuclei(L)
        f = random_prenucleus(rng, L, nucs)
        assert obeys(Subset(L, f.fix_mask), NR)
    for _ in range(60):
        P = random_poset(rng, rng.randrange(1, 6))
        R = random_ruleset(rng, P)
        fam = [random_subset(rng, P) for _ in range(rng.randrange(4))]
        SR = sigma(P, R)
        # R is contained in rho(sigma(R)), as rule pairs
        R2 = rho(P, SR)
        assert {(r.body_mask, r.head) for r in R.rules} <= {
            (r.body_mask, r.head) for r in R2.rules
        }
        # fam is contained in sigma(rho(fam))
        SF = {S.mask for S in sigma(P, rho(P, fam))}
        assert {X.mask for X in fam} <= SF
        # both triple laws
        assert {S.mask for S in sigma(P, R2)} == {S.mask for S in SR}
        RF = rho(P, fam)
        assert {(r.body_mask, r.head) for r in rho(P, sigma(P, RF)).rules} == {
            (r.body_mask, r.head) for r in RF.rules
        }
    for P in (fx.c2(), fx.c3(), fx.b2(), fx.topfree()):
        assert {S.mask for S in sigma(P, default_rules(P))} == {
            C.mask for C in enumerate_cl_lattice(P)["closure_systems"]
        }
    _report(8, "default rules compute clsys, fixpoint sets obey their rule "
               "systems, and the sigma/rho Galois laws hold")


def test_criterion_09_convexity(poset_corpus):
    for P in (fx.point(), fx.c2(), fx.c3(), fx.b2(), fx.v4(), fx.diamond(),
              fx.topfree()) + tuple(P for P, _ in poset_corpus):
        for op in (clsys_operator(P), dcclsys_operator(P)):
            rep = convexity_checks(op)
            assert rep["anti_exchange"] and rep["closed_set_form"]
            assert rep["is_convex_geometry"]
        fun = funnel_check(clsys_operator(P), P)
        assert fun["witness_definition"] and fun["upper_set_form"]
        assert fun["principal_form"] and fun["is_funnel"]
    A = fx.antichain(2)
    bad = table_operator(
        A,
        {(): (), ("0",): ("0", "1"), ("1",): ("0", "1"), ("0", "1"): ("0", "1")},
    )
    rep = convexity_checks(bad)
    assert not rep["is_convex_geometry"]
    assert rep["anti_exchange_witness"] is not None
    assert rep["closed_set_witness"] is not None
    _report(9, "anti-exchange and its closed-set form agree and pass for "
               "clsys and dcclsys (200 posets); the funnel conditions hold; "
               "the planted operator is rejected with witnesses")


def test_criterion_10_finite_collapses(poset_corpus, frame_corpus):
    rng = random.Random(107)
    for P, G in poset_corpus:
        for a in P.elements:
            for b in P.elements:
                assert way_below(P, a, b) == P.leq_labels(a, b)
        gamma = generate_closure(G, P)
        assert is_scott_continuous(gamma.map)
        assert sccore(gamma).table == gamma.table
        X = random_subset(rng, P)
        assert dcclsys(X).mask == clsys(X).mask
    for L in frame_corpus:
        for gamma in enumerate_cl_lattice(L)["closure_operators"]:
            assert is_scott_continuous(gamma.map)
            assert sccore(gamma).table == gamma.table
        for F in enumerate_filters(L):
            assert is_scott_open(L, F.subset)
    _report(10, "way-below is <=, closure operators are Scott-continuous "
                "with sccore the identity move, dcclsys is clsys, and all "
                "filters are Scott-open")
