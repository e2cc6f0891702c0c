"""Closure rules: deduction closure, canonical rule sets, Galois moves."""

import random

import pytest

from corpus import random_poset, random_ruleset, random_subset
from latkit import (
    ClosureRule,
    RuleSet,
    Subset,
    clsys,
    duality,
    enumerate_cl_lattice,
    is_default_rule,
    is_nuclear_enabled,
    nuclear_rules,
    obeys,
    rel_impl_max,
    rel_impl_star,
    rho,
    rul,
    rule_closure,
    sigma,
)
from latkit import fixtures as fx
from latkit.convexity import clsys_operator
from latkit.errors import InvalidValue, NotMeetSemilattice
from latkit.rules import default_rules, rule_closure_mask


def naive_closure_mask(R: RuleSet, mask: int) -> int:
    # repeated full passes; independent of the worklist implementation
    while True:
        new = mask
        for r in R.rules:
            if r.body_mask & ~mask == 0:
                new |= 1 << r.head
        if new == mask:
            return mask
        mask = new


def reference_sigma(R: RuleSet) -> list:
    """The masks obeying R, one scan of the rules per mask."""
    return [
        m
        for m in range(R.poset.full_mask + 1)
        if all(r.body_mask & ~m or m >> r.head & 1 for r in R.rules)
    ]


def reference_rho(P, masks) -> dict:
    """Body mask -> the heads every member containing it holds, one
    scan of the family per body; bodies with no head are left out."""
    heads = {}
    for b in range(P.full_mask + 1):
        hs = P.full_mask
        for m in masks:
            if b & ~m == 0:
                hs &= m
        if hs:
            heads[b] = hs
    return heads


def reference_is_reflexive(R: RuleSet) -> bool:
    """Every mask lies inside its own heads: one read per mask."""
    heads = R._heads
    return all(b & ~heads.get(b, 0) == 0 for b in range(R.poset.full_mask + 1))


def reference_is_transitive(R: RuleSet) -> bool:
    """Every mask B, as a body, concludes the heads of every entry whose
    body lies inside B's heads: each mask against each entry."""
    heads = R._heads
    for b in range(R.poset.full_mask + 1):
        sb = heads.get(b, 0)
        for c, ds in heads.items():
            if c & ~sb == 0 and ds & ~sb:
                return False
    return True


def reference_rul(op) -> RuleSet:
    """The rules of a powerset operator, one apply_mask per mask."""
    heads = {}
    for b in range(op.universe.full_mask + 1):
        closed = op.apply_mask(b)
        if closed:
            heads[b] = closed
    return RuleSet._indexed(op.universe, heads)


def test_rule_repr_and_membership():
    P = fx.c3()
    R = RuleSet.of(P, [((), "2"), (("2",), "1")])
    assert repr(R.rules[0]) == "{} |- 2"
    assert R.has(P.mask_of(["2"]), P.index("1"))
    assert not R.has(0, P.index("1"))


def test_rule_closure_matches_naive_passes():
    rng = random.Random(31)
    for _ in range(80):
        P = random_poset(rng, rng.randrange(1, 7))
        R = random_ruleset(rng, P)
        m = rng.randrange(P.full_mask + 1)
        assert rule_closure_mask(R, m) == naive_closure_mask(R, m)


def test_obeys_iff_closed():
    rng = random.Random(32)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 6))
        R = random_ruleset(rng, P)
        for m in range(P.full_mask + 1):
            X = Subset(P, m)
            assert obeys(X, R) == (rule_closure_mask(R, m) == m)


def test_default_rules_on_c3():
    P = fx.c3()
    R = default_rules(P)
    got = {(r.body.labels, r.head_label) for r in R.rules}
    assert ((), "2") in got  # the empty set concludes the top
    assert (("0", "1"), "0") in got
    assert len(R) == 8
    for r in R.rules:
        assert is_default_rule(P, r.body, r.head_label)
    assert not is_default_rule(P, Subset.of(P, ["2"]), "0")


def test_default_closure_is_clsys():
    rng = random.Random(33)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 7))
        R = default_rules(P)
        X = random_subset(rng, P)
        assert rule_closure(R, X).mask == clsys(X).mask


def test_sigma_of_default_rules_is_the_closure_systems():
    for P in (fx.c2(), fx.c3(), fx.b2(), fx.topfree()):
        fam = {S.mask for S in sigma(P, default_rules(P))}
        want = {C.mask for C in enumerate_cl_lattice(P)["closure_systems"]}
        assert fam == want


def test_sigma_rho_galois_laws():
    rng = random.Random(34)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 6))
        R = random_ruleset(rng, P)
        fam = [random_subset(rng, P) for _ in range(rng.randrange(4))]
        SR = sigma(P, R)
        RF = rho(P, fam)
        # both maps are antitone and the composites are inflationary
        # R <= rho(sigma(R)) as rule sets: every subset obeying R obeys R
        R2 = rho(P, SR)
        for m in range(P.full_mask + 1):
            if obeys(Subset(P, m), R2):
                assert obeys(Subset(P, m), R)
        # fam is contained in sigma(rho(fam))
        SF = {S.mask for S in sigma(P, RF)}
        for X in fam:
            assert X.mask in SF
        # triple application stabilizes
        assert {S.mask for S in sigma(P, rho(P, SR))} == set(
            S.mask for S in SR
        )


def test_rho_output_is_reflexive_and_transitive():
    rng = random.Random(35)
    for _ in range(20):
        P = random_poset(rng, rng.randrange(1, 6))
        fam = [random_subset(rng, P) for _ in range(rng.randrange(4))]
        R = rho(P, fam)
        assert R.is_reflexive()
        assert R.is_transitive()


def test_rule_laws_read_the_empty_body():
    P = fx.c3()
    # the empty body concludes 0 and {1} is no body, so {1}, a subset
    # of its own closure, concludes nothing: neither law holds
    R = RuleSet.of(P, [((), "0"), (("0",), "0")])
    assert not R.is_reflexive() and not reference_is_reflexive(R)
    assert not R.is_transitive() and not reference_is_transitive(R)
    # every subset of {0} concludes 0, and every other mask is a body
    # concluding everything: both laws hold with an empty-body entry
    R = rho(P, [Subset.of(P, ["0"])])
    assert R.has(0, 0) and len(R._heads) == P.full_mask + 1
    assert R.is_reflexive() and R.is_transitive()
    assert reference_is_reflexive(R) and reference_is_transitive(R)


def test_rul_of_powerset_operator():
    P = fx.c3()
    R = rul(clsys_operator(P))
    # closing under these rules reproduces the operator
    op = clsys_operator(P)
    for m in range(P.full_mask + 1):
        assert rule_closure_mask(R, m) == op.apply_mask(m)


def test_nuclear_rules_on_b2():
    P = fx.b2()
    R = nuclear_rules(P)
    got = {(r.body.labels, r.head_label) for r in R.rules}
    # 0 = a meet b forces everything above either conjunct
    assert (("0",), "1") in got and (("0",), "a") in got
    assert (("a",), "1") in got
    assert len(R) == 9
    # nuclei obey them; the operator with fixpoints {0, 1} does not
    for C in enumerate_cl_lattice(P)["closure_systems"]:
        gamma = duality(C)
        if gamma.fix.labels == ("0", "1"):
            assert not obeys(gamma.fix, R)
        if gamma.fix.labels == ("a", "1"):
            assert obeys(gamma.fix, R)


def test_rel_impl_on_b2():
    P = fx.b2()
    assert rel_impl_star(P, "a", "0").labels == ("0", "b")
    assert rel_impl_max(P, "a", "0").labels == ("b",)
    with pytest.raises(NotMeetSemilattice):
        rel_impl_star(fx.v4(), "a", "b")


def test_nuclear_enabledness_on_fixtures():
    assert is_nuclear_enabled(fx.b2())
    assert is_nuclear_enabled(fx.topfree())
    assert is_nuclear_enabled(fx.diamond())
    assert not is_nuclear_enabled(fx.v4())  # c and d have no meet


@pytest.mark.parametrize(
    "body_mask, head, message",
    [(8, 0, "rule body outside the poset"), (0, 3, "rule head outside the poset")],
    ids=["body", "head"],
)
def test_closure_rule_outside_the_poset_is_rejected(body_mask, head, message):
    with pytest.raises(InvalidValue) as info:
        ClosureRule(fx.c3(), body_mask, head)
    assert str(info.value) == message


def test_rule_with_unknown_labels_rejected():
    P = fx.c3()
    from latkit import UnknownLabel

    with pytest.raises(UnknownLabel):
        ClosureRule.of(P, ["0"], "zz")


def test_indexed_rule_set_checks_masks_against_the_poset():
    P = fx.c3()
    R = RuleSet._indexed(P, {0: 0b100, 0b011: 0b001})
    assert R.rules == RuleSet.of(P, [((), "2"), (("0", "1"), "0")]).rules
    assert R.has(0b011, 0) and not R.has(0b011, 1)
    with pytest.raises(ValueError, match="body"):
        RuleSet._indexed(P, {0b1000: 0b001})
    with pytest.raises(ValueError, match="head"):
        RuleSet._indexed(P, {0: 0b1000})
    with pytest.raises(ValueError, match="head"):
        RuleSet._indexed(P, {0: -1})


def test_nuclear_rules_need_pairwise_meets():
    with pytest.raises(NotMeetSemilattice):
        nuclear_rules(fx.v4())


def test_rule_set_is_immutable_and_compares_only_with_rule_sets():
    P = fx.c3()
    R = RuleSet.of(P, [(("0",), "1")])
    with pytest.raises(AttributeError, match="immutable: cannot set 'poset'"):
        R.poset = fx.b2()
    assert R != R.rules and R.__eq__(R.rules) is NotImplemented
    assert repr(R) == "RuleSet(poset=FinitePoset(['0', '1', '2']), rules=({0} |- 1,))"
