"""Closure rules: body-head deductions over a poset's elements.

A rule (B, c) is obeyed by a subset X when B inside X forces c into X.
The engine closes a subset under a rule set by chaotic iteration with a
worklist: each unsatisfied rule waits on one missing body element and is
woken when that element arrives.

Two rule families are derived from the order itself.  Default rules
conclude a maximal lower bound from a body; nuclear rules conclude, from
a single premise b, any maximal solution of x meet a <= b.  Their
obeying sets characterize closure systems and nuclear systems
respectively, which is what the tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import NotMeetSemilattice
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    bits,
    bound_sets,
    check_cap,
    derived,
    lower_bounds_mask,
    maximal_mask,
    meet_table,
    same_poset,
)


@dataclass(frozen=True)
class ClosureRule:
    """One deduction: if every body element is present, the head is too."""

    poset: FinitePoset
    body_mask: int
    head: int

    def __post_init__(self):
        if self.body_mask & ~self.poset.full_mask:
            raise ValueError("rule body outside the poset")
        if not 0 <= self.head < self.poset.n:
            raise ValueError("rule head outside the poset")

    @classmethod
    def of(cls, poset: FinitePoset, body: Iterable[str], head: str) -> "ClosureRule":
        return cls(poset, poset.mask_of(body), poset.index(head))

    @property
    def body(self) -> Subset:
        return Subset(self.poset, self.body_mask)

    @property
    def head_label(self) -> str:
        return self.poset.label(self.head)

    def __repr__(self):
        return f"{{{', '.join(self.body.labels)}}} |- {self.head_label}"


@dataclass(frozen=True)
class RuleSet:
    poset: FinitePoset
    rules: tuple[ClosureRule, ...]
    _pairs: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for r in self.rules:
            same_poset(self.poset, r.poset)
        object.__setattr__(
            self, "_pairs", frozenset((r.body_mask, r.head) for r in self.rules)
        )

    @classmethod
    def of(cls, poset: FinitePoset, items: Iterable) -> "RuleSet":
        """items: (body labels, head label) pairs."""
        return cls(
            poset, tuple(ClosureRule.of(poset, b, h) for b, h in items)
        )

    def has(self, body_mask: int, head: int) -> bool:
        return (body_mask, head) in self._pairs

    def _heads_by_body(self) -> dict:
        out: dict = {}
        for b, h in self._pairs:
            out[b] = out.get(b, 0) | 1 << h
        return out

    def is_reflexive(self, cap: Optional[int] = None) -> bool:
        """Contains every rule that concludes a member of its own body."""
        P = self.poset
        check_cap("rule reflexivity", P.n, cap, SUBSET_CAP)
        heads = self._heads_by_body()
        for bmask in range(P.full_mask + 1):
            if bmask & ~heads.get(bmask, 0):
                return False
        return True

    def is_transitive(self, cap: Optional[int] = None) -> bool:
        """Deductions compose: if B concludes all of C and C concludes d,
        then B concludes d."""
        P = self.poset
        check_cap("rule transitivity", P.n, cap, SUBSET_CAP)
        heads = self._heads_by_body()
        for bmask in range(P.full_mask + 1):
            sb = heads.get(bmask, 0)
            for cmask, d in self._pairs:
                if cmask & ~sb == 0 and not sb >> d & 1:
                    return False
        return True

    def __len__(self):
        return len(self.rules)


def obeys_mask(R: RuleSet, mask: int) -> bool:
    for r in R.rules:
        if r.body_mask & ~mask == 0 and not mask >> r.head & 1:
            return False
    return True


def obeys(X: Subset, R: RuleSet) -> bool:
    same_poset(X.poset, R.poset)
    return obeys_mask(R, X.mask)


def rule_closure_mask(R: RuleSet, mask: int) -> int:
    parked: list[list[ClosureRule]] = [[] for _ in range(R.poset.n)]
    ready = list(R.rules)
    while ready:
        r = ready.pop()
        need = r.body_mask & ~mask
        if need:
            parked[next(bits(need))].append(r)
            continue
        if not mask >> r.head & 1:
            mask |= 1 << r.head
            woken = parked[r.head]
            parked[r.head] = []
            ready.extend(woken)
    return mask


def rule_closure(R: RuleSet, X: Subset) -> Subset:
    """Least superset of X obeying every rule."""
    same_poset(R.poset, X.poset)
    return Subset(X.poset, rule_closure_mask(R, X.mask))


def sigma(P: FinitePoset, R: RuleSet, cap: Optional[int] = None) -> list[Subset]:
    """All subsets obeying the rule set, in mask order."""
    same_poset(P, R.poset)
    check_cap("obeying-set enumeration", P.n, cap, SUBSET_CAP)
    return [Subset(P, m) for m in range(P.full_mask + 1) if obeys_mask(R, m)]


def rho(P: FinitePoset, family: Sequence[Subset], cap: Optional[int] = None) -> RuleSet:
    """All rules obeyed by every subset in the family.

    Rules come out sorted by body mask then head, so the result is
    deterministic.  rho of anything is a closure theory: reflexive and
    transitive, a fact the tests pin down.
    """
    check_cap("rule-set extraction", P.n, cap, SUBSET_CAP)
    masks = []
    for X in family:
        same_poset(P, X.poset)
        masks.append(X.mask)
    out = []
    for bmask in range(P.full_mask + 1):
        for h in range(P.n):
            if all(bmask & ~m or m >> h & 1 for m in masks):
                out.append(ClosureRule(P, bmask, h))
    return RuleSet(P, tuple(out))


def rul(op, cap: Optional[int] = None) -> RuleSet:
    """Every rule validated by a powerset closure operator: B concludes c
    exactly when c lands in the closure of B."""
    P = op.universe
    check_cap("rule-set extraction", P.n, cap, SUBSET_CAP)
    out = []
    for bmask in range(P.full_mask + 1):
        closed = op.apply_mask(bmask)
        for h in bits(closed):
            out.append(ClosureRule(P, bmask, h))
    return RuleSet(P, tuple(out))


# ---------------------------------------------------------------------------
# default rules


def _default_rules(P: FinitePoset) -> RuleSet:
    lower = bound_sets(P, P.down)
    heads = {lb: tuple(bits(maximal_mask(P, lb))) for lb in set(lower)}
    return RuleSet(
        P,
        tuple(
            ClosureRule(P, bmask, h)
            for bmask, lb in enumerate(lower)
            for h in heads[lb]
        ),
    )


def default_rules(P: FinitePoset, cap: Optional[int] = None) -> RuleSet:
    """One rule per body and maximal lower bound of that body.

    The lower bounds of every body come from order.bound_sets, and the
    maximal elements are taken once per distinct lower-bound set.
    Rules are listed in body-mask order, then head order.
    """
    check_cap("default-rule generation", P.n, cap, SUBSET_CAP)
    return derived(P, _default_rules)


def is_default_rule(P: FinitePoset, body: Subset, head: str) -> bool:
    same_poset(P, body.poset)
    h = P.index(head)
    lb = lower_bounds_mask(P, body.mask)
    return bool(maximal_mask(P, lb) >> h & 1)


# ---------------------------------------------------------------------------
# nuclear rules


def rel_impl_star(P: FinitePoset, a: str, b: str) -> Subset:
    """All x with x meet a at or below b.  Requires pairwise meets."""
    mt = meet_table(P)
    if mt is None:
        raise NotMeetSemilattice(f"{P!r} has a pair with no meet")
    ai, bi = P.index(a), P.index(b)
    out = 0
    for x in range(P.n):
        if P.le[mt[x][ai]] >> bi & 1:
            out |= 1 << x
    return Subset(P, out)


def rel_impl_max(P: FinitePoset, a: str, b: str) -> Subset:
    """Maximal solutions of x meet a at or below b; may be empty."""
    star = rel_impl_star(P, a, b)
    return Subset(P, maximal_mask(P, star.mask))


def _nuclear_rules(P: FinitePoset) -> RuleSet:
    seen = set()
    out = []
    for b in range(P.n):
        for a in range(P.n):
            heads = rel_impl_max(P, P.label(a), P.label(b)).mask
            for h in bits(heads):
                if (b, h) not in seen:
                    seen.add((b, h))
                    out.append(ClosureRule(P, 1 << b, h))
    return RuleSet(P, tuple(out))


def nuclear_rules(P: FinitePoset) -> RuleSet:
    """Single-premise rules b concludes c, where c maximally solves
    x meet a <= b for some a."""
    if meet_table(P) is None:
        raise NotMeetSemilattice(f"{P!r} has a pair with no meet")
    return derived(P, _nuclear_rules)


def is_nuclear_enabled(P: FinitePoset, cap: Optional[int] = None) -> bool:
    """Default-enabled, and every solution set of x meet a <= b has a
    ceiling.  Guarantees nuclear systems are exactly the sets obeying
    the default and nuclear rules together."""
    from .order import has_ceiling_mask, is_default_enabled

    if not is_default_enabled(P, cap):
        return False
    if meet_table(P) is None:
        return False
    for a in range(P.n):
        for b in range(P.n):
            star = rel_impl_star(P, P.label(a), P.label(b))
            if not has_ceiling_mask(P, star.mask):
                return False
    return True
