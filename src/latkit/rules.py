"""Closure rules: body-head deductions over a poset's elements.

A rule (B, c) is obeyed by a subset X when B inside X forces c into X.
A rule set is indexed by body: each body mask maps to the mask of the
heads it concludes.  The engine closes a subset under a rule set by
chaotic iteration with a worklist over that index: each body not yet
inside waits on one missing element and is woken when it arrives.

Two rule families are derived from the order itself.  Default rules
conclude a maximal lower bound from a body; nuclear rules conclude, from
a single premise b, any maximal solution of x meet a <= b.  Their
obeying sets characterize closure systems and nuclear systems
respectively, which is what the tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class RuleSet:
    """A set of rules over one poset, indexed by body.

    `_heads` maps each body mask to the mask of the heads it concludes,
    and every query reads it.  A rule set built from ClosureRules keeps
    its tuple; one built by the library from the index alone builds
    `rules` on first access, in body-mask order, then head order.
    Equality, hashing and repr read `rules`.
    """

    __slots__ = ("poset", "_heads", "_rules")

    def __init__(self, poset: FinitePoset, rules: Sequence[ClosureRule]):
        rules = tuple(rules)
        heads: dict = {}
        for r in rules:
            same_poset(poset, r.poset)
            heads[r.body_mask] = heads.get(r.body_mask, 0) | 1 << r.head
        self._set(poset, heads, rules)

    @classmethod
    def _indexed(cls, poset: FinitePoset, heads: dict) -> "RuleSet":
        """Trusted construction from a body-to-heads index built inside
        the library, with no entry for a body that concludes nothing;
        only the masks are checked against the poset."""
        full = poset.full_mask
        for b, h in heads.items():
            if b & ~full:
                raise ValueError("rule body outside the poset")
            if h & ~full:
                raise ValueError("rule head outside the poset")
        R = cls.__new__(cls)
        R._set(poset, heads, None)
        return R

    def _set(self, poset, heads, rules):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "_heads", heads)
        object.__setattr__(self, "_rules", rules)

    def __setattr__(self, name, value):
        raise AttributeError(f"RuleSet is immutable: cannot set {name!r}")

    @classmethod
    def of(cls, poset: FinitePoset, items: Iterable) -> "RuleSet":
        """items: (body labels, head label) pairs."""
        return cls(
            poset, tuple(ClosureRule.of(poset, b, h) for b, h in items)
        )

    @property
    def rules(self) -> tuple[ClosureRule, ...]:
        if self._rules is None:
            P = self.poset
            object.__setattr__(
                self,
                "_rules",
                tuple(
                    ClosureRule(P, b, h)
                    for b, hs in sorted(self._heads.items())
                    for h in bits(hs)
                ),
            )
        return self._rules

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poset, self.rules) == (other.poset, other.rules)

    def __hash__(self):
        return hash((self.poset, self.rules))

    def __repr__(self):
        return f"RuleSet(poset={self.poset!r}, rules={self.rules!r})"

    def __len__(self):
        return len(self.rules)

    def has(self, body_mask: int, head: int) -> bool:
        return head >= 0 and bool(self._heads.get(body_mask, 0) >> head & 1)

    def is_reflexive(self, cap: Optional[int] = None) -> bool:
        """Contains every rule that concludes a member of its own body."""
        P = self.poset
        check_cap("rule reflexivity", P.n, cap, SUBSET_CAP)
        heads = self._heads
        for bmask in range(P.full_mask + 1):
            if bmask & ~heads.get(bmask, 0):
                return False
        return True

    def is_transitive(self, cap: Optional[int] = None) -> bool:
        """Deductions compose: if B concludes all of C and C concludes d,
        then B concludes d."""
        P = self.poset
        check_cap("rule transitivity", P.n, cap, SUBSET_CAP)
        heads = self._heads
        for bmask in range(P.full_mask + 1):
            sb = heads.get(bmask, 0)
            for cmask, ds in heads.items():
                if cmask & ~sb == 0 and ds & ~sb:
                    return False
        return True


def obeys_mask(R: RuleSet, mask: int) -> bool:
    for b, hs in R._heads.items():
        if b & ~mask == 0 and hs & ~mask:
            return False
    return True


def obeys(X: Subset, R: RuleSet) -> bool:
    same_poset(X.poset, R.poset)
    return obeys_mask(R, X.mask)


def rule_closure_mask(R: RuleSet, mask: int) -> int:
    """Least superset of mask obeying every rule.

    A worklist over the index's (body, heads) entries: an entry whose
    body is not yet inside waits on its lowest missing element and is
    woken when that element arrives, so each entry is parked at most
    once per body element."""
    parked: list[list[tuple[int, int]]] = [[] for _ in range(R.poset.n)]
    ready = list(R._heads.items())
    while ready:
        entry = ready.pop()
        need = entry[0] & ~mask
        if need:
            parked[(need & -need).bit_length() - 1].append(entry)
            continue
        new = entry[1] & ~mask
        mask |= new
        while new:
            low = new & -new
            h = low.bit_length() - 1
            ready.extend(parked[h])
            parked[h] = []
            new ^= low
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
    full = P.full_mask
    heads = {}
    for bmask in range(full + 1):
        # the heads are the members of every set containing the body
        hs = full
        for m in masks:
            if bmask & ~m == 0:
                hs &= m
        if hs:
            heads[bmask] = hs
    return RuleSet._indexed(P, heads)


def rul(op, cap: Optional[int] = None) -> RuleSet:
    """Every rule validated by a powerset closure operator: B concludes c
    exactly when c lands in the closure of B."""
    P = op.universe
    check_cap("rule-set extraction", P.n, cap, SUBSET_CAP)
    heads = {}
    for bmask in range(P.full_mask + 1):
        closed = op.apply_mask(bmask)
        if closed:
            heads[bmask] = closed
    return RuleSet._indexed(P, heads)


# ---------------------------------------------------------------------------
# default rules


def _default_rules(P: FinitePoset) -> RuleSet:
    lower = bound_sets(P, P.down)
    tops = {lb: maximal_mask(P, lb) for lb in set(lower)}
    return RuleSet._indexed(
        P, {bmask: tops[lb] for bmask, lb in enumerate(lower) if tops[lb]}
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
