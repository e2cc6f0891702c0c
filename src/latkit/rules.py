"""Closure rules: body-head deductions over a poset's elements.

A rule (B, c) is obeyed by a subset X when B inside X forces c into X.
A rule set is indexed by body: each body mask maps to the mask of the
heads it concludes.  The engine closes a subset under a rule set by
chaotic iteration with a worklist over that index: each body not yet
inside waits on one missing element and is woken when it arrives.  The
obeying sets are the index's subset unions (bitset.subset_unions).

Two rule families are derived from the order itself.  Default rules
conclude a maximal lower bound from a body; nuclear rules conclude, from
a single premise b, any maximal solution of x meet a <= b.  Their
obeying sets characterize closure systems and nuclear systems
respectively, which is what the tests lean on.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .bitset import bits, least_closed_table, lowest, subset_unions
from .errors import InvalidValue, NotMeetSemilattice
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    Value,
    bound_sets,
    check_cap,
    derived,
    has_ceiling_mask,
    is_default_enabled,
    lower_bounds_mask,
    maximal_mask,
    meet_table,
    same_poset,
    solution_sets,
    trusted,
)


class ClosureRule(Value):
    """One deduction: if every body element is present, the head is too."""

    poset: FinitePoset
    body_mask: int
    head: int

    _fields = ("poset", "body_mask", "head")

    def __init__(self, poset: FinitePoset, body_mask: int, head: int):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "body_mask", body_mask)
        object.__setattr__(self, "head", head)
        self.__post_init__()

    def __post_init__(self):
        if self.body_mask & ~self.poset.full_mask:
            raise InvalidValue("rule body outside the poset")
        if not 0 <= self.head < self.poset.n:
            raise InvalidValue("rule head outside the poset")

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


class RuleSet(Value):
    """A set of rules over one poset, indexed by body.

    `_heads` maps each body mask to the mask of the heads it concludes,
    and every query reads it.  `_listing` holds the rules as (body mask,
    head) pairs in the order given, without repeats; a rule set built
    from the index alone has none and lists its rules in body-mask
    order, then head order.  `rules` builds ClosureRule views of them.
    Equality and hashing read the index; repr reads `rules`.
    """

    def __init__(self, poset: FinitePoset, rules: Sequence[ClosureRule]):
        rules = tuple(rules)
        same_poset(poset, *(r.poset for r in rules))
        self._set(poset, None, ((r.body_mask, r.head) for r in rules))

    @classmethod
    def _listed(cls, poset: FinitePoset, pairs: Iterable) -> "RuleSet":
        """Trusted construction from (body mask, head) pairs the library built."""
        R = cls.__new__(cls)
        R._set(poset, None, pairs)
        return R

    @classmethod
    def _indexed(cls, poset: FinitePoset, heads: dict) -> "RuleSet":
        """Trusted construction from a body-to-heads index built inside
        the library, with no entry whose heads are empty, so that every
        mask absent from it concludes nothing, as is_transitive reads it;
        only the masks are checked against the poset."""
        full = poset.full_mask
        for b, h in heads.items():
            if b & ~full:
                raise InvalidValue("rule body outside the poset")
            if h & ~full:
                raise InvalidValue("rule head outside the poset")
        R = cls.__new__(cls)
        R._set(poset, heads, None)
        return R

    def _set(self, poset, heads, pairs):
        if pairs is not None:
            pairs = tuple(dict.fromkeys(pairs))
            heads = {}
            for b, h in pairs:
                heads[b] = heads.get(b, 0) | 1 << h
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "_heads", heads)
        object.__setattr__(self, "_listing", pairs)

    @classmethod
    def of(cls, poset: FinitePoset, items: Iterable) -> "RuleSet":
        """items: (body labels, head label) pairs."""
        return cls._listed(
            poset, [(poset.mask_of(b), poset.index(h)) for b, h in items]
        )

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The rules as (body mask, head) pairs, in listing order."""
        return self._listing or tuple(
            (b, h) for b, hs in sorted(self._heads.items()) for h in bits(hs)
        )

    @property
    def rules(self) -> tuple[ClosureRule, ...]:
        P = self.poset
        return tuple(
            trusted(ClosureRule, poset=P, body_mask=b, head=h) for b, h in self.pairs
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poset, self._heads) == (other.poset, other._heads)

    def __hash__(self):
        return hash((self.poset, frozenset(self._heads.items())))

    def __repr__(self):
        return f"RuleSet(poset={self.poset!r}, rules={self.rules!r})"

    def __len__(self):
        return sum(map(int.bit_count, self._heads.values()))

    def has(self, body_mask: int, head: int) -> bool:
        return head >= 0 and bool(self._heads.get(body_mask, 0) >> head & 1)

    def is_reflexive(self) -> bool:
        """Contains every rule that concludes a member of its own body:
        the 2^n - 1 nonempty masks are all bodies inside their heads.
        One step per entry of the index, so no cap gates it."""
        inside = sum(b & ~h == 0 for b, h in self._heads.items() if b)
        return inside == self.poset.full_mask

    def is_transitive(self) -> bool:
        """Deductions compose: if B concludes all of C and C concludes d,
        then B concludes d.  A mask that is no body concludes nothing,
        so as B it fails only if the empty body concludes something;
        every other B is an entry, tested once per head set: no 2^n
        scan, so no cap gates it."""
        heads = self._heads
        if heads.get(0) and len(heads) <= self.poset.full_mask:
            return False
        return not any(
            c & ~sb == 0 and ds & ~sb
            for sb in set(heads.values())
            for c, ds in heads.items()
        )


def obeys(X: Subset, R: RuleSet) -> bool:
    same_poset(X.poset, R.poset)
    m = X.mask
    return all(b & ~m or hs & ~m == 0 for b, hs in R._heads.items())


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
            parked[lowest(need)].append(entry)
            continue
        new = entry[1] & ~mask
        mask |= new
        for h in bits(new):
            ready.extend(parked[h])
            parked[h] = []
    return mask


def rule_closure(R: RuleSet, X: Subset) -> Subset:
    """Least superset of X obeying every rule."""
    same_poset(R.poset, X.poset)
    return Subset(X.poset, rule_closure_mask(R, X.mask))


def obeying_masks(R: RuleSet, cap: Optional[int] = None) -> list[int]:
    """Every mask obeying the rule set, ascending, in one pass.

    heads[m] collects the heads of every rule whose body lies inside m,
    the subset unions of the index (bitset.subset_unions): n 2^n steps.
    m obeys the rules when all of those heads are in m.
    """
    P = R.poset
    check_cap("obeying-set enumeration", P.n, cap, SUBSET_CAP)
    heads = [0] * (P.full_mask + 1)
    for b, h in R._heads.items():
        heads[b] |= h
    subset_unions(heads, P.n)
    return [m for m, h in enumerate(heads) if h & ~m == 0]


def sigma(P: FinitePoset, R: RuleSet, cap: Optional[int] = None) -> list[Subset]:
    """All subsets obeying the rule set, in mask order."""
    same_poset(P, R.poset)
    return [Subset(P, m) for m in obeying_masks(R, cap)]


def rho(P: FinitePoset, family: Sequence[Subset], cap: Optional[int] = None) -> RuleSet:
    """All rules obeyed by every subset in the family.

    A body concludes the members of every set in the family that
    contains it, the least closed set above it when the family's sets
    count as closed: one bitset.least_closed_table, n 2^n steps.  Rules
    come out sorted by body mask then head, so the result is
    deterministic.  rho of anything is a closure theory: reflexive and
    transitive, a fact the tests pin down.
    """
    check_cap("rule-set extraction", P.n, cap, SUBSET_CAP)
    masks = []
    for X in family:
        same_poset(P, X.poset)
        masks.append(X.mask)
    heads = least_closed_table(P.full_mask, masks)
    return RuleSet._indexed(P, {b: hs for b, hs in enumerate(heads) if hs})


def rul(op, cap: Optional[int] = None) -> RuleSet:
    """Every rule validated by a powerset closure operator: B concludes c
    exactly when c lands in the closure of B."""
    P = op.universe
    check_cap("rule-set extraction", P.n, cap, SUBSET_CAP)
    return RuleSet._indexed(P, {b: c for b, c in enumerate(op.table) if c})


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


def _default_heads(P: FinitePoset, body: int) -> int:
    # the heads of body's default rules: its maximal lower bounds
    return maximal_mask(P, lower_bounds_mask(P, body))


def is_default_rule(P: FinitePoset, body: Subset, head: str) -> bool:
    same_poset(P, body.poset)
    return bool(_default_heads(P, body.mask) >> P.index(head) & 1)


def default_closure_mask(P: FinitePoset, mask: int) -> int:
    """Least superset of mask obeying every default rule, read from the
    principal bodies alone: each round adds the maximal lower bounds of
    mask & P.le[x] for every x, until a round adds nothing.  At most n
    rounds of n bodies, and no rule index is built.

    Why the principal bodies suffice: let M be closed under the rules
    whose bodies are M & up(x), and let m be a maximal lower bound of
    some body B inside M.  U = M & up(m) has a least element u: m is a
    lower bound of U, so some maximal lower bound of U lies above m;
    it is in M, hence in U.  B lies inside U, so u is a lower bound of
    B with u >= m; m is maximal, so u = m and m is in M.  The result
    therefore obeys every default rule, and each element it adds is
    the head of one, so it equals rule_closure_mask(default_rules(P),
    mask).
    """
    while True:
        grown = mask
        for up in P.le:
            grown |= _default_heads(P, mask & up)
        if grown == mask:
            return mask
        mask = grown


# ---------------------------------------------------------------------------
# nuclear rules


def rel_impl_star(P: FinitePoset, a: str, b: str) -> Subset:
    """All x with x meet a at or below b, a cell of the poset's
    order.solution_sets table.  Requires pairwise meets."""
    if meet_table(P) is None:
        raise NotMeetSemilattice(f"{P!r} has a pair with no meet")
    return Subset(P, derived(P, solution_sets)[P.index(a)][P.index(b)])


def rel_impl_max(P: FinitePoset, a: str, b: str) -> Subset:
    """Maximal solutions of x meet a at or below b; may be empty."""
    star = rel_impl_star(P, a, b)
    return Subset(P, maximal_mask(P, star.mask))


def _nuclear_rules(P: FinitePoset) -> RuleSet:
    # RuleSet keeps a rule found for several a at its first place
    sols = derived(P, solution_sets)
    return RuleSet._listed(
        P,
        (
            (1 << b, h)
            for b in range(P.n)
            for a in range(P.n)
            for h in bits(maximal_mask(P, sols[a][b]))
        ),
    )


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
    if not is_default_enabled(P, cap):
        return False
    if meet_table(P) is None:
        return False
    sols = derived(P, solution_sets)
    return all(has_ceiling_mask(P, s) for row in sols for s in row)
