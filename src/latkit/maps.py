"""Endomaps of a finite poset: classification, algebra, fixpoint sets.

A map is a total table from element indices to element indices.  The
classification predicates are definitional.  Scott continuity and the
other quantifiers over directed subsets each call one column primitive
of order.py, which checks its answer against the finite shortcut and
raises TheoremBreach when the two differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem, or_
from typing import Iterable, Optional, Sequence

from .errors import InvalidValue, ParseError
from .order import (
    FinitePoset,
    Subset,
    bits,
    directed_join_faults,
    directed_tops_avoiding,
    family_poset,
    is_monotone,
    join_of,
    meet_of,
    meet_table,
    same_poset,
    spread,
)


@dataclass(frozen=True)
class EndoMap:
    """A total map from a poset's elements to themselves, its table
    stored as a tuple."""

    poset: FinitePoset
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        n = self.poset.n
        if len(self.table) != n:
            raise InvalidValue("map table must cover every element")
        for v in self.table:
            if not 0 <= v < n:
                raise InvalidValue(f"map table value {v} out of range")

    @classmethod
    def from_labels(cls, poset: FinitePoset, mapping: dict) -> "EndoMap":
        missing = [lab for lab in poset.elements if lab not in mapping]
        if missing:
            raise ParseError(f"table not total: missing {missing[0]!r}")
        for key in mapping:
            poset.index(key)  # UnknownLabel on stray keys
        table = tuple(poset.index(mapping[lab]) for lab in poset.elements)
        f = EndoMap(poset, table)
        return f if cls is EndoMap else cls(f)

    def __call__(self, i: int) -> int:
        return self.table[i]

    def apply_label(self, label: str) -> str:
        return self.poset.label(self.table[self.poset.index(label)])

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.table[i]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i, v in enumerate(self.table):
            if mask >> v & 1:
                out |= 1 << i
        return out

    @property
    def fix_mask(self) -> int:
        out = 0
        for i, v in enumerate(self.table):
            if i == v:
                out |= 1 << i
        return out

    @property
    def fix(self) -> Subset:
        return Subset(self.poset, self.fix_mask)

    def leq(self, other: "EndoMap") -> bool:
        """Pointwise order: self(x) <= other(x) for every x."""
        return pointwise_leq(self, other)

    def as_labels(self) -> dict:
        els = self.poset.elements
        return {els[i]: els[v] for i, v in enumerate(self.table)}

    def __repr__(self):
        pairs = ", ".join(f"{a}->{b}" for a, b in self.as_labels().items())
        return f"EndoMap({pairs})"


def identity_map(P: FinitePoset) -> EndoMap:
    return EndoMap(P, tuple(range(P.n)))


def constant_map(P: FinitePoset, label: str) -> EndoMap:
    return EndoMap(P, (P.index(label),) * P.n)


# ---------------------------------------------------------------------------
# classification


def is_ascending(f: EndoMap) -> bool:
    """x <= f(x) everywhere."""
    le = f.poset.le
    return all(le[i] >> v & 1 for i, v in enumerate(f.table))


def is_descending(f: EndoMap) -> bool:
    return all(f.poset.le[v] >> i & 1 for i, v in enumerate(f.table))


def is_increasing(f: EndoMap) -> bool:
    """x <= y implies f(x) <= f(y)."""
    return is_monotone(f.poset, f.table)


def is_idempotent(f: EndoMap) -> bool:
    t = f.table
    return all(t[v] == v for v in t)


def is_preclosure(f: EndoMap) -> bool:
    return is_ascending(f) and is_increasing(f)


def is_scott_continuous(f: EndoMap, cap: Optional[int] = None) -> bool:
    """f preserves every existing directed join.

    For each directed D the image f(D) must have a join and it must be
    f(join D).  On a finite poset every directed set has a join, namely
    its maximum, so the quantification runs over all directed subsets;
    order.directed_join_faults checks it against the finite shortcut,
    being increasing.
    """
    return not directed_join_faults(f.poset, f.table, cap)


def preserves_binary_meets(f: EndoMap) -> Optional[bool]:
    """f(x meet y) == f(x) meet f(y); None when meets are unavailable."""
    mt = meet_table(f.poset)
    if mt is None:
        return None
    t = f.table
    n = f.poset.n
    for i in range(n):
        for j in range(i, n):
            if t[mt[i][j]] != mt[t[i]][t[j]]:
                return False
    return True


def closure_table_fault(
    P: FinitePoset,
    leaves: Sequence[tuple[int, Sequence[int]]],
    meets: Optional[Sequence[Sequence[int]]] = None,
) -> Optional[int]:
    """The index of the first (F, t) leaf whose table t is not the
    closure operator with fixpoint set exactly F, or, given P's meet
    table, not a nucleus; None when every leaf passes.  This decides in
    one pass every law EndoMap and ClosureOperator check (and with
    meets Nucleus), in O(n) masks per table.

    t is the closure operator fixing exactly F iff, for every x, t[x]
    is in F and up(t[x]) & F == up(x) & F.  Indeed t[x] in up(x) & F
    gives ascent; x <= y gives t[y] in up(y) & F, a subset of
    up(t[x]), which is monotonicity; t[x] in F gives t[t[x]] <= t[x],
    which is idempotence; and only the members of F are fixed, so
    fix(t) = F.  Conversely the closure operator fixing F sends x to
    the least member of up(x) & F.  The meets are compared on the
    incomparable pairs only: comparable pairs follow from monotonicity.
    Any meet-semilattice will do, frame or not."""
    n, le = P.n, P.le
    powers = [1 << v for v in range(n)]
    xs, ys, zs = [], [], []
    if meets is not None:
        for x in range(n):
            for y in range(x + 1, n):
                if not (le[x] >> y & 1 or le[y] >> x & 1):
                    xs.append(x)
                    ys.append(y)
                    zs.append(meets[x][y])
    for i, (fixed, t) in enumerate(leaves):
        if len(t) != n or n and not 0 <= min(t) <= max(t) < n or fixed >> n:
            return i
        ups = list(map(fixed.__and__, le))  # up(x) & F for every x
        if list(map(ups.__getitem__, t)) != ups:
            return i
        if reduce(or_, map(powers.__getitem__, t), 0) & ~fixed:
            return i
        if zs:
            tx, ty = map(t.__getitem__, xs), map(t.__getitem__, ys)
            if list(map(getitem, map(meets.__getitem__, tx), ty)) != list(
                map(t.__getitem__, zs)
            ):
                return i
    return None


def classify(f: EndoMap, cap: Optional[int] = None) -> dict:
    """Full classification report for one endomap."""
    asc = is_ascending(f)
    inc = is_increasing(f)
    idem = is_idempotent(f)
    desc = is_descending(f)
    return {
        "ascending": asc,
        "descending": desc,
        "increasing": inc,
        "idempotent": idem,
        "preclosure": asc and inc,
        "closure_operator": asc and inc and idem,
        "interior_operator": desc and inc and idem,
        "scott_continuous": is_scott_continuous(f, cap),
        "preserves_binary_meets": preserves_binary_meets(f),
    }


# ---------------------------------------------------------------------------
# algebra


def compose(g: EndoMap, f: EndoMap) -> EndoMap:
    """g after f."""
    same_poset(g.poset, f.poset)
    return EndoMap(f.poset, tuple(g.table[v] for v in f.table))


def pointwise_leq(f: EndoMap, g: EndoMap) -> bool:
    same_poset(f.poset, g.poset)
    le = f.poset.le
    return all(le[a] >> b & 1 for a, b in zip(f.table, g.table))


def pointwise_join(
    maps: Sequence[EndoMap],
    poset: Optional[FinitePoset] = None,
    empty_is_identity: bool = False,
) -> Optional[EndoMap]:
    """Pointwise join of a family, or None where some value join is missing.

    The empty family has no pointwise join in general; in contexts where
    the family ranges over ascending maps the identity is the unit, and
    passing empty_is_identity=True opts into that reading (poset then
    required).
    """
    if not maps:
        return identity_map(family_poset(maps, poset)) if empty_is_identity else None
    return _pointwise(maps, poset, join_of)


def pointwise_meet(
    maps: Sequence[EndoMap], poset: Optional[FinitePoset] = None
) -> Optional[EndoMap]:
    """Pointwise meet of a nonempty family, or None where a meet is missing."""
    if not maps:
        return None
    return _pointwise(maps, poset, meet_of)


def _pointwise(maps, poset, bound) -> Optional[EndoMap]:
    # bound(P, mask) of the family's values at each point
    P = family_poset(maps, poset)
    out = []
    for i in range(P.n):
        v = bound(P, _mask_of_values(maps, i))
        if v is None:
            return None
        out.append(v)
    return EndoMap(P, tuple(out))


def _mask_of_values(maps: Sequence[EndoMap], i: int) -> int:
    m = 0
    for f in maps:
        m |= 1 << f.table[i]
    return m


@dataclass(frozen=True)
class ValueRows:
    """The pointwise order on a family of tables over one poset, as
    value rows: bit j of at_most[y][v] is set iff tables[j][y] <= v,
    and of at_least[y][v] iff tables[j][y] >= v.  The members below a
    map g are the AND of at_most[y][g(y)] over the points y, those
    above it the AND of at_least[y][g(y)]: n steps on k-bit rows, not
    k pointwise comparisons.  Built by value_rows."""

    tables: tuple[tuple[int, ...], ...]
    at_most: tuple[tuple[int, ...], ...]
    at_least: tuple[tuple[int, ...], ...]
    every: int  # the mask of all members

    def below(self, table: Sequence[int]) -> int:
        """The members at most table, pointwise, as a mask."""
        return reduce(and_, map(getitem, self.at_most, table), self.every)

    def above(self, table: Sequence[int]) -> int:
        """The members at least table, pointwise, as a mask."""
        return reduce(and_, map(getitem, self.at_least, table), self.every)

    def up_rows(self) -> tuple[int, ...]:
        """up[i]: the members at or above member i."""
        return tuple(map(self.above, self.tables))

    def least(self, mask: int) -> Optional[int]:
        """The member of mask whose up row covers mask, or None."""
        covering = (i for i in bits(mask) if self.above(self.tables[i]) & mask == mask)
        return next(covering, None)

    def greatest(self, mask: int) -> Optional[int]:
        """The member of mask whose down row covers mask, or None."""
        covering = (i for i in bits(mask) if self.below(self.tables[i]) & mask == mask)
        return next(covering, None)


def value_rows(P: FinitePoset, tables: Sequence[Sequence[int]]) -> ValueRows:
    """The value rows of tables on P, read from them and P's order alone."""
    at = [[0] * P.n for _ in range(P.n)]  # at[y][v]: the j with tables[j][y] = v
    for j, t in enumerate(tables):
        for y, v in enumerate(t):
            at[y][v] |= 1 << j
    return ValueRows(
        tuple(map(tuple, tables)),
        tuple(spread(row, P.le) for row in at),
        tuple(spread(row, P.down) for row in at),
        (1 << len(tables)) - 1,
    )


# ---------------------------------------------------------------------------
# fixpoints and closedness


def fix(maps: Iterable[EndoMap], poset: Optional[FinitePoset] = None) -> Subset:
    """Common fixpoints of a family; the empty family fixes everything."""
    maps = list(maps)
    P = family_poset(maps, poset)
    out = P.full_mask
    for m in maps:
        out &= m.fix_mask
    return Subset(P, out)


def closed_under(A: Subset, maps: Iterable[EndoMap]) -> bool:
    """Every map sends A into A."""
    for m in maps:
        same_poset(A.poset, m.poset)
        if m.image_mask(A.mask) & ~A.mask:
            return False
    return True


def inversely_closed_under(A: Subset, maps: Iterable[EndoMap]) -> bool:
    """Every map pulls A back into A: f(x) in A implies x in A."""
    for m in maps:
        same_poset(A.poset, m.poset)
        if m.preimage_mask(A.mask) & ~A.mask:
            return False
    return True


def directed_closed(A: Subset, cap: Optional[int] = None) -> bool:
    """A contains the join of each of its directed subsets: no directed
    set that avoids the complement of A has its maximum outside A."""
    out = A.poset.full_mask & ~A.mask
    return not directed_tops_avoiding(A.poset, out, out, cap)


def inaccessible_by_directed_joins(A: Subset, cap: Optional[int] = None) -> bool:
    """No directed set outside A has its join inside A."""
    return not directed_tops_avoiding(A.poset, A.mask, A.mask, cap)
