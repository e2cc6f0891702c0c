"""Finite posets and purely order-theoretic queries.

Elements are string labels.  The order of the input label list is
preserved and fixes iteration and output order everywhere else in the
library, so results are deterministic.

Internally a subset of a poset is a bitmask over element indices.  All
the exhaustive machinery (directed subsets, way-below, ceilings,
enabledness) works on masks; the public classes translate to and from
labels at the boundary.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CapExceeded,
    CycleDetected,
    DuplicateLabel,
    InvalidValue,
    MixedPosets,
    NotMeetSemilattice,
    UnknownLabel,
    agree,
)

# Default ceiling for the exponential enumerations.  Every operation
# that walks 2^n subsets, or quantifies over directed subsets (a row of
# directed_columns has fewer than 2^n bits), checks it first and raises
# CapExceeded instead of running hot.
SUBSET_CAP = 14


def check_cap(operation: str, size: int, cap: Optional[int], default: int) -> None:
    limit = default if cap is None else cap
    if size > limit:
        raise CapExceeded(operation, size, limit)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order on distinct string labels.

    le holds one bitmask per element: bit j of le[i] is set iff element
    i <= element j, so le[i] is the principal upper set of i.  The
    constructor stores both sequences as tuples and validates
    reflexivity, antisymmetry and transitivity; use build_poset to
    construct from generating pairs.
    """

    elements: tuple[str, ...]
    le: tuple[int, ...]
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pos: dict = field(init=False, repr=False, compare=False)
    # builder -> value, filled by derived(); dies with the poset
    _derived: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "le", tuple(self.le))
        n = len(self.elements)
        if len(set(self.elements)) != n:
            seen = set()
            for lab in self.elements:
                if lab in seen:
                    raise DuplicateLabel(f"duplicate element label {lab!r}")
                seen.add(lab)
        if len(self.le) != n:
            raise InvalidValue("le must have one row mask per element")
        full = (1 << n) - 1
        for i, row in enumerate(self.le):
            if row & ~full:
                raise InvalidValue("le row refers to elements outside the poset")
            if not row >> i & 1:
                raise InvalidValue(
                    f"order must be reflexive; missing {self.elements[i]!r}"
                )
        for i in range(n):
            for j in bits(self.le[i]):
                if j != i and self.le[j] >> i & 1:
                    raise InvalidValue(
                        f"order not antisymmetric between "
                        f"{self.elements[i]!r} and {self.elements[j]!r}"
                    )
                if self.le[j] & ~self.le[i]:
                    raise InvalidValue(
                        f"order not transitive at "
                        f"{self.elements[i]!r} <= {self.elements[j]!r}"
                    )
        object.__setattr__(self, "down", spread([1 << i for i in range(n)], self.le))
        object.__setattr__(
            self, "_pos", {lab: i for i, lab in enumerate(self.elements)}
        )
        object.__setattr__(self, "_derived", {})

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise UnknownLabel(f"unknown element label {label!r}") from None

    def label(self, i: int) -> str:
        return self.elements[i]

    def leq(self, i: int, j: int) -> bool:
        """i <= j by index."""
        return bool(self.le[i] >> j & 1)

    def leq_labels(self, a: str, b: str) -> bool:
        return self.leq(self.index(a), self.index(b))

    def mask_of(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.index(lab)
        return m

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bits(mask))

    def __repr__(self):
        return f"FinitePoset({list(self.elements)!r})"


@dataclass(frozen=True)
class Subset:
    """A subset of one poset's elements, stored as a bitmask."""

    poset: FinitePoset
    mask: int

    def __post_init__(self):
        if self.mask & ~self.poset.full_mask:
            raise InvalidValue("subset mask outside the poset")

    @classmethod
    def of(cls, poset: FinitePoset, labels: Iterable[str]) -> "Subset":
        X = Subset(poset, poset.mask_of(labels))
        return X if cls is Subset else cls(X)

    @classmethod
    def from_indices(cls, poset: FinitePoset, indices: Iterable[int]) -> "Subset":
        m = 0
        for i in indices:
            if not 0 <= i < poset.n:
                raise InvalidValue(f"element index {i} out of range")
            m |= 1 << i
        X = Subset(poset, m)
        return X if cls is Subset else cls(X)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(bits(self.mask))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels_of(self.mask)

    def complement(self) -> "Subset":
        return Subset(self.poset, self.poset.full_mask & ~self.mask)

    def contains(self, label: str) -> bool:
        return bool(self.mask >> self.poset.index(label) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __le__(self, other: "Subset") -> bool:
        same_poset(self.poset, other.poset)
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"{type(self).__name__}({{{', '.join(self.labels)}}})"


# Plans keyed by classes, never by values: they hold a few entries per
# value class and carry nothing from one poset to another.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}
_REFINE_PLANS: dict[tuple[type, type], tuple[tuple[str, ...], tuple[type, ...]]] = {}


def _field_names(cls) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def _refine_plan(cls, base_cls) -> tuple[tuple[str, ...], tuple[type, ...]]:
    """The fields of cls that a base_cls value holds, and the classes of
    cls, base classes first, whose __post_init__ base_cls has not run."""
    plan = _REFINE_PLANS.get((cls, base_cls))
    if plan is None:
        held = getattr(base_cls, "__dataclass_fields__", {})
        names = tuple(f for f in _field_names(cls) if f in held)
        checks = tuple(
            c for c in reversed(cls.__mro__)
            if "__post_init__" in vars(c) and not issubclass(base_cls, c)
        )
        plan = _REFINE_PLANS[cls, base_cls] = names, checks
    return plan


def refine(value, base, *args) -> None:
    """Build value, of a refining subclass, from base: copy base's
    fields, then run with args the __post_init__ of each class of value
    that base is not an instance of, base classes first.  base passed
    its own classes' checks when it was built.  The plan is made once
    per pair of classes; each check is looked up when it runs, so a
    replaced __post_init__ is the one that runs."""
    names, checks = _refine_plan(type(value), type(base))
    for name in names:
        object.__setattr__(value, name, getattr(base, name))
    for cls in checks:
        vars(cls)["__post_init__"](value, *args)


def trusted(cls, base=None, **extra):
    """A cls value with base's fields and those in extra, built with no
    check: for a value whose laws the library has just decided."""
    value = object.__new__(cls)
    for name in _field_names(cls):
        v = extra[name] if name in extra else getattr(base, name)
        object.__setattr__(value, name, v)
    return value


def same_poset(*posets) -> FinitePoset:
    """All arguments must be the identical poset; returns it."""
    first = posets[0]
    for p in posets[1:]:
        if p is not first and p != first:
            raise MixedPosets("operands belong to different posets")
    return first


def family_poset(members, poset: Optional[FinitePoset] = None) -> FinitePoset:
    """The poset shared by a family's members and the explicit poset,
    if given; an empty family needs the explicit poset."""
    if members:
        P = same_poset(*(m.poset for m in members))
        return P if poset is None else same_poset(P, poset)
    if poset is None:
        raise ValueError("an empty family needs an explicit poset")
    return poset


def build_poset(labels: Sequence[str], pairs: Iterable[Sequence[str]]) -> FinitePoset:
    """Construct a poset from labels and generating <= assertions.

    The reflexive transitive closure of the pairs is taken; a cycle
    through distinct elements raises CycleDetected.
    """
    labels = tuple(labels)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"duplicate element label {lab!r}")
        seen.add(lab)
    pos = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rows = [1 << i for i in range(n)]
    for pair in pairs:
        a, b = pair
        if a not in pos:
            raise UnknownLabel(f"unknown element label {a!r} in order pair")
        if b not in pos:
            raise UnknownLabel(f"unknown element label {b!r} in order pair")
        rows[pos[a]] |= 1 << pos[b]
    # Warshall closure on row masks
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rk
    for i in range(n):
        for j in bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                raise CycleDetected(
                    f"cycle through {labels[i]!r} and {labels[j]!r}"
                )
    return FinitePoset(labels, tuple(rows))


def derived(P: FinitePoset, build):
    """build(P), computed on the first call for this poset and kept on
    it, so later calls skip both the work and any hashing of the poset.

    The value is keyed by the builder itself and freed with the poset.
    Builders are cap-free: every public caller checks its cap first, on
    every call, and only then reads the cached value.
    """
    cache = P._derived
    try:
        return cache[build]
    except KeyError:
        value = cache[build] = build(P)
        return value


# ---------------------------------------------------------------------------
# mask-level helpers


def upper_bounds_mask(P: FinitePoset, mask: int) -> int:
    out = P.full_mask
    for i in bits(mask):
        out &= P.le[i]
    return out


def lower_bounds_mask(P: FinitePoset, mask: int) -> int:
    out = P.full_mask
    for i in bits(mask):
        out &= P.down[i]
    return out


def least_of(P: FinitePoset, mask: int) -> Optional[int]:
    """The least element of the subset, or None."""
    for i in bits(mask):
        if P.le[i] & mask == mask:
            return i
    return None


def greatest_of(P: FinitePoset, mask: int) -> Optional[int]:
    for i in bits(mask):
        if P.down[i] & mask == mask:
            return i
    return None


def join_of(P: FinitePoset, mask: int) -> Optional[int]:
    """Least upper bound, or None if it does not exist.

    join_of(empty) is the bottom element when the poset has one.
    """
    return least_of(P, upper_bounds_mask(P, mask))


def meet_of(P: FinitePoset, mask: int) -> Optional[int]:
    """Greatest lower bound; meet_of(empty) is the top when present."""
    return greatest_of(P, lower_bounds_mask(P, mask))


def _mask_word(n: int) -> str:
    """array typecode that holds any n-element subset mask."""
    return "H" if n <= 16 else "I"


def join_meet_tables(P: FinitePoset) -> tuple[bytearray, bytearray]:
    """Join and meet of every subset, indexed by mask; P.n where none
    exists.

    The least (greatest) element is picked once per distinct common
    upper (lower) bound set from bound_sets: O(2^n) table steps for
    all 2^n subsets.
    """
    return (
        _extremum_table(P, P.le, least_of),
        _extremum_table(P, P.down, greatest_of),
    )


def bound_sets(P: FinitePoset, rows: Sequence[int]) -> array:
    """Common bound set of every subset, indexed by mask: the elements
    in rows[i] for every member i.  Rows P.le give the upper bounds,
    rows P.down the lower bounds; the empty subset gets every element.

    A mask's bound set is that of the mask without its highest element,
    cut down to that element's row: O(2^n) table steps for all 2^n
    subsets.
    """
    bounds = array(_mask_word(P.n), [P.full_mask])
    for row in rows:
        bounds.extend([b & row for b in bounds])
    return bounds


def _extremum_table(P: FinitePoset, rows, extremum) -> bytearray:
    bounds = bound_sets(P, rows)
    pick = {}
    for b in set(bounds):
        e = extremum(P, b)
        pick[b] = P.n if e is None else e
    return bytearray(map(pick.__getitem__, bounds))


def image_masks(table: Sequence[int]) -> array:
    """Image of every subset under the map i -> table[i] on an
    n = len(table) element poset, as a mask, indexed by the subset's
    mask.

    The subsets whose highest element is i are the earlier ones with
    table[i] added, so each element costs one big-integer OR over the
    words packed so far.
    """
    word = _mask_word(len(table))
    width = array(word).itemsize
    order = sys.byteorder
    packed = bytes(width)
    for v in table:
        fill = (1 << v).to_bytes(width, order) * (len(packed) // width)
        packed += (
            int.from_bytes(packed, order) | int.from_bytes(fill, order)
        ).to_bytes(len(packed), order)
    return array(word, packed)


def maximal_mask(P: FinitePoset, mask: int) -> int:
    out = 0
    for i in bits(mask):
        if P.le[i] & mask == 1 << i:
            out |= 1 << i
    return out


def minimal_mask(P: FinitePoset, mask: int) -> int:
    out = 0
    for i in bits(mask):
        if P.down[i] & mask == 1 << i:
            out |= 1 << i
    return out


def lower_closure_mask(P: FinitePoset, mask: int) -> int:
    return union_of(P.down, mask)


def union_of(rows: Sequence[int], mask: int) -> int:
    """The union of rows[i] over the members i of mask."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def spread(members: Sequence[int], rows: Sequence[int]) -> tuple[int, ...]:
    """out[v]: the union of members[u] over the u with v in rows[u].
    With members[u] = 1 << u it transposes the relation given by rows."""
    out = [0] * len(rows)
    for u, m in enumerate(members):
        if m:
            for v in bits(rows[u]):
                out[v] |= m
    return tuple(out)


def upper_closure_mask(P: FinitePoset, mask: int) -> int:
    return union_of(P.le, mask)


def least_closed_above(full: int, closed: Iterable[int], mask: int) -> int:
    """The intersection of the closed sets, given by mask, that contain
    mask; the universe full counts as closed."""
    out = full
    for c in closed:
        if mask & ~c == 0:
            out &= c
    return out


def least_closed_table(full: int, closed: Iterable[int]) -> list[int]:
    """least_closed_above of every mask, indexed by mask.

    A mask that is not closed has the same closed supersets as its
    one-point extensions together, so one downward pass over the masks
    takes the meet of those extensions' images: n 2^n steps.
    """
    t = [-1] * (full + 1)
    for c in closed:
        t[c] = c
    for m in range(full, -1, -1):
        if t[m] >= 0:
            continue
        out = full
        rest = full & ~m
        while rest:
            low = rest & -rest
            out &= t[m | low]
            rest ^= low
        t[m] = out
    return t


def is_directed_mask(P: FinitePoset, mask: int) -> bool:
    """Nonempty, and every pair has an upper bound inside the subset."""
    if mask == 0:
        return False
    idx = list(bits(mask))
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if not P.le[idx[a]] & P.le[idx[b]] & mask:
                return False
    return True


def _bottom(P: FinitePoset) -> Optional[int]:
    return least_of(P, P.full_mask)


def _top(P: FinitePoset) -> Optional[int]:
    return greatest_of(P, P.full_mask)


def bottom_index(P: FinitePoset) -> Optional[int]:
    """The least element, or None; found once per poset."""
    return derived(P, _bottom)


def top_index(P: FinitePoset) -> Optional[int]:
    """The greatest element, or None; found once per poset."""
    return derived(P, _top)


def covers(up: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (i, j) where j covers i, read from the up rows of an order
    (bit j of up[i] set iff i <= j).  An element strictly below another
    has the larger up row, so the covers of i are found level by level,
    largest up rows first, each level dropping what lies above it: one
    step per level and cover, not per comparable pair."""
    levels: dict[int, int] = {}
    for i, row in enumerate(up):
        levels[popcount(row)] = levels.get(popcount(row), 0) | 1 << i
    by_size = [levels[size] for size in sorted(levels, reverse=True)]
    out = []
    for i, row in enumerate(up):
        rest, found = row & ~(1 << i), 0
        for level in by_size:
            if low := rest & level:
                found |= low
                rest &= ~union_of(up, low)
        out += [(i, j) for j in bits(found)]
    return out


def upper_sets(rows: Sequence[int]) -> list[int]:
    """Every upper set of a preorder, as masks, ascending, read from its
    up rows (bit j of rows[i] set iff i <= j).

    Elements with the same up row lie above each other, so they form one
    class, in or out together.  The classes are decided in ascending
    size of their row, so those strictly above a class come first, and a
    class may join a set once every element strictly above it is in the
    set: the cost follows the number of upper sets, not 2^n."""
    classes: dict[int, int] = {}
    for i, row in enumerate(rows):
        classes[row] = classes.get(row, 0) | 1 << i
    states = [0]
    for row in sorted(classes, key=popcount):
        members = classes[row]
        above = row & ~members
        states += [m | members for m in states if m & above == above]
    states.sort()
    return states


def top_down(P: FinitePoset) -> tuple[int, ...]:
    """The elements in ascending size of their principal upper sets, ties
    by index, so each follows every element strictly above it: the order
    closure_tables decides elements in.  Read it through
    derived(P, top_down)."""
    return tuple(sorted(range(P.n), key=lambda i: (popcount(P.le[i]), i)))


def closure_tables(
    P: FinitePoset, meets: Optional[Sequence[Sequence[int]]] = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Every closure system with its operator's table c, as (fixpoint
    mask, table) pairs; given P's meet table, only the nuclei.  Cap-free
    and unsorted.  The elements are decided in top_down order, so z's
    strict upper bounds come first: keeping z fixes it, and leaving it
    out sends it to the least kept element above it, which must exist.
    With meets, a branch survives only if c(x meet y) = c(x) meet c(y)
    for every incomparable pair with meet z (comparable pairs hold, as
    c is monotone).  The cost follows the number of leaves, not 2^n."""
    le, n = P.le, P.n
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    if meets is not None:
        for x in range(n):
            for y in range(x + 1, n):
                if not (le[x] >> y & 1 or le[y] >> x & 1):
                    pairs[meets[x][y]].append((x, y))

    def preserved(c, v, zpairs):
        return all(meets[c[x]][c[y]] == v for x, y in zpairs)

    # a table starts as the identity and never changes once in states
    states = [(0, list(range(n)))]
    for z in derived(P, top_down):
        bit, row, zpairs = 1 << z, le[z], pairs[z]
        grown = []
        for kept, c in states:
            if not zpairs or preserved(c, z, zpairs):
                grown.append((kept | bit, c))
            below = least_of(P, kept & row)
            if below is not None and (not zpairs or preserved(c, below, zpairs)):
                t = c.copy()
                t[z] = below
                grown.append((kept, t))
        states = grown
    return [(m, tuple(c)) for m, c in states]


# ---------------------------------------------------------------------------
# public order queries


def order_queries(P: FinitePoset, X: Subset) -> dict:
    """Bounds, extrema and closures of one subset, all in one report."""
    same_poset(P, X.poset)
    m = X.mask
    maxm = maximal_mask(P, m)
    least = least_of(P, m)
    greatest = greatest_of(P, m)
    lc = lower_closure_mask(P, m)
    uc = upper_closure_mask(P, m)
    return {
        "upper_bounds": Subset(P, upper_bounds_mask(P, m)),
        "lower_bounds": Subset(P, lower_bounds_mask(P, m)),
        "maximal_elements": Subset(P, maxm),
        "minimal_elements": Subset(P, minimal_mask(P, m)),
        "least_element": None if least is None else P.label(least),
        "greatest_element": None if greatest is None else P.label(greatest),
        "lower_closure": Subset(P, lc),
        "upper_closure": Subset(P, uc),
        "is_lower_set": lc == m,
        "is_upper_set": uc == m,
    }


def lattice_queries(P: FinitePoset, X: Subset) -> dict:
    """Join, meet and directedness of one subset.

    Joins and meets are None when absent, never approximated.  The empty
    subset is not directed; its join is the bottom element when one
    exists, and dually for the meet.
    """
    same_poset(P, X.poset)
    j = join_of(P, X.mask)
    m = meet_of(P, X.mask)
    return {
        "join": None if j is None else P.label(j),
        "meet": None if m is None else P.label(m),
        "is_directed": is_directed_mask(P, X.mask),
    }


def _directed_subsets(P: FinitePoset) -> tuple[tuple[int, int], ...]:
    out = []
    for t in range(P.n):
        top = 1 << t
        below = P.down[t] & ~top
        sub = below
        while True:
            out.append((sub | top, t))
            if not sub:
                break
            sub = (sub - 1) & below
    out.sort()
    return tuple(out)


def directed_subsets(P: FinitePoset, cap: Optional[int] = None) -> tuple[tuple[int, int], ...]:
    """All directed subsets as (mask, join index) pairs, mask ascending.

    A finite subset is directed iff it is nonempty and has a maximum,
    which is its join.  So the list is built per top t, as t together
    with each subset of the elements strictly below t, and then sorted:
    its cost follows the number of directed subsets, not 2^n.  The
    tests check it against the pairwise definition (is_directed_mask).

    No library route walks this list: every quantifier over directed
    subsets reads directed_columns.  It stays the public enumeration
    and the tests' reference for the columns.
    """
    check_cap("directed-subset enumeration", P.n, cap, SUBSET_CAP)
    return derived(P, _directed_subsets)


def _bit_columns(j: int, size: int) -> int:
    """The k < size with bit j of k set, as a mask."""
    half = 1 << j
    period = half << 1
    unit = ((1 << half) - 1) << half
    return unit * (((1 << size) - 1) // ((1 << period) - 1))


def _directed_columns(P: FinitePoset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    members = [0] * P.n
    tops = [0] * P.n
    width = 0
    for t in range(P.n):
        below = tuple(bits(P.down[t] & ~(1 << t)))
        size = 1 << len(below)
        block = ((1 << size) - 1) << width
        tops[t] = block
        members[t] |= block
        for j, b in enumerate(below):
            members[b] |= _bit_columns(j, size) << width
        width += size
    return tuple(members), tuple(tops)


def directed_columns(
    P: FinitePoset, cap: Optional[int] = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The directed subsets as bit columns: (members, tops), where bit
    k of members[i] is set iff i lies in the k-th directed subset, and
    bit k of tops[t] iff t is its maximum.

    The subsets are numbered block by block per top t: t together with
    each subset of the elements strictly below t, counted in binary over
    them, so each column is a periodic bit pattern per block.  A
    quantifier over every directed subset is then a few ORs and ANDs of
    these columns.  This call is the cap gate of every quantifier over
    directed subsets; only the two primitives below read the columns,
    and directed_masks decodes the positions they return.
    """
    check_cap("directed-subset enumeration", P.n, cap, SUBSET_CAP)
    return derived(P, _directed_columns)


def directed_tops_avoiding(
    P: FinitePoset, tops: int, avoid: int, cap: Optional[int] = None
) -> int:
    """The t in tops that are the maximum of some directed subset with
    no member in avoid, as a mask, read from the columns.  Checked
    against the finite collapse: a directed subset holds its maximum,
    and {t} is directed, so the answer is tops & ~avoid."""
    members, top_cols = directed_columns(P, cap)
    missed = ~union_of(members, avoid)
    found = sum(1 << t for t in bits(tops) if top_cols[t] & missed)
    return agree(
        "tops of directed subsets", P, columns=found, finite_collapse=tops & ~avoid
    )


def directed_join_faults(
    P: FinitePoset, table: Sequence[int], cap: Optional[int] = None
) -> int:
    """The directed_columns positions of the directed subsets D whose
    image under i -> table[i] lacks the join table[t], t the top of D:
    a member maps outside the down row of table[t], or none maps into
    its up row.  That is the law when t is in D, and a column whose
    top is not a member fails, so a broken enumeration still shows.
    Checked against the finite collapse: as D holds its maximum, there
    is no fault iff the map is monotone."""
    members, tops = directed_columns(P, cap)
    faults = 0
    for t, v in enumerate(table):
        outside = inside = 0
        for i, w in enumerate(table):
            if not P.down[v] >> w & 1:
                outside |= members[i]
            if P.le[v] >> w & 1:
                inside |= members[i]
        faults |= tops[t] & (outside | ~inside)
    agree(
        "Scott continuity", table, columns=not faults, monotone=is_monotone(P, table)
    )
    return faults


def _strict_ups(P: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """ups[i] = the indices strictly above i, ascending."""
    return tuple(tuple(bits(row & ~(1 << i))) for i, row in enumerate(P.le))


def is_monotone(P: FinitePoset, table: Sequence[int]) -> bool:
    """x <= y implies table[x] <= table[y]."""
    le = P.le
    for i, ups in enumerate(derived(P, _strict_ups)):
        row = le[table[i]]
        for j in ups:
            if not row >> table[j] & 1:
                return False
    return True


def directed_masks(P: FinitePoset, positions: int) -> list[int]:
    """The member masks of the directed subsets at these positions of
    directed_columns, which a gated read of the columns returned."""
    members, _ = derived(P, _directed_columns)
    return [
        sum(1 << i for i, m in enumerate(members) if m >> k & 1)
        for k in bits(positions)
    ]


def _way_below(P: FinitePoset) -> tuple[int, ...]:
    """wb[x] = mask of all y with x way below y: no directed set that
    misses the upper set of x has its maximum at or above y."""
    full = P.full_mask
    return tuple(
        full & ~lower_closure_mask(P, directed_tops_avoiding(P, full, up, P.n))
        for up in P.le
    )


def way_below_relation(P: FinitePoset, cap: Optional[int] = None) -> tuple[int, ...]:
    check_cap("way-below relation", P.n, cap, SUBSET_CAP)
    return derived(P, _way_below)


def _way_down(P: FinitePoset) -> tuple[int, ...]:
    """down[y] = mask of all x way below y: the columns of _way_below."""
    return spread([1 << x for x in range(P.n)], derived(P, _way_below))


def way_down_sets(P: FinitePoset, cap: Optional[int] = None) -> tuple[int, ...]:
    """For each element y, the mask of the elements way below y.  Runs
    the way_below_relation gate first."""
    way_below_relation(P, cap)
    return derived(P, _way_down)


def way_below(P: FinitePoset, a: str, b: str, cap: Optional[int] = None) -> bool:
    """a is way below b: every directed set with join at or above b
    already contains a member at or above a."""
    wb = way_below_relation(P, cap)
    return bool(wb[P.index(a)] >> P.index(b) & 1)


def way_below_set(P: FinitePoset, b: str, cap: Optional[int] = None) -> Subset:
    """All elements way below b."""
    return Subset(P, way_down_sets(P, cap)[P.index(b)])


def is_continuous_poset(P: FinitePoset, cap: Optional[int] = None) -> bool:
    """Every element is the directed join of the elements way below it."""
    for x, dd in enumerate(way_down_sets(P, cap)):
        if not is_directed_mask(P, dd):
            return False
        if join_of(P, dd) != x:
            return False
    return True


def interpolation_check(P: FinitePoset, cap: Optional[int] = None) -> bool:
    """Whenever x is way below z, some y has x way below y way below z."""
    wb = way_below_relation(P, cap)
    for x in range(P.n):
        for z in bits(wb[x]):
            if not any(wb[y] >> z & 1 for y in bits(wb[x])):
                return False
    return True


# ---------------------------------------------------------------------------
# ceilings and enabledness


def has_ceiling_mask(P: FinitePoset, mask: int) -> bool:
    """Every element of the subset lies below a maximal element of it.

    A property of the induced subposet alone.  The empty subset has a
    ceiling vacuously.
    """
    return mask & ~lower_closure_mask(P, maximal_mask(P, mask)) == 0


def has_ceiling(P: FinitePoset, X: Subset) -> bool:
    same_poset(P, X.poset)
    return has_ceiling_mask(P, X.mask)


def is_default_enabled(P: FinitePoset, cap: Optional[int] = None) -> bool:
    """Every set of lower bounds has a ceiling.

    True for every finite poset; the check is definitional so the claim
    is verified rather than assumed.  Each distinct lower-bound set in
    bound_sets is checked once.
    """
    check_cap("default-enabledness", P.n, cap, SUBSET_CAP)
    return all(
        has_ceiling_mask(P, lb) for lb in set(bound_sets(P, P.down))
    )


def is_default_enabled_within(
    P: FinitePoset, A: Subset, cap: Optional[int] = None
) -> bool:
    """The subposet A supports default reasoning relative to P.

    Two conditions: (i) within A, every set of lower bounds taken in A
    has a ceiling; (ii) for every x in P the part of A at or below x has
    a ceiling.  Each distinct set is checked once; those of (i) are
    bound_sets over the down rows of A's members, cut to A.
    """
    same_poset(P, A.poset)
    check_cap("relative default-enabledness", popcount(A.mask), cap, SUBSET_CAP)
    rows = [P.down[i] for i in bits(A.mask)]
    parts = {b & A.mask for b in bound_sets(P, rows)}
    parts.update(row & A.mask for row in P.down)
    return all(has_ceiling_mask(P, part) for part in parts)


def enabledness(P: FinitePoset, X: Optional[Subset] = None, cap: Optional[int] = None) -> dict:
    """Ceiling and enabledness report for a poset and optional subset."""
    out = {"is_default_enabled": is_default_enabled(P, cap)}
    if X is not None:
        out["has_ceiling"] = has_ceiling(P, X)
        out["is_default_enabled_within"] = is_default_enabled_within(P, X, cap)
    return out


# ---------------------------------------------------------------------------
# structure predicates and subposets


def meet_table(P: FinitePoset) -> Optional[tuple[tuple[int, ...], ...]]:
    """Pairwise meet table, or None when some pair has no meet."""
    return derived(P, _meet_table)


def _meet_table(P: FinitePoset) -> Optional[tuple[tuple[int, ...], ...]]:
    n = P.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            m = greatest_of(P, P.down[i] & P.down[j])
            if m is None:
                return None
            row.append(m)
        rows.append(tuple(row))
    return tuple(rows)


def is_meet_semilattice(P: FinitePoset) -> bool:
    return meet_table(P) is not None


def meet_closure(P: FinitePoset, mask: int) -> int:
    """Least set holding mask and the top that is closed under binary
    meets, by rounds over the meet table until a round adds nothing.

    On a finite lattice these sets are exactly the closure systems
    (Davey & Priestley, Introduction to Lattices and Order, ch. 7), so
    this is the least closure system above mask, found in O(n^2) meets
    per round without listing any closure system.
    """
    mt = meet_table(P)
    top = top_index(P)
    if mt is None or top is None:
        raise NotMeetSemilattice(f"{P!r} lacks a top or a pairwise meet")
    mask |= 1 << top
    while True:
        grown = mask
        for a in bits(mask):
            row = mt[a]
            for b in bits(mask):
                grown |= 1 << row[b]
        if grown == mask:
            return mask
        mask = grown


def join_irreducibles(down: Sequence[int]) -> int:
    """The join-irreducible elements of a finite lattice, as a mask,
    read off its down rows (bit j of down[i] set iff j <= i): the
    elements whose strictly smaller elements have a greatest one.  The
    up rows give the meet-irreducibles."""
    out = 0
    for x, row in enumerate(down):
        below = row & ~(1 << x)
        if any(down[z] & below == below for z in bits(below)):
            out |= 1 << x
    return out


def distributivity_failure(
    down: Sequence[int], join: Sequence[Sequence[int]]
) -> Optional[tuple[int, int]]:
    """Birkhoff's test on a finite lattice given by its down rows and
    its join table: the first pair (x, y) where the join-irreducibles
    below x join y are not those below x or below y, or None.

    A finite lattice is distributive iff there is no such pair, that
    is, iff every join-irreducible is join-prime (Davey and Priestley,
    Introduction to Lattices and Order, ch. 10).  The up rows with the
    meet table run the dual test, over the meet-irreducibles.
    """
    irr = join_irreducibles(down)
    for x, row in enumerate(join):
        dx = down[x]
        for y in range(x, len(row)):
            if (down[row[y]] ^ (dx | down[y])) & irr:
                return x, y
    return None


def subposet(P: FinitePoset, X: Subset) -> tuple[FinitePoset, tuple[int, ...]]:
    """Induced subposet on X, plus the new-index -> old-index table.

    Labels are kept, so elements can be matched up by name as well.
    """
    same_poset(P, X.poset)
    old = tuple(bits(X.mask))
    labels = tuple(P.elements[i] for i in old)
    back = {o: k for k, o in enumerate(old)}
    rows = []
    for o in old:
        row = 0
        for j in bits(P.le[o] & X.mask):
            row |= 1 << back[j]
        rows.append(row)
    return FinitePoset(labels, tuple(rows)), old
