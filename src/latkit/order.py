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

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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


def _byte_indices(offset: int) -> tuple[tuple[int, ...], ...]:
    """t[b] = the indices of the set bits of byte b, plus offset,
    ascending: built by doubling, each bit appended to every entry
    before it."""
    t: list[tuple[int, ...]] = [()]
    for i in range(offset, offset + 8):
        t += [x + (i,) for x in t]
    return tuple(t)


# The set bits of a low and a high byte; together they answer every
# mask below 2^16, at 256 entries each, not 65,536.
_LOW_BYTE = _byte_indices(0)
_HIGH_BYTE = _byte_indices(8)


def bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of mask, ascending.

    A mask below 2^16 is answered as a tuple from the two byte tables;
    a wider one (value rows over many maps, directed-subset positions)
    is walked lazily, lowest bit first, so an early exit stops there."""
    if mask < 0x10000:
        high = mask >> 8
        if high:
            return _LOW_BYTE[mask & 0xFF] + _HIGH_BYTE[high]
        return _LOW_BYTE[mask]
    return _wide_bits(mask)


def _wide_bits(mask: int) -> Iterator[int]:
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
    n: int = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "full_mask", full)
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


def refine(value, base, *args) -> None:
    """Build value, of a refining subclass, from base: copy the fields
    of value's class that base holds, then run with args the
    __post_init__ of each class of value that base is not an instance
    of, base classes first.  base passed its own classes' checks when it
    was built.  Each check is looked up when it runs, so a replaced
    __post_init__ is the one that runs."""
    held = getattr(base, "__dataclass_fields__", {})
    for name in type(value).__dataclass_fields__:
        if name in held:
            object.__setattr__(value, name, getattr(base, name))
    for cls in reversed(type(value).__mro__):
        if "__post_init__" in vars(cls) and not isinstance(base, cls):
            vars(cls)["__post_init__"](value, *args)


def trusted(cls, base=None, **extra):
    """A cls value with base's fields and those in extra, built with no
    check: for a value whose laws the library has just decided."""
    value = object.__new__(cls)
    for name in cls.__dataclass_fields__:
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
    """Join and meet of every subset, indexed by mask.  On a lattice
    every entry is exact; on any poset every entry up to a table's first
    P.n is, and that P.n marks the least subset that lacks one.  The
    library reads them through subset_tables, which builds them once per
    poset and keeps them, with the binary-join columns, on the poset.

    The tables are built by doubling: the subsets whose highest element
    is i are the earlier ones with i added, so each element costs one
    bytes.translate of the table so far through i's column of binary
    joins (meets), O(2^n) table steps for all 2^n subsets.  The meet
    columns are the rows of meet_table when P has one.

    One identity, which holds in every poset, makes this the join:
    when the join j of A exists, the upper bounds of A with i added are
    those of {j, i}, so A with i added has a join iff {j, i} has, and
    they are equal.  Nothing is inferred from finiteness.  Let m be the
    first mask whose entry is P.n (or 2^n if none is).  The entry of
    the empty mask is its join by definition.  A nonempty mask k <= m
    with highest element i is k' with i added, and k' < m; if the entry
    j of k' is its join, the entry of k is the binary join of j and i,
    which is the join of k, or P.n exactly when k has none.  So by
    induction on the mask every entry up to m is the definitional join,
    and m is the least mask that lacks one.  On a lattice every join
    exists, so the induction runs through every mask and every entry
    is exact.  Past m an entry may read P.n where a join exists: a
    missing join of A is carried to each A with elements added.  Any
    entry other than P.n is still the join, by the same step, since P.n
    translates to P.n.  The meet table is the dual.
    """
    n = P.n

    def doubled(rows, extremum, columns):
        def pick(mask):
            e = extremum(P, mask)
            return n if e is None else e

        table = bytearray([pick(P.full_mask)])
        for i, row in enumerate(rows):
            col = columns[i] if columns else [pick(row & r) for r in rows]
            table += table.translate(bytes([*col, n]).ljust(256, b"\0"))
        return table

    return doubled(P.le, least_of, None), doubled(P.down, greatest_of, meet_table(P))


class SubsetTables(NamedTuple):
    """One poset's subset tables (subset_tables): join and meet, the
    join and meet of every subset indexed by its mask, as
    join_meet_tables builds them, and join_columns, where byte u of
    join_columns[v] is the join of {u, v}, padded to 256 bytes for
    bytes.translate."""

    join: bytearray
    meet: bytearray
    join_columns: tuple[bytes, ...]


def _subset_tables(P: FinitePoset) -> SubsetTables:
    join, meet = join_meet_tables(P)
    n = P.n
    columns = tuple(
        bytes(join[1 << u | 1 << v] for u in range(n)).ljust(256, b"\0")
        for v in range(n)
    )
    return SubsetTables(join, meet, columns)


def subset_tables(P: FinitePoset) -> SubsetTables:
    """The join and meet of every subset of P, and the binary-join
    columns image_joins reads, built once per poset and kept on it.

    Every subset of a finite lattice has a join and a meet (Davey &
    Priestley, Introduction to Lattices and Order, ch. 2), so on a
    frame these tables answer every join and meet the frame routes
    ask for: the frame check and the quotient check compare them
    whole, the implication table reads the join of each solution set,
    and the double-implication nucleus the meet of each value set.
    Cap-free, 2^n bytes each: every caller has passed a frame check's
    cap gate first."""
    return derived(P, _subset_tables)


def image_joins(tables: SubsetTables, table: Sequence[int]) -> bytearray:
    """Join of the image of every subset under i -> table[i], indexed
    by the subset's mask, given the subset tables of a lattice on the
    n = len(table) elements: entry m is the join of the image mask of m.

    Built by doubling, as join_meet_tables is: the subsets whose highest
    element is i are the earlier ones with i added, which adds table[i]
    to the image.  By the identity proved there, when the image of A
    has the join j, the image with table[i] added has the join of
    {j, table[i]}, byte j of the kept column join_columns[table[i]]; on
    a lattice every such join exists, so every entry is exact.  Each
    element costs one bytes.translate, and no column is built here.
    """
    out = bytearray(tables.join[:1])
    columns = tables.join_columns
    for v in table:
        out += out.translate(columns[v])
    return out


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
    the closure-system descent (closure_masks, closure_tables) decides
    elements in.  Read it through derived(P, top_down)."""
    return tuple(sorted(range(P.n), key=lambda i: (popcount(P.le[i]), i)))


def incomparable_meets(P: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """The incomparable pairs x < y, as aligned columns of the xs, the
    ys and their meets.  Read it through derived(P, incomparable_meets),
    on a meet-semilattice."""
    mt = meet_table(P)
    pairs = [
        (x, y, mt[x][y])
        for x in range(P.n)
        for y in bits(P.full_mask >> x << x & ~P.le[x] & ~P.down[x])
    ]
    return tuple(zip(*pairs)) or ((), (), ())


def _descend(P: FinitePoset, meets) -> tuple[list[int], list]:
    """The one top-down descent, which closure_masks and closure_tables
    read: the leaves' masks, and given meets their tables, else the
    record of its steps.

    The elements are decided in top_down order, so z's strict upper
    bounds come first: keeping z fixes it, and leaving it out sends it
    to c(z), the least kept element above it, which must exist.  With
    one upper cover u, the kept elements above z are those above u, so
    c(z) = c(u) and every branch may leave z out; with none, no branch
    may; with several, each branch reads its own least_of.  A level's
    decision is the step (z, cover, belows), belows holding each
    branch's c(z) or None.  Without meets the steps are the record and
    no table is built.  With meets the tables are carried, as the prune
    (_pruned) reads them at each z that is the meet of an incomparable
    pair, and there no least_of runs.  On a meet-semilattice those are
    exactly the elements with several upper covers, so the other levels
    all have at most one.  The cost follows the number of leaves, not
    2^n."""
    le = P.le
    pairs: list[list[tuple[int, int]]] = [[] for _ in le]
    if meets is not None:
        for x, y, z in zip(*derived(P, incomparable_meets)):
            pairs[z].append((x, y))
    states = [0]
    # a table starts as the identity and is shared by every branch that
    # keeps the element decided; leaving it out copies the table
    tables = [list(range(P.n))]
    record = []
    for z in derived(P, top_down):
        if pairs[z]:
            states, tables = _pruned(states, tables, z, pairs[z], meets)
            continue
        bit = 1 << z
        above = le[z] & ~bit
        cover = least_of(P, above) if above else None
        belows = None
        if above and cover is None:
            belows = [least_of(P, kept & above) for kept in states]
        step = (z, cover, belows)
        if meets is None:
            record.append(step)
        else:
            tables = _grown_tables(tables, step)
        grown = [kept | bit for kept in states]
        if cover is not None:
            grown += states
        elif belows is not None:
            grown += [kept for kept, below in zip(states, belows) if below is not None]
        states = grown
    return states, tables if meets is not None else record


def _pruned(states, tables, z, zpairs, meets):
    """One level of the nuclei descent, at z the meet of the pairs
    zpairs: a branch survives only if c(x meet y) = c(x) meet c(y) on
    each (comparable pairs hold, c being monotone).  It keeps z if every
    pair meet v is z, and leaves z out with c(z) = v if all are one v
    other than z, with no least_of.  For v > z is kept: it is c(x), c(y)
    or, were they incomparable, their meet, which level v could only
    keep.  And v lies below every kept w > z: z has two upper covers u,
    u' (a lone one would lie below x meet y), u meet u' = z, and w lies
    above one, say u, so w >= c(u) >= c(u) meet c(u') = v."""
    grown, gt = [], []
    for kept, t in zip(states, tables):
        ms = {meets[t[x]][t[y]] for x, y in zpairs}
        if len(ms) == 1:
            (v,) = ms
            if v == z:
                grown.append(kept | 1 << z)
                gt.append(t)
            else:
                grown.append(kept)
                c = t.copy()
                c[z] = v
                gt.append(c)
    return grown, gt


def _grown_tables(tables: list, step: tuple) -> list:
    """One step of the descent on tables: each keeps z, then a copy of
    each that may leave z out sends it to c(cover) or to its below."""
    z, cover, belows = step
    grown = tables.copy()
    if cover is not None:
        for t in tables:
            c = t.copy()
            c[z] = t[cover]
            grown.append(c)
    elif belows is not None:
        for t, below in zip(tables, belows):
            if below is not None:
                c = t.copy()
                c[z] = below
                grown.append(c)
    return grown


def closure_masks(P: FinitePoset) -> tuple[list[int], tuple]:
    """Every closure system, as a mask, unsorted, and the record of the
    descent that found them (_descend), from which recorded_tables
    builds their tables on request.  No table is built here.  Cap-free."""
    masks, steps = _descend(P, None)
    return masks, (masks, steps)


def recorded_tables(
    P: FinitePoset, record: tuple
) -> list[tuple[int, tuple[int, ...]]]:
    """The (fixpoint mask, table) leaves of the descent that left this
    record (closure_masks), in its order: its steps replayed on tables,
    one list copy per branch that leaves an element out, as the descent
    would have made them, and no least_of."""
    masks, steps = record
    tables = [list(range(P.n))]
    for step in steps:
        tables = _grown_tables(tables, step)
    return list(zip(masks, map(tuple, tables)))


def closure_tables(
    P: FinitePoset, meets: Optional[Sequence[Sequence[int]]] = None
) -> list[tuple[int, tuple[int, ...]]]:
    """Every closure system with its operator's table, as (fixpoint
    mask, table) pairs; given P's meet table, only the nuclei, whose
    prune reads the tables as the descent carries them.  Cap-free and
    unsorted."""
    if meets is None:
        return recorded_tables(P, closure_masks(P)[1])
    masks, tables = _descend(P, meets)
    return list(zip(masks, map(tuple, tables)))


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


def _with_bit(j: int, size: int) -> int:
    """The k < size with bit j of k set, as a mask: runs of 2^j zeros
    and 2^j ones, size a multiple of 2^(j + 1)."""
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
            members[b] |= _with_bit(j, size) << width
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

    A fault depends on t only through its value v = table[t], so the
    tops are grouped by value.  One pass over the table unions the
    member and top columns over each preimage row (the i with
    table[i] = w), reading every column once.  Then, for each value v
    in the image, the members mapped outside down(v), and those mapped
    into up(v), are unions of those per-value columns: O(|image|) ORs
    per value, where a loop per top over the whole table made 2n^2.
    The fault bits are the same.  Checked against the finite collapse:
    as D holds its maximum, there is no fault iff the map is monotone."""
    members, tops = directed_columns(P, cap)
    # the member and top columns unioned over each preimage row
    mapped, topped = [0] * P.n, [0] * P.n
    image = 0
    for i, w in enumerate(table):
        mapped[w] |= members[i]
        topped[w] |= tops[i]
        image |= 1 << w
    faults = 0
    for v in bits(image):
        outside = union_of(mapped, image & ~P.down[v])
        inside = union_of(mapped, image & P.le[v])
        faults |= topped[v] & (outside | ~inside)
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


def solution_sets(P: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """sols[a][b] = the mask of every x with x meet a <= b: the union of
    the preimages under - meet a of the elements below b.  Read it
    through derived(P, solution_sets), on a meet-semilattice."""
    mt = meet_table(P)
    sols = []
    for a in range(P.n):
        pre = [0] * P.n
        for x, row in enumerate(mt):
            pre[row[a]] |= 1 << x
        sols.append(tuple(union_of(pre, below) for below in P.down))
    return tuple(sols)


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
