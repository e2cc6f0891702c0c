"""The poset layer: finite posets, their subsets and the tables read
from them.

Elements are string labels.  The order of the input label list is
preserved and fixes iteration and output order everywhere else in the
library, so results are deterministic.  A subset is a bitmask over
element indices, read with the poset-free kernels of latkit.bitset.

This module holds the immutable value base, FinitePoset and Subset, the
per-poset cache (derived), the mask helpers, the subset and meet tables
and covers.  It imports nothing from latkit.order, which builds the
descent, the directed columns and the queries on this layer and
re-exports it.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bitset import bits, image, mask_word, preimages, spread, union_of
from .errors import CycleDetected, DuplicateLabel, InvalidValue, MixedPosets, UnknownLabel


class Value:
    """An immutable value, the base of latkit's value classes.

    A class lists its constructor fields in _fields, in signature order,
    and the fields its checks set in _check_fields.  Its own __init__
    sets the constructor fields with object.__setattr__ and then calls
    self.__post_init__(), the check, if the class has one.  Two values
    are equal when they have one class and equal constructor fields,
    and hash by those fields; the fields a check sets are derived from
    them and neither compared nor hashed.  Instances keep a __dict__, so
    pickle, copy.copy and functools.cached_property work on them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _check_fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every field refine and trusted copy, and the comparison key
        cls._names = cls._fields + cls._check_fields
        if cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}"
        )


def refine(value, base, *args) -> None:
    """Build value, of a refining subclass, from base: copy the fields
    of value's class that base holds, then run with args the
    __post_init__ of each class of value that base is not an instance
    of, base classes first.  base passed its own classes' checks when it
    was built.  Each check is looked up when it runs, so a replaced
    __post_init__ is the one that runs."""
    held = getattr(base, "_names", ())
    for name in type(value)._names:
        if name in held:
            object.__setattr__(value, name, getattr(base, name))
    for cls in reversed(type(value).__mro__):
        if "__post_init__" in vars(cls) and not isinstance(base, cls):
            vars(cls)["__post_init__"](value, *args)


def trusted(cls, base=None, **extra):
    """A cls value with base's fields and those in extra, built with no
    check: for a value whose laws the library has just decided."""
    value = object.__new__(cls)
    for name in cls._names:
        v = extra[name] if name in extra else getattr(base, name)
        object.__setattr__(value, name, v)
    return value


class FinitePoset(Value):
    """A finite partial order on distinct string labels.

    le holds one bitmask per element: bit j of le[i] is set iff element
    i <= element j, so le[i] is the principal upper set of i.  The
    constructor stores both sequences as tuples and validates
    reflexivity, antisymmetry and transitivity; build_poset builds from
    generating pairs, checks those once and skips these checks.
    """

    elements: tuple[str, ...]
    le: tuple[int, ...]
    n: int
    full_mask: int
    down: tuple[int, ...]
    _pos: dict
    # builder -> value, filled by derived(); dies with the poset
    _derived: dict

    _fields = ("elements", "le")
    _check_fields = ("n", "full_mask", "down", "_pos", "_derived")

    def __init__(self, elements: Sequence[str], le: Sequence[int]):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "le", le)
        self.__post_init__()

    def __post_init__(self):
        elements, le = tuple(self.elements), tuple(self.le)
        _require_distinct(elements)
        n = len(elements)
        if len(le) != n:
            raise InvalidValue("le must have one row mask per element")
        full = (1 << n) - 1
        for i, row in enumerate(le):
            if row & ~full:
                raise InvalidValue("le row refers to elements outside the poset")
            if not row >> i & 1:
                raise InvalidValue(f"order must be reflexive; missing {elements[i]!r}")
        for i in range(n):
            for j in bits(le[i]):
                if j != i and le[j] >> i & 1:
                    raise InvalidValue(
                        f"order not antisymmetric between "
                        f"{elements[i]!r} and {elements[j]!r}"
                    )
                if le[j] & ~le[i]:
                    raise InvalidValue(
                        f"order not transitive at {elements[i]!r} <= {elements[j]!r}"
                    )
        self._finish(elements, le)

    def _finish(self, elements: tuple[str, ...], le: tuple[int, ...]):
        # every field, in the order of _names, from a partial order
        n = len(elements)
        down = spread([1 << i for i in range(n)], le)
        pos = {lab: i for i, lab in enumerate(elements)}
        for name, v in zip(self._names, (elements, le, n, (1 << n) - 1, down, pos, {})):
            object.__setattr__(self, name, v)
        return self

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
        return image(map(self.index, labels))

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in bits(mask))

    def __repr__(self):
        return f"FinitePoset({list(self.elements)!r})"


class Subset(Value):
    """A subset of one poset's elements, stored as a bitmask."""

    poset: FinitePoset
    mask: int

    _fields = ("poset", "mask")

    def __init__(self, poset: FinitePoset, mask: int):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "mask", mask)
        self.__post_init__()

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
        return self.mask.bit_count()

    def __le__(self, other: "Subset") -> bool:
        same_poset(self.poset, other.poset)
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"{type(self).__name__}({{{', '.join(self.labels)}}})"


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
        raise InvalidValue("an empty family needs an explicit poset")
    return poset


def build_poset(labels: Sequence[str], pairs: Iterable[Sequence[str]]) -> FinitePoset:
    """Construct a poset from labels and generating <= assertions.

    The reflexive transitive closure of the pairs is taken; a cycle
    through distinct elements raises CycleDetected.
    """
    labels = tuple(labels)
    _require_distinct(labels)
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
    # a reflexive, transitive and acyclic relation: a partial order
    return object.__new__(FinitePoset)._finish(labels, tuple(rows))


def _require_distinct(labels: tuple[str, ...]) -> None:
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(f"duplicate element label {lab!r}")
        seen.add(lab)


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
    bounds = array(mask_word(P.n), [P.full_mask])
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


def upper_closure_mask(P: FinitePoset, mask: int) -> int:
    return union_of(P.le, mask)


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
    levels = preimages([row.bit_count() for row in up], len(up) + 1)
    by_size = [level for level in reversed(levels) if level]
    out = []
    for i, row in enumerate(up):
        rest, found = row & ~(1 << i), 0
        for level in by_size:
            if low := rest & level:
                found |= low
                rest &= ~union_of(up, low)
        out += [(i, j) for j in bits(found)]
    return out


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
