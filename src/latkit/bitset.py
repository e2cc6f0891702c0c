"""Subsets as bitmasks, families of subsets as bit columns.

A subset of n indexed points is a mask, bit i set iff point i is in it;
a relation is a sequence of rows, rows[i] the mask of the points related
to i.  A column is a 2^n-bit int whose bit m stands for the subset with
mask m: a family of subsets, or one bit of every entry of a table
indexed by mask (bit_columns).  Adding a point to every member of a
family is one shift of its column (add_point).  Each bit idiom is
written here once.  Nothing here reads a poset or imports from latkit.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Iterator, Optional, Sequence


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


def lowest(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask: its least
    member, or the least mask of a column."""
    return (mask & -mask).bit_length() - 1


def mask_word(n: int) -> str:
    """array typecode that holds any n-element subset mask."""
    return "H" if n <= 16 else "I"


def union_of(rows: Sequence[int], mask: int) -> int:
    """The union of rows[i] over the members i of mask."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def image(values: Iterable[int]) -> int:
    """The mask of the values: bit v is set iff some value is v."""
    out = 0
    for v in values:
        out |= 1 << v
    return out


def fixpoints(table: Sequence[int]) -> int:
    """The mask of the i with table[i] == i."""
    out = 0
    for i, v in enumerate(table):
        if i == v:
            out |= 1 << i
    return out


def preimages(values: Sequence[int], size: int) -> list[int]:
    """out[v], for v < size: the mask of the i with values[i] == v."""
    out = [0] * size
    for i, v in enumerate(values):
        out[v] |= 1 << i
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


def inclusion_rows(masks: Sequence[int]) -> tuple[int, ...]:
    """Row i: the j with masks[i] a subset of masks[j]."""
    return tuple(
        sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks
    )


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
    for row in sorted(classes, key=int.bit_count):
        members = classes[row]
        above = row & ~members
        states += [m | members for m in states if m & above == above]
    states.sort()
    return states


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


def with_bit(j: int, size: int) -> int:
    """The k < size with bit j of k set, as a mask: runs of 2^j zeros
    and 2^j ones, size a multiple of 2^(j + 1).  With size 2^n it is the
    column of the masks holding point j."""
    half = 1 << j
    period = half << 1
    unit = ((1 << half) - 1) << half
    return unit * (((1 << size) - 1) // ((1 << period) - 1))


# _BIT_DIGITS[i] maps a byte to the digit "1" if its bit i is set, else
# "0": runs of 2^i zeros and 2^i ones
_BIT_DIGITS = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


def bit_columns(table: Sequence[int], n: int) -> tuple[int, ...]:
    """Column j of a table of 2^n masks: the 2^n-bit int whose bit m is
    set iff bit j of table[m] is.

    The table is packed little-endian and cut into byte lanes, lane k
    holding bits 8k to 8k + 7 of every entry, each reversed so that mask
    0 is the last digit.  Each column is then one bytes.translate of its
    lane into binary digits and one int(..., 2).
    """
    width = (n + 7) // 8
    packed = array(next(c for c in "BHIQ" if array(c).itemsize >= width), table)
    if sys.byteorder == "big":
        packed.byteswap()
    raw = packed.tobytes()
    lanes = [raw[k :: packed.itemsize][::-1] for k in range(width)]
    return tuple(
        int(lanes[j >> 3].translate(_BIT_DIGITS[j & 7]), 2) for j in range(n)
    )


def add_point(col: int, e: int, has: Sequence[int]) -> int:
    """The column of the masks m + e, for the masks m of col without e:
    has[e] is the column of the masks holding e (with_bit), and adding e
    to a mask without it adds 2^e to the mask, so it is one shift."""
    return (col & ~has[e]) << (1 << e)


def project(masks: int, outside: int, has: Sequence[int]) -> int:
    """Bit m of the result is bit m & ~outside of masks: each point in
    outside is cleared, then copied up from the masks without it."""
    for e in bits(outside):
        masks = masks & ~has[e] | add_point(masks, e, has)
    return masks


def subset_unions(table: list[int], n: int) -> list[int]:
    """table, indexed by mask over n points, with entry m replaced by
    the union of the entries at every subset of m (the zeta transform),
    one point at a time: n 2^n steps, in place."""
    for e in range(n):
        bit = 1 << e
        for m in range(len(table)):
            if m & bit:
                table[m] |= table[m ^ bit]
    return table
