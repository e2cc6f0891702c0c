"""Every small input, up to isomorphism, from the standard library alone.

A poset on n elements is given by its up rows: bit j of rows[i] is set
iff i <= j.  Three generators:

- posets(n): one canonical form per isomorphism class of posets on n
  elements.  Every poset on n + 1 elements is one on n elements with a
  new maximal element whose strict down-set is a down-set of it, so the
  classes grow by adding such an element over each down-set.
- frames(size): the finite frames of at most `size` elements.  A finite frame is
  a finite distributive lattice, the down-sets of its join-irreducibles
  (Birkhoff), so it is the down-set lattice of exactly one poset up to
  isomorphism.  A new maximal element adds at least one down-set, so the
  posets with few enough down-sets grow from posets that have fewer.
- moore_families(k): every Moore family on k points (a set of subsets
  that holds all k points and every intersection of its members), as
  its closure operator on the powerset: a table indexed by mask.

The counts are OEIS A000112 (posets), A006982 (distributive lattices)
and A102896 (Moore families).
"""

from functools import cache
from itertools import permutations, product


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def down_sets(rows):
    """Every down-set of the poset, as a mask, ascending."""
    n = len(rows)
    downs = [sum(1 << j for j in range(n) if rows[j] >> i & 1) for i in range(n)]
    return [
        m for m in range(1 << n) if all(downs[i] & ~m == 0 for i in _bits(m))
    ]


def canonical(rows):
    """The least relabelled rows over the orderings that keep the
    elements sorted by a colour refined from their up and down rows, an
    invariant of the isomorphism class, so isomorphic posets get one
    form."""
    n = len(rows)
    downs = [sum(1 << j for j in range(n) if rows[j] >> i & 1) for i in range(n)]
    colour = [0] * n
    while True:
        sig = [
            (
                colour[i],
                tuple(sorted(colour[j] for j in _bits(rows[i]))),
                tuple(sorted(colour[j] for j in _bits(downs[i]))),
            )
            for i in range(n)
        ]
        keys = sorted(set(sig))
        refined = [keys.index(s) for s in sig]
        if len(keys) == len(set(colour)):
            break
        colour = refined
    cells = [[i for i in range(n) if colour[i] == c] for c in sorted(set(colour))]
    best = None
    for parts in product(*map(permutations, cells)):
        order = [i for part in parts for i in part]
        pos = {old: new for new, old in enumerate(order)}
        code = tuple(sum(1 << pos[j] for j in _bits(rows[i])) for i in order)
        if best is None or code < best:
            best = code
    return best


def _grow(level, keep=lambda rows: True):
    """The canonical forms of the posets with one more element than
    those of level, where keep holds."""
    grown = set()
    for rows in level:
        n = len(rows)
        for d in down_sets(rows):
            new = [r | 1 << n if d >> i & 1 else r for i, r in enumerate(rows)]
            grown.add(canonical(new + [1 << n]))
    return sorted(rows for rows in grown if keep(rows))


@cache
def posets(n):
    """Every poset on n elements up to isomorphism, as up rows."""
    return [()] if n == 0 else _grow(posets(n - 1))


@cache
def frames(size):
    """Every frame of at most `size` elements up to isomorphism, as the
    up rows of a down-set lattice ordered by inclusion, in order of
    size."""
    level, bases = [()], [()]
    while level:
        level = _grow(level, lambda rows: len(down_sets(rows)) <= size)
        bases += level
    out = []
    for rows in bases:
        ds = down_sets(rows)
        out.append(tuple(sum(1 << j for j, e in enumerate(ds) if d & ~e == 0) for d in ds))
    return sorted(out, key=len)


@cache
def moore_families(k):
    """Every Moore family on k points, as its closure table: entry m is
    the least member holding mask m.  The masks are decided from the
    full set down, so a set's supersets are decided before it, and a
    set that is the intersection of the kept ones above it is kept."""
    full = (1 << k) - 1
    families = []

    def walk(s, kept):
        if s < 0:
            families.append(kept)
            return
        meet = full
        for t in kept:
            if t & s == s:
                meet &= t
        walk(s - 1, kept + [s])
        if meet != s:
            walk(s - 1, kept)

    walk(full, [])
    tables = []
    for kept in families:
        table = []
        for m in range(full + 1):
            c = full
            for t in kept:
                if t & m == m:
                    c &= t
            table.append(c)
        tables.append(tuple(table))
    return tables
