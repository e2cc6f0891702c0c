"""Order-theoretic queries on finite posets: the top-down descent,
directed subsets, way-below, ceilings and enabledness.

All the exhaustive machinery works on masks; the public classes
translate to and from labels at the boundary.  The poset layer below it
(latkit.poset: the value base, FinitePoset, Subset, derived, the mask
helpers, the subset and meet tables, covers) is re-exported here, so
each of its names also reads as latkit.order.<name>.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bitset import bits, image, preimages, spread, union_of, with_bit
from .errors import CapExceeded, NotMeetSemilattice, agree
from .poset import (  # noqa: F401 (the layer, re-exported)
    FinitePoset, Subset, SubsetTables, Value, bottom_index, bound_sets,
    build_poset, covers, derived, family_poset, greatest_of, image_joins,
    is_directed_mask, is_meet_semilattice, join_meet_tables, join_of,
    least_of, lower_bounds_mask, lower_closure_mask, maximal_mask, meet_of,
    meet_table, minimal_mask, refine, same_poset, subset_tables, top_index,
    trusted, upper_bounds_mask, upper_closure_mask,
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


# ---------------------------------------------------------------------------
# the top-down descent


def top_down(P: FinitePoset) -> tuple[int, ...]:
    """The elements in ascending size of their principal upper sets, ties
    by index, so each follows every element strictly above it: the order
    the closure-system descent (closure_masks, closure_tables) decides
    elements in.  Read it through derived(P, top_down)."""
    return tuple(sorted(range(P.n), key=lambda i: (P.le[i].bit_count(), i)))


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


def _descend(P: FinitePoset, meets, carry: bool) -> tuple[list[int], list]:
    """The one top-down descent, which closure_masks and closure_tables
    read: the leaves' fixpoint masks and, when it carries them, their
    tables.

    The elements are decided in top_down order, so z's strict upper
    bounds come first: keeping z fixes it, and leaving it out sends it
    to c(z), the least kept element above it, which must exist.  With
    one upper cover u, the kept elements above z are those above u, so
    c(z) = c(u) and every branch may leave z out; with none, no branch
    may; with several, each branch reads its own least_of, a kept
    element, which its table fixes.  So a branch that leaves z out reads
    c(z) from its own table at one source, the cover or its least_of.
    A table starts as the identity and is shared by every branch that
    keeps the element decided; leaving it out copies the table.  Without
    carry no table is built.  Given meets, the prune (_pruned) reads the
    tables at each z that is the meet of an incomparable pair, and there
    no least_of runs.  On a meet-semilattice those are exactly the
    elements with several upper covers, so the other levels all have at
    most one.  The cost follows the number of leaves, not 2^n."""
    le = P.le
    pairs: list[list[tuple[int, int]]] = [[] for _ in le]
    if meets is not None:
        for x, y, z in zip(*derived(P, incomparable_meets)):
            pairs[z].append((x, y))
    states = [0]
    tables = [list(range(P.n))] if carry else []
    for z in derived(P, top_down):
        if pairs[z]:
            states, tables = _pruned(states, tables, z, pairs[z], meets)
            continue
        bit = 1 << z
        above = le[z] & ~bit
        cover = least_of(P, above) if above else None
        if above and cover is None:
            sources = [least_of(P, kept & above) for kept in states]
        else:
            sources = [cover] * len(states)
        grown = [kept | bit for kept in states]
        for i, s in enumerate(sources):
            if s is not None:
                grown.append(states[i])
                if carry:
                    c = tables[i].copy()
                    c[z] = c[s]
                    tables.append(c)
        states = grown
    return states, tables


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


def closure_masks(P: FinitePoset) -> list[int]:
    """Every closure system of P, as a mask, unsorted: the descent with
    no table built.  Cap-free."""
    return _descend(P, None, False)[0]


def closure_tables(
    P: FinitePoset, meets: Optional[Sequence[Sequence[int]]] = None
) -> list[tuple[int, tuple[int, ...]]]:
    """The descent's (fixpoint mask, table) leaves: every closure
    system of P with its operator's table, or, given P's meet table,
    every nucleus, the descent pruned on meet preservation as it
    carries the tables.  Cap-free and unsorted."""
    masks, tables = _descend(P, meets, True)
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
            members[b] |= with_bit(j, size) << width
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
    for i, w in enumerate(table):
        mapped[w] |= members[i]
        topped[w] |= tops[i]
    values = image(table)
    faults = 0
    for v in bits(values):
        outside = union_of(mapped, values & ~P.down[v])
        inside = union_of(mapped, values & P.le[v])
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
    check_cap("relative default-enabledness", A.mask.bit_count(), cap, SUBSET_CAP)
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
# meet-derived sets and subposets


def solution_sets(P: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """sols[a][b] = the mask of every x with x meet a <= b: the union of
    the preimages under - meet a of the elements below b.  Read it
    through derived(P, solution_sets), on a meet-semilattice."""
    return tuple(
        tuple(union_of(pre, below) for below in P.down)
        for pre in (preimages(col, P.n) for col in zip(*meet_table(P)))
    )

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
    while (grown := pair_meets(mt, mask)) != mask:
        mask = grown
    return mask


def pair_meets(mt: Sequence[Sequence[int]], mask: int) -> int:
    """The mask of the meets of the pairs of members of mask, each
    unordered pair read once from the meet table mt; it holds mask,
    each member being its own meet."""
    members = tuple(bits(mask))
    return image(mt[a][b] for i, a in enumerate(members) for b in members[i:])


def subposet(P: FinitePoset, X: Subset) -> tuple[FinitePoset, tuple[int, ...]]:
    """Induced subposet on X, plus the new-index -> old-index table.

    Labels are kept, so elements can be matched up by name as well.
    The restriction of P's checked order is an order, so it is built
    through FinitePoset._finish with no second check.
    """
    same_poset(P, X.poset)
    old = tuple(bits(X.mask))
    labels = tuple(P.elements[i] for i in old)
    back = {o: k for k, o in enumerate(old)}
    rows = tuple(image(back[j] for j in bits(P.le[o] & X.mask)) for o in old)
    return object.__new__(FinitePoset)._finish(labels, rows), old
