"""The output-sized enumerations against the scans they replaced.

directed_subsets, closure_system_masks, default_rules and
enumerate_nuclei each build their list from the finite structure (a
directed set is one with a maximum; closure systems by a top-down
descent; default rules per distinct lower-bound set; nuclei by a
descent that prunes on meet preservation).  The scans below are the
definitions, kept here as references: every list must match its scan
exactly, order included, on every fixture, the empty poset, every poset
given by a set of upper-triangular pairs on 5 elements (also with the
labels listed in a shuffled order) and random posets of up to 10
elements.  The nuclei are compared on those with all binary meets, on
random frames and on larger grids.

frame_of_nuclei_check decides the lattice of nuclei on pairs of nuclei
and two distributivity tests; the check of every family of nuclei it
replaced is kept here for up to 8 nuclei.

The quantifiers over directed subsets (directed_closed,
inaccessible_by_directed_joins, is_compact_quotient, the way-below
relation, dj, Scott continuity and the preframe stage of the frame
check) read bit columns instead of walking the list, and filters come
from a descent over upper sets; the per-subset loops and the 2^n
filter scan they replaced are kept here too.
"""

import itertools
import random

import pytest

from corpus import random_frame, random_meet_semilattice, random_poset
from latkit import fixtures as fx
from latkit.closure import _closure_table, closure_system_masks, duality
from latkit.heyting import enumerate_nuclei, frame_of_nuclei_check
from latkit.hmj import _is_filter_mask, enumerate_filters, is_compact_quotient
from latkit.maps import (
    directed_closed,
    inaccessible_by_directed_joins,
    is_scott_continuous,
    preserves_binary_meets,
)
from latkit.order import (
    Subset,
    bits,
    build_poset,
    directed_columns,
    directed_subsets,
    greatest_of,
    has_ceiling_mask,
    is_default_enabled,
    is_directed_mask,
    is_meet_semilattice,
    join_of,
    lower_bounds_mask,
    maximal_mask,
    meet_table,
    top_index,
    way_below_relation,
)
from latkit.rules import default_rules


def reference_directed_subsets(P):
    out = []
    for mask in range(1, P.full_mask + 1):
        if is_directed_mask(P, mask):
            g = greatest_of(P, mask)
            # a finite directed set has a maximum, which is its join
            assert g is not None
            out.append((mask, g))
    return tuple(out)


def decode_directed_columns(P):
    """The (mask, top) pairs that the columns of directed_columns
    describe, one per bit position, in that order."""
    members, tops = directed_columns(P, P.n)
    width = max((col.bit_length() for col in tops), default=0)
    out = []
    for k in range(width):
        mask = sum(1 << i for i in range(P.n) if members[i] >> k & 1)
        (top,) = [t for t in range(P.n) if tops[t] >> k & 1]
        out.append((mask, top))
    return out


def reference_directed_closed(P, mask):
    for dmask, top in directed_subsets(P, P.n):
        if dmask & ~mask == 0 and not mask >> top & 1:
            return False
    return True


def reference_inaccessible(P, mask):
    for dmask, top in directed_subsets(P, P.n):
        if mask >> top & 1 and not dmask & mask:
            return False
    return True


def reference_way_below(P):
    wb = list(P.le)
    for dmask, top in directed_subsets(P, P.n):
        for x in range(P.n):
            if not P.le[x] & dmask:
                wb[x] &= ~P.down[top]
    return tuple(wb)


def reference_compact_quotient(P, nu):
    t, fm = top_index(P), nu.fix_mask
    for dmask, dtop in directed_subsets(P, P.n):
        if dmask & ~fm == 0 and nu.table[dtop] == t and not dmask >> t & 1:
            return False
    return True


def reference_scott_faults(P, table):
    """The directed subsets, mask ascending, whose image under the map
    i -> table[i] does not have the join table[max D]: the per-subset
    Scott loop, one join_of per subset."""
    out = []
    for dmask, top in directed_subsets(P, P.n):
        img = 0
        for i in bits(dmask):
            img |= 1 << table[i]
        if join_of(P, img) != table[top]:
            out.append(dmask)
    return out


def reference_scott_continuous(f):
    return not reference_scott_faults(f.poset, f.table)


def reference_dj(P, mask):
    out = 0
    for dmask, top in directed_subsets(P, P.n):
        if dmask & ~mask == 0:
            out |= 1 << top
    return out


def reference_filter_masks(P):
    t, mt = top_index(P), meet_table(P)
    return [
        m for m in range(P.full_mask + 1) if _is_filter_mask(P, t, mt, m)
    ]


def assert_directed_routes_match(P, masks=None):
    """Columns decode to the list; every column route matches its
    per-subset loop on every mask (or on the masks given)."""
    decoded = decode_directed_columns(P)
    assert sorted(decoded) == list(directed_subsets(P, P.n)), P
    assert way_below_relation(P, P.n) == reference_way_below(P), P
    for m in range(P.full_mask + 1) if masks is None else masks:
        X = Subset(P, m)
        assert directed_closed(X, P.n) == reference_directed_closed(P, m)
        assert inaccessible_by_directed_joins(X, P.n) == reference_inaccessible(
            P, m
        )


def assert_frame_routes_match(P):
    """Filters in mask order and compactness of every nucleus."""
    got = [F.mask for F in enumerate_filters(P, P.n)]
    assert got == reference_filter_masks(P), P
    for nu in enumerate_nuclei(P, P.n):
        assert is_compact_quotient(P, nu, P.n) == reference_compact_quotient(
            P, nu
        )


def reference_closure_system_masks(P):
    return tuple(
        m for m in range(P.full_mask + 1) if _closure_table(P, m) is not None
    )


def reference_default_rules(P):
    return [
        (bmask, h)
        for bmask in range(P.full_mask + 1)
        for h in bits(maximal_mask(P, lower_bounds_mask(P, bmask)))
    ]


def reference_default_enabled(P):
    return all(
        has_ceiling_mask(P, lower_bounds_mask(P, m))
        for m in range(P.full_mask + 1)
    )


def reference_nuclei(P, cap=None):
    # every closure system's operator, kept iff it preserves binary
    # meets: the definition of a nucleus
    ops = [duality(Subset(P, m)) for m in closure_system_masks(P, cap)]
    kept = [op for op in ops if preserves_binary_meets(op.map)]
    kept.sort(key=lambda op: (-op.fix_mask.bit_count(), op.fix_mask))
    return [op.table for op in kept]


def reference_frame_of_nuclei(L):
    """The frame-of-nuclei report from every family of nuclei: its
    greatest lower and least upper bound by a scan of the pointwise
    order, its join by fixpoint intersection, its meet pointwise when
    nonempty, and each nucleus's meet distributing over its join."""
    nucs = enumerate_nuclei(L)
    k, full = len(nucs), L.full_mask
    mt = meet_table(L)
    tables = [nu.table for nu in nucs]
    leq = [
        [all(L.le[x] >> y & 1 for x, y in zip(a, b)) for b in tables]
        for a in tables
    ]

    def glb(fam):
        cand = [m for m in range(k) if all(leq[m][i] for i in fam)]
        return next(c for c in cand if all(leq[o][c] for o in cand))

    def lub(fam):
        cand = [m for m in range(k) if all(leq[i][m] for i in fam)]
        return next(c for c in cand if all(leq[c][o] for o in cand))

    def joined(fixes):
        fm = full
        for f in fixes:
            fm &= f
        return duality(Subset(L, fm)).table

    def met(a, b):
        return tuple(mt[x][y] for x, y in zip(a, b))

    def fix_mask(t):
        return sum(1 << z for z, v in enumerate(t) if z == v)

    families = [tuple(bits(m)) for m in range(1 << k)]
    for fam in families:
        jt = joined(nucs[i].fix_mask for i in fam)
        assert jt == tables[lub(fam)]
        if fam:
            meets = tables[fam[0]]
            for i in fam[1:]:
                meets = met(meets, tables[i])
            assert meets == tables[glb(fam)]
        for tb in tables:
            rhs = joined(fix_mask(met(tb, tables[i])) for i in fam)
            assert met(tb, jt) == rhs
    assert all(is_scott_continuous(nu) for nu in nucs)
    bot, top = glb(range(k)), lub(range(k))
    return {
        "nucleus_count": k,
        "nuclei": [nu.fix.labels for nu in nucs],
        "order_pairs": [
            (i, j) for i in range(k) for j in range(k) if i != j and leq[i][j]
        ],
        "is_complete_lattice": True,
        "exhaustive": True,
        "bottom_is_identity": tables[bot] == tuple(range(L.n)),
        "top_fix": nucs[top].fix.labels,
        "meets_pointwise": True,
        "all_scott_continuous": True,
    }


def nucleus_tables(P, cap=None):
    return [nu.table for nu in enumerate_nuclei(P, cap)]


def grid(a, b):
    """The product of an a-chain and a b-chain."""
    labels = [f"{i}{j}" for i in range(a) for j in range(b)]
    pairs = [(f"{i}{j}", f"{i + 1}{j}") for i in range(a - 1) for j in range(b)]
    pairs += [(f"{i}{j}", f"{i}{j + 1}") for i in range(a) for j in range(b - 1)]
    return build_poset(labels, pairs)


def boolean(k):
    """The lattice of subsets of a k-element set."""
    labels = [f"s{m}" for m in range(1 << k)]
    pairs = [
        (labels[m], labels[m | 1 << i])
        for m in range(1 << k)
        for i in range(k)
        if not m >> i & 1
    ]
    return build_poset(labels, pairs)


def _relabelled(labels, pairs, rng):
    shuffled = list(labels)
    rng.shuffle(shuffled)
    return build_poset(shuffled, pairs)


@pytest.fixture(scope="module")
def posets():
    out = [
        fx.point(), fx.c2(), fx.c3(), fx.v4(), fx.b2(), fx.topfree(),
        fx.diamond(), fx.chain(6), fx.antichain(4), build_poset([], []),
    ]
    rng = random.Random(31)
    labels = [f"e{i}" for i in range(5)]
    slots = list(itertools.combinations(labels, 2))
    for k in range(1 << len(slots)):
        pairs = [slots[s] for s in range(len(slots)) if k >> s & 1]
        out.append(build_poset(labels, pairs))
        out.append(_relabelled(labels, pairs, rng))
    for n in range(11):
        for _ in range(3):
            P = random_poset(rng, n)
            pairs = [
                (P.label(i), P.label(j))
                for i in range(n)
                for j in bits(P.le[i])
                if i != j
            ]
            out.extend([P, _relabelled(P.elements, pairs, rng)])
    return list(dict.fromkeys(out))


def test_directed_subsets_match_pairwise_scan(posets):
    for P in posets:
        assert directed_subsets(P) == reference_directed_subsets(P), P


def test_closure_systems_match_full_scan(posets):
    for P in posets:
        assert closure_system_masks(P) == reference_closure_system_masks(P), P


def test_default_rules_match_per_body_scan(posets):
    for P in posets:
        got = [(r.body_mask, r.head) for r in default_rules(P).rules]
        assert got == reference_default_rules(P), P
        assert is_default_enabled(P) == reference_default_enabled(P), P


def test_nuclei_match_closure_system_filter(posets):
    semilattices = [P for P in posets if is_meet_semilattice(P)]
    assert fx.topfree() in semilattices and fx.diamond() in semilattices
    rng = random.Random(53)
    frames = [random_frame(rng, 12, max_q=5) for _ in range(30)]
    for P in semilattices + frames + [grid(5, 3), grid(2, 7)]:
        assert nucleus_tables(P, P.n) == reference_nuclei(P, P.n), P


def test_frame_of_nuclei_matches_every_family_check():
    rng = random.Random(61)
    semilattices = [
        fx.point(), fx.c2(), fx.c3(), fx.b2(), fx.topfree(), fx.diamond(),
        fx.chain(4),
    ] + [random_meet_semilattice(rng, 6) for _ in range(40)]
    checked = 0
    for P in semilattices:
        if len(enumerate_nuclei(P)) <= 8:
            assert frame_of_nuclei_check(P) == reference_frame_of_nuclei(P), P
            checked += 1
    assert checked > 30


def test_nuclei_of_b4_match_closure_system_filter():
    P = boolean(4)
    got = nucleus_tables(P, 16)
    assert len(got) == 16
    assert got == reference_nuclei(P, 16)


def test_directed_columns_match_per_subset_loops(posets):
    for P in posets:
        if P.n <= 8:
            assert_directed_routes_match(P)
        else:
            assert sorted(decode_directed_columns(P)) == list(
                directed_subsets(P, P.n)
            ), P


def test_directed_columns_on_grids_and_frames():
    # the 5x3 grid has about 20,000 directed subsets, so its loops run
    # on the masks hmj asks about: every upper set, every down-set and
    # every fixpoint set of a nucleus
    G = grid(5, 3)
    nucs = enumerate_nuclei(G, G.n)
    uppers = [m for m in range(G.full_mask + 1) if _upper(G, m)]
    downs = [G.full_mask & ~m for m in uppers]
    assert len(uppers) == 56 and len(nucs) == 64
    assert_directed_routes_match(G, uppers + downs + [nu.fix_mask for nu in nucs])
    assert_frame_routes_match(G)
    rng = random.Random(59)
    frames = [random_frame(rng, 12, max_q=5) for _ in range(12)]
    for L in [fx.point(), fx.c3(), fx.b2(), fx.chain(6), grid(2, 4)] + frames:
        assert_directed_routes_match(L)
        assert_frame_routes_match(L)


def _upper(P, mask):
    return all(P.le[i] & ~mask == 0 for i in bits(mask))
