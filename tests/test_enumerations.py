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
"""

import itertools
import random

import pytest

from corpus import random_frame, random_poset
from latkit import fixtures as fx
from latkit.closure import (
    closure_system_masks,
    duality,
    is_closure_system_mask,
)
from latkit.heyting import enumerate_nuclei
from latkit.maps import preserves_binary_meets
from latkit.order import (
    Subset,
    bits,
    build_poset,
    directed_subsets,
    greatest_of,
    has_ceiling_mask,
    is_default_enabled,
    is_directed_mask,
    is_meet_semilattice,
    lower_bounds_mask,
    maximal_mask,
    popcount,
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


def reference_closure_system_masks(P):
    return tuple(
        m for m in range(P.full_mask + 1) if is_closure_system_mask(P, m)
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
    kept.sort(key=lambda op: (-popcount(op.fix_mask), op.fix_mask))
    return [op.table for op in kept]


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


def test_nuclei_of_b4_match_closure_system_filter():
    P = boolean(4)
    got = nucleus_tables(P, 16)
    assert len(got) == 16
    assert got == reference_nuclei(P, 16)
