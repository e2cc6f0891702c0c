"""The output-sized enumerations against the 2^n scans they replaced.

directed_subsets, closure_system_masks and default_rules each build
their list from the finite structure (a directed set is one with a
maximum; closure systems by a top-down descent; default rules per
distinct lower-bound set).  The scans below are the definitions, kept
here as references: every list must match its scan exactly, order
included, on every fixture, the empty poset, every poset given by a set
of upper-triangular pairs on 5 elements (also with the labels listed in
a shuffled order) and random posets of up to 10 elements.
"""

import itertools
import random

import pytest

from corpus import random_poset
from latkit import fixtures as fx
from latkit.closure import closure_system_masks, is_closure_system_mask
from latkit.order import (
    bits,
    build_poset,
    directed_subsets,
    greatest_of,
    has_ceiling_mask,
    is_default_enabled,
    is_directed_mask,
    lower_bounds_mask,
    maximal_mask,
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
