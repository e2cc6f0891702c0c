"""Seeded random generators shared by the test modules.

Every generator takes an explicit random.Random so each test controls
its own seed and the corpora are reproducible run to run.
"""

import random

from latkit import (
    EndoMap,
    RuleSet,
    Subset,
    build_poset,
    clsys,
    compose,
    duality,
    enumerate_nuclei,
    identity_map,
    is_meet_semilattice,
)
from latkit.order import FinitePoset, bits, bottom_index


def random_poset(rng: random.Random, n: int, prefix: str = "e") -> FinitePoset:
    """Random n-element poset: upper-triangular edge coin flips, then
    transitive closure (taken by build_poset)."""
    labels = [f"{prefix}{i}" for i in range(n)]
    density = 0.1 + 0.6 * rng.random()
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((labels[i], labels[j]))
    return build_poset(labels, pairs)


def random_pointed_poset(rng: random.Random, n: int) -> FinitePoset:
    """Random poset with a bottom element, |P| <= n."""
    P = random_poset(rng, n)
    if bottom_index(P) is not None:
        return P
    Q = random_poset(rng, n - 1)
    labels = ["bot"] + list(Q.elements)
    pairs = [("bot", lab) for lab in Q.elements]
    for i in range(Q.n):
        for j in range(Q.n):
            if i != j and Q.le[i] >> j & 1:
                pairs.append((Q.elements[i], Q.elements[j]))
    return build_poset(labels, pairs)


def random_subset(rng: random.Random, P: FinitePoset) -> Subset:
    return Subset(P, rng.randrange(P.full_mask + 1))


def random_closure_operator(rng: random.Random, P: FinitePoset):
    return duality(clsys(random_subset(rng, P)))


def random_preclosure(rng: random.Random, P: FinitePoset) -> EndoMap:
    """Ascending increasing map: a composition of one to three random
    closure operators (idempotence does not survive composition)."""
    f = random_closure_operator(rng, P).map
    for _ in range(rng.randrange(3)):
        f = compose(random_closure_operator(rng, P).map, f)
    return f


def _linear_extension(P: FinitePoset) -> list:
    # strictly below means strictly fewer elements below
    return sorted(range(P.n), key=lambda i: (P.down[i].bit_count(), i))


def random_increasing_map(
    rng: random.Random, P: FinitePoset, attempts: int = 60
) -> EndoMap:
    """Random monotone endomap, not necessarily ascending.

    Values are chosen along a linear extension; each element's value is
    drawn from the upper bounds of the values already forced below it.
    Dead ends (empty candidate sets) restart the draw; identity is the
    fallback when every attempt dead-ends.
    """
    order = _linear_extension(P)
    for _ in range(attempts):
        table = [None] * P.n
        ok = True
        for i in order:
            cands = P.full_mask
            for j in range(P.n):
                if j != i and P.le[j] >> i & 1 and table[j] is not None:
                    cands &= P.le[table[j]]
            choices = list(bits(cands))
            if not choices:
                ok = False
                break
            table[i] = rng.choice(choices)
        if ok:
            return EndoMap(P, tuple(table))
    return identity_map(P)


def random_meet_semilattice(
    rng: random.Random, max_n: int = 6, tries: int = 300
) -> FinitePoset:
    """Random meet-semilattice, by rejection or by an intersection-closed
    set family, mixed for coverage (the families are always lattices)."""
    if rng.random() < 0.5:
        fam = _intersection_family(rng, max_n)
        if fam is not None:
            return fam
    for _ in range(tries):
        P = random_poset(rng, rng.randrange(2, max_n + 1), prefix="m")
        if is_meet_semilattice(P):
            return P
    raise AssertionError("meet-semilattice sampling starved")


def _intersection_family(rng: random.Random, max_n: int):
    u = rng.randrange(2, 5)
    full = (1 << u) - 1
    fam = {full}
    for _ in range(rng.randrange(1, 5)):
        fam.add(rng.randrange(full + 1))
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                if a & b not in fam:
                    fam.add(a & b)
                    changed = True
    if len(fam) > max_n:
        return None
    masks = sorted(fam)
    labels = [f"s{m}" for m in masks]
    pairs = [
        (labels[i], labels[j])
        for i in range(len(masks))
        for j in range(len(masks))
        if i != j and masks[i] & ~masks[j] == 0
    ]
    return build_poset(labels, pairs)


def random_frame(
    rng: random.Random, max_n: int = 6, tries: int = 400, max_q: int = 3
) -> FinitePoset:
    """Random finite frame: the downset lattice of a random poset of at
    most max_q elements, ordered by inclusion.  Downset lattices are
    exactly the finite distributive lattices, so no post-validation is
    needed."""
    for _ in range(tries):
        q = rng.randrange(0, max_q + 1)
        if q == 0:
            down = [0]
        else:
            Q = random_poset(rng, q, prefix="q")
            down = [
                m
                for m in range(Q.full_mask + 1)
                if all(Q.down[i] & ~m == 0 for i in bits(m))
            ]
        if len(down) > max_n:
            continue
        labels = [f"d{m}" for m in down]
        pairs = [
            (labels[i], labels[j])
            for i in range(len(down))
            for j in range(len(down))
            if i != j and down[i] & ~down[j] == 0
        ]
        return build_poset(labels, pairs)
    raise AssertionError("frame sampling starved")


def random_prenucleus(rng: random.Random, L: FinitePoset, nucs=None) -> EndoMap:
    """Composition of one to three nuclei: ascending and meet-preserving,
    rarely idempotent."""
    if nucs is None:
        nucs = enumerate_nuclei(L)
    f = rng.choice(nucs).op.map
    for _ in range(rng.randrange(3)):
        f = compose(rng.choice(nucs).op.map, f)
    return f


def random_ruleset(rng: random.Random, P: FinitePoset, max_rules: int = 6) -> RuleSet:
    items = []
    for _ in range(rng.randrange(max_rules + 1)):
        body = P.labels_of(rng.randrange(P.full_mask + 1))
        head = P.label(rng.randrange(P.n))
        items.append((body, head))
    return RuleSet.of(P, items)
