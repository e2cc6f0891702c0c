"""Seeded input generator for the three workloads.

Stdlib only.  `build(workload, seed)` returns the input files (relative
path -> bytes) and the operation list; the same workload and seed give
byte-identical files and the same list.  The frames and closure maps
of cli-frames, the corpus posets and frame shapes, and the posets and
sccore maps of cli-posets are fixed per slot; the seed relabels and
reorders them and picks the other maps, the rules, the subsets and the
start sets.  Each operation records what the
verifier needs to judge it.
"""

from __future__ import annotations

import functools
import itertools
import json
import random

from orders import Order, bits

WORKLOADS = ("cli-frames", "cli-posets", "library-corpus")


# ---------------------------------------------------------------------------
# shapes


def _labels(rng: random.Random, n: int) -> list:
    """n distinct random labels, in random order."""
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice("abcdefghkmnpqrstuvwxyz") for _ in range(3)))
    labels = sorted(out)
    rng.shuffle(labels)
    return labels


def _relabel(rng: random.Random, keys: list, pairs: list) -> Order:
    """An order on opaque keys, given random labels and a random
    element order."""
    labels = _labels(rng, len(keys))
    name = dict(zip(keys, labels))
    order = list(keys)
    rng.shuffle(order)
    Q = Order(
        [name[k] for k in order], [(name[a], name[b]) for a, b in pairs]
    )
    Q.keys = order  # the key of each element, in Q's element order
    return Q


def relabel(rng: random.Random, P: Order) -> Order:
    """P with new random labels and element order."""
    return _relabel(rng, list(range(P.n)), P.covers())


def carry(table: list, Q: Order) -> list:
    """A map on P, by index, as the same map on Q = relabel(rng, P)."""
    new = {key: i for i, key in enumerate(Q.keys)}
    out = [None] * Q.n
    for i, v in enumerate(table):
        out[new[i]] = new[v]
    return out


def product_of_chains(rng: random.Random, dims: tuple) -> Order:
    keys = list(itertools.product(*(range(d) for d in dims)))
    pairs = []
    for k in keys:
        for axis in range(len(dims)):
            if k[axis] + 1 < dims[axis]:
                nxt = k[:axis] + (k[axis] + 1,) + k[axis + 1:]
                pairs.append((k, nxt))
    return _relabel(rng, keys, pairs)


def downset_lattice(rng: random.Random, size: int, variant: int) -> Order:
    """Downset lattice, with `size` elements, of a small poset that
    depends only on size and variant; the seed picks labels and element
    order.  Downset lattices are the finite distributive lattices,
    hence frames."""
    downs = downset_shape(size, variant)
    pairs = [(a, b) for a in downs for b in downs if a != b and a & ~b == 0]
    return _relabel(rng, list(downs), pairs)


@functools.lru_cache(maxsize=None)
def downset_shape(size: int, variant: int) -> tuple:
    """The downsets, as masks, of the small poset that downset_lattice
    uses for size and variant.  The search does not depend on the seed,
    so it runs once per process."""
    shape = random.Random(f"downset:{size}:{variant}")
    while True:
        q = shape.randrange(3, 8)
        Q = random_order(shape, q, density=0.15 + 0.5 * shape.random())
        downs = [
            m
            for m in range(Q.full + 1)
            if all(Q.down[i] & ~m == 0 for i in bits(m))
        ]
        if len(downs) == size:
            return tuple(downs)


def random_order(rng: random.Random, n: int, density: float) -> Order:
    keys = list(range(n))
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    return Order(keys, pairs)


def random_nonlattice(rng: random.Random, n: int, pointed: bool) -> Order:
    """Random poset that is not a lattice; with a bottom if `pointed`."""
    for _ in range(10_000):
        m = n - 1 if pointed else n
        Q = random_order(rng, m, density=0.2 + 0.35 * rng.random())
        keys = list(range(m))
        pairs = [(i, j) for i in keys for j in bits(Q.up[i]) if i != j]
        if pointed:
            keys = keys + ["bot"]
            pairs += [("bot", i) for i in range(m)]
        P = _relabel(rng, keys, pairs)
        if P.meet_table() is None or P.join(P.full) is None:
            return P
    raise RuntimeError("no non-lattice poset found")


def closure_system_count(P: Order, stop: float) -> int:
    """Number of closure systems, or the first count above `stop`."""
    count = 0
    for m in range(P.full + 1):
        if P.is_closure_system(m):
            count += 1
            if count > stop:
                break
    return count


def typical_nonlattice(n: int, slot: int) -> Order:
    """Random non-lattice poset, fixed by n and slot, whose number of
    closure systems lies within a factor 1.2 of SYSTEMS[n], near the
    median for its size.

    The 2^n enumerations cost roughly in proportion to that number,
    which ranges over two orders of magnitude between random posets of
    one size."""
    rng = random.Random(f"poset:{n}:{slot}")
    target = SYSTEMS[n]
    while True:
        P = random_nonlattice(rng, n, pointed=False)
        if target / 1.2 <= closure_system_count(P, target * 1.2) <= target * 1.2:
            return P


# median number of closure systems of random_nonlattice posets
SYSTEMS = {8: 16, 9: 16, 10: 32, 11: 48, 12: 64}


def frame(rng: random.Random, shape) -> Order:
    kind, arg = shape
    if kind == "chain":
        return product_of_chains(rng, (arg,))
    if kind == "grid":
        return product_of_chains(rng, arg)
    return downset_lattice(rng, *arg)


# ---------------------------------------------------------------------------
# maps and rules


def random_closure_system(rng: random.Random, P: Order) -> int:
    """A random closure system: all elements, then random elements
    removed while the family stays a closure system."""
    mask = P.full
    drop = rng.random()
    for i in rng.sample(range(P.n), P.n):
        if rng.random() < drop and P.is_closure_system(mask & ~(1 << i)):
            mask &= ~(1 << i)
    return mask


def random_closure_table(rng: random.Random, P: Order) -> list:
    return P.closure_table(random_closure_system(rng, P))


def random_preclosure_table(rng: random.Random, P: Order) -> list:
    """Ascending and increasing: a composite of one to three closure
    operators, rarely idempotent."""
    t = random_closure_table(rng, P)
    for _ in range(rng.randrange(3)):
        g = random_closure_table(rng, P)
        t = [g[v] for v in t]
    return t


def random_increasing_table(rng: random.Random, P: Order) -> list:
    """Random monotone map, drawn along a linear extension."""
    order = sorted(range(P.n), key=lambda i: (bin(P.down[i]).count("1"), i))
    for _ in range(100):
        table = [None] * P.n
        for i in order:
            cands = P.full
            for j in bits(P.down[i] & ~(1 << i)):
                cands &= P.up[table[j]]
            if not cands:
                break
            table[i] = rng.choice(list(bits(cands)))
        else:
            return table
    return list(range(P.n))


def random_rules(rng: random.Random, P: Order, count: int) -> list:
    out = []
    for _ in range(count):
        body = [P.labels[i] for i in bits(rng.randrange(P.full + 1)) if rng.random() < 0.5]
        out.append({"body": body, "head": P.labels[rng.randrange(P.n)]})
    return out


# ---------------------------------------------------------------------------
# documents


def poset_doc(P: Order) -> dict:
    le = [
        [P.labels[a], P.labels[b]] for a, b in P.covers()
    ]
    return {"elements": P.labels, "le": le}


def map_doc(P: Order, name: str, table: list) -> dict:
    return {
        "name": name,
        "table": {P.labels[i]: P.labels[v] for i, v in enumerate(table)},
    }


def dumps(doc) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=False) + "\n").encode()


class Inputs:
    """Accumulates files and operations for one workload."""

    def __init__(self):
        self.files = {}
        self.ops = []
        self.orders = {}

    def add_poset(self, P: Order) -> str:
        path = f"p{len(self.orders)}.json"
        self.files[path] = dumps(poset_doc(P))
        self.orders[path] = P
        return path

    def add_map(self, poset: str, name: str, table: list) -> str:
        path = f"{poset[:-5]}_{name}.json"
        self.files[path] = dumps(map_doc(self.orders[poset], name, table))
        return path

    def add_rules(self, poset: str, rules: list) -> str:
        path = f"{poset[:-5]}_rules.json"
        self.files[path] = dumps(rules)
        return path

    def op(self, argv: list, **check):
        self.ops.append({"argv": argv, **check})


# ---------------------------------------------------------------------------
# workloads

# Frame shapes per size.  Sizes 8, 12 and 14-15 as ROADMAP item 1
# asks; 15 is above the default cap of 14 and runs with --force.
FRAME_SHAPES = {
    8: [("grid", (2, 4)), ("grid", (2, 2, 2)), ("chain", 8)]
    + [("down", (8, k)) for k in range(3)],
    12: [("grid", (3, 4))],
    14: [("grid", (2, 7))],
    15: [("grid", (5, 3))],
}
# commands per size, and how many random closure-operator files each
# map command gets per frame.  hmj at 15 validates the frame in full
# before it fails (ROADMAP item 5) and takes half a pass; the list is
# cut so that the passes of run.PASSES fit in a run.
FRAME_COMMANDS = {
    8: (["validate", "heyting", "hmj", "nuclei"], 6),
    12: (["nuclei"], 1),
    14: (["nuclei"], 0),
    15: (["hmj"], 0),
}
MAP_COMMANDS = ("least-nucleus", "nuclear-core")


@functools.lru_cache(maxsize=None)
def frame_slot(size: int, slot: int) -> tuple:
    """The cli-frames frame of one slot and its closure maps, by index,
    fixed by size and slot; the seed relabels them.  The cost of
    least-nucleus and nuclear-core depends on the map, and op_p90_s
    lies among those operations at 8 elements."""
    rng = random.Random(f"frame:{size}:{slot}")
    P = frame(rng, FRAME_SHAPES[size][slot])
    maps = FRAME_COMMANDS[size][1]
    return P, [random_closure_table(rng, P) for _ in range(maps)]


def cli_frames(rng: random.Random) -> Inputs:
    inp = Inputs()
    for size, shapes in FRAME_SHAPES.items():
        commands = FRAME_COMMANDS[size][0]
        # 15 is above the default cap of 14
        flags = ["--force"] if size > 14 else []
        for slot in range(len(shapes)):
            P0, tables = frame_slot(size, slot)
            P = relabel(rng, P0)
            p = inp.add_poset(P)
            for cmd in commands:
                # latkit refuses hmj at 15 with exit 2 (ROADMAP item 5)
                inp.op([cmd, p] + flags, cmd=cmd, poset=p, frame=True,
                       refuses=cmd == "hmj" and size == 15)
            for k, table in enumerate(tables):
                m = inp.add_map(p, f"c{k}", carry(table, P))
                for cmd in MAP_COMMANDS:
                    inp.op([cmd, p, m] + flags, cmd=cmd, poset=p, map=m)
    return inp


POSET_SIZES = (8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12, 13, 13, 14, 14)


@functools.lru_cache(maxsize=None)
def poset_slot(n: int, slot: int) -> tuple:
    """The cli-posets instance of one slot, fixed by n and slot: a
    non-lattice poset, a closure map on it (by index) and a pointed
    non-lattice poset.

    The seed relabels them and draws the other maps and the rules.  The
    2^n scans cost in proportion to the number of closure systems, and
    sccore_bruteforce to the number of them above the map's fixpoints;
    both range over orders of magnitude between random instances of one
    size, so instances drawn per seed would make the seed, not the
    program, set the cost."""
    if n in SYSTEMS:
        P = typical_nonlattice(n, slot)
    else:
        P = random_nonlattice(random.Random(f"poset:{n}:{slot}"), n, pointed=False)
    c = random_closure_table(random.Random(f"closure:{n}:{slot}"), P)
    Q = random_nonlattice(random.Random(f"pointed:{n}:{slot}"), n, pointed=True)
    return P, c, Q


def cli_posets(rng: random.Random) -> Inputs:
    inp = Inputs()
    for k, n in enumerate(POSET_SIZES):
        P0, c0, Q0 = poset_slot(n, k)
        P = relabel(rng, P0)
        p = inp.add_poset(P)
        inp.op(["validate", p], cmd="validate", poset=p, frame=False)
        m1 = inp.add_map(p, "g", random_preclosure_table(rng, P))
        m2 = inp.add_map(p, "h", random_preclosure_table(rng, P))
        inp.op(["generate", p, m1, m2], cmd="generate", poset=p, maps=[m1, m2])
        r = inp.add_rules(p, random_rules(rng, P, 2 * n))
        start = ",".join(P.labels[i] for i in range(P.n) if rng.random() < 0.3)
        inp.op(["rules", "close", p, r, "--start", start],
               cmd="rules-close", poset=p, rules=r, start=start)
        # the enumerations scan all 2^n subsets; they stop at 12 elements
        if n <= 12:
            inp.op(["closure-systems", p], cmd="closure-systems", poset=p)
            c = inp.add_map(p, "c", carry(c0, P))
            inp.op(["sccore", p, c], cmd="sccore", poset=p, map=c)
            if n <= 11:  # 2^n bodies; at 12 the report is megabytes
                inp.op(["rules", "default", p], cmd="rules-default", poset=p)
        # convexity scans all 2^n subsets against every closure system
        # and every upper set, with early exits; from 11 elements on its
        # cost swings with the poset more than the rest of the pass
        if n <= 10:
            for which in ("clsys", "dcclsys"):
                inp.op(["convexity", p, "--operator", which, "--cap", "12"],
                       cmd="convexity", poset=p, operator=which)
        Q = relabel(rng, Q0)
        q = inp.add_poset(Q)
        f = inp.add_map(q, "f", random_increasing_table(rng, Q))
        inp.op(["tarski", q, f], cmd="tarski", poset=q, map=f)
    return inp


# Corpus posets per size, 7 to 11 elements, and frames per size, 6 to
# 12 elements; larger frames cost far more.  Each frame size cycles
# through a few fixed shapes, so the seed moves labels and element
# order but not the work.
POSETS_PER_SIZE = 30
FRAMES_PER_SIZE = (20, 20, 20, 12, 8, 3, 2)
FRAME_VARIANTS = 4


def library_corpus(rng: random.Random) -> Inputs:
    """Distinct posets and frames for one long-lived process; the items
    are listed in corpus.json."""
    inp = Inputs()
    items = []
    for k in range(POSETS_PER_SIZE * 5):
        n = 7 + k % 5
        P = relabel(rng, corpus_poset(n, k))
        p = inp.add_poset(P)
        items.append({
            "kind": "poset",
            "poset": p,
            "pre": [_label_table(P, random_preclosure_table(rng, P)) for _ in range(2)],
            "inc": _label_table(P, random_increasing_table(rng, P)),
            "subset": [lab for lab in P.labels if rng.random() < 0.3],
            "gamma": _label_table(P, random_closure_table(rng, P)),
        })
    for k, count in enumerate(FRAMES_PER_SIZE):
        for variant in range(count):
            L = downset_lattice(rng, 6 + k, variant % FRAME_VARIANTS)
            items.append(frame_item(rng, inp, L))
    rng.shuffle(items)
    inp.files["corpus.json"] = dumps(items)
    inp.ops = items
    return inp


def frame_item(rng: random.Random, inp: Inputs, L: Order) -> dict:
    a = rng.randrange(L.n)
    principal = rng.random() < 0.5
    return {
        "kind": "frame",
        "poset": inp.add_poset(L),
        "gamma": _label_table(L, random_closure_table(rng, L)),
        "subset": [lab for lab in L.labels if rng.random() < 0.3],
        "pick": [rng.random(), rng.random()],
        "filter": L.labels_of(L.up[a] if principal else rng.randrange(L.full + 1)),
    }


@functools.lru_cache(maxsize=None)
def corpus_poset(n: int, slot: int) -> Order:
    """The corpus poset of one slot, fixed by n and slot; the seed
    relabels it.  Random posets of one size differ in cost by more than
    the benchmark's bounds."""
    return random_pointed(random.Random(f"corpus:{n}:{slot}"), n)


def random_pointed(rng: random.Random, n: int) -> Order:
    """Random poset with a bottom element."""
    Q = random_order(rng, n - 1, density=0.2 + 0.35 * rng.random())
    keys = list(range(n - 1)) + ["bot"]
    pairs = [(i, j) for i in range(n - 1) for j in bits(Q.up[i]) if i != j]
    pairs += [("bot", i) for i in range(n - 1)]
    return _relabel(rng, keys, pairs)


def _label_table(P: Order, table: list) -> list:
    return [P.labels[v] for v in table]


def build(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "cli-frames": cli_frames,
        "cli-posets": cli_posets,
        "library-corpus": library_corpus,
    }[workload](rng)
