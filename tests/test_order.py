"""Poset construction, subset queries, directedness, way-below, ceilings."""

import random

import pytest

import census
from corpus import random_poset
from latkit import (
    CapExceeded,
    CycleDetected,
    DuplicateLabel,
    Subset,
    UnknownLabel,
    build_poset,
    directed_subsets,
    enabledness,
    has_ceiling,
    interpolation_check,
    is_continuous_poset,
    is_default_enabled,
    is_default_enabled_within,
    is_meet_semilattice,
    lattice_queries,
    order_queries,
    subposet,
    way_below,
    way_below_set,
)
from latkit import fixtures as fx
from latkit import order
from latkit.bitset import distributivity_failure, join_irreducibles
from latkit.errors import InvalidValue, MixedPosets, NotMeetSemilattice
from latkit.order import (
    FinitePoset,
    bits,
    bottom_index,
    covers,
    derived,
    greatest_of,
    is_directed_mask,
    join_of,
    least_of,
    lower_closure_mask,
    meet_closure,
    meet_of,
    meet_table,
    same_poset,
    top_down,
    top_index,
    upper_closure_mask,
)


def reference_bits(mask):
    """The indices of mask's set bits, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_match_the_low_bit_loop_on_every_mask_below_2_16():
    for m in range(1 << 16):
        assert list(bits(m)) == reference_bits(m)


def test_bits_walk_a_wide_mask_lazily():
    # a value row over many maps is often read only up to its first
    # index, so past the byte tables bits yields one index at a time
    walk = bits(1 << 5 | 1 << 16 | 1 << 200)
    assert iter(walk) is walk
    assert next(walk) == 5
    assert list(walk) == [16, 200]


def assert_stored_size(P):
    assert P.n == len(P.elements)
    assert P.full_mask == (1 << P.n) - 1


def test_size_and_full_mask_are_stored_for_every_constructor():
    P = fx.b2()
    assert_stored_size(P)
    assert_stored_size(FinitePoset(("x", "y"), (0b01, 0b10)))
    assert_stored_size(FinitePoset((), ()))
    Q, _ = subposet(P, Subset.of(P, ["0", "a", "1"]))
    assert_stored_size(Q)
    assert_stored_size(subposet(P, Subset(P, 0))[0])


def test_equal_posets_built_apart_compare_and_hash_equal():
    P, Q = fx.b2(), build_poset(
        ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    assert P is not Q and P == Q and hash(P) == hash(Q)
    assert repr(P) == repr(Q) == "FinitePoset(['0', 'a', 'b', '1'])"
    assert FinitePoset(("x",), (1,)) == FinitePoset(["x"], [1])
    assert fx.chain(3) != fx.antichain(3)


def test_build_poset_closes_transitively():
    P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert P.leq_labels("a", "c")
    assert not P.leq_labels("c", "a")


def test_build_poset_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        build_poset(["a", "a"], [])


def test_build_poset_rejects_unknown_labels():
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "z")])


def test_build_poset_rejects_cycles():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_element_order_is_input_order():
    P = build_poset(["z", "m", "a"], [("z", "m")])
    assert P.elements == ("z", "m", "a")
    assert Subset(P, P.full_mask).labels == ("z", "m", "a")


def test_covers_on_b2():
    P = fx.b2()
    got = {(P.label(i), P.label(j)) for i, j in covers(P.le)}
    assert got == {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")}


def reference_covers(P):
    """The covering pairs by the pairwise scan: i < j with nothing
    strictly between, read from P.le and P.down."""
    return [
        (i, j)
        for i in range(P.n)
        for j in bits(P.le[i] & ~(1 << i))
        if not P.le[i] & P.down[j] & ~(1 << i) & ~(1 << j)
    ]


def test_covers_match_the_pairwise_scan_on_random_posets():
    rng = random.Random(31)
    for _ in range(80):
        P = random_poset(rng, rng.randrange(1, 10))
        assert covers(P.le) == reference_covers(P)


def test_top_down_decides_the_upper_bounds_first():
    rng = random.Random(32)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 9))
        order = derived(P, top_down)
        assert sorted(order) == list(range(P.n))
        seen = 0
        for x in order:
            assert P.le[x] & ~(1 << x) & ~seen == 0
            seen |= 1 << x
        assert derived(P, top_down) is order


def test_bounds_and_extrema_on_b2():
    P = fx.b2()
    ab = P.mask_of(["a", "b"])
    assert P.label(join_of(P, ab)) == "1"
    assert P.label(meet_of(P, ab)) == "0"
    assert least_of(P, ab) is None
    assert greatest_of(P, ab) is None
    assert P.label(bottom_index(P)) == "0"
    assert P.label(top_index(P)) == "1"


def test_empty_subset_conventions():
    P = fx.b2()
    # empty join is the bottom, empty meet is the top
    assert P.label(join_of(P, 0)) == "0"
    assert P.label(meet_of(P, 0)) == "1"
    assert not is_directed_mask(P, 0)
    q = lattice_queries(P, Subset(P, 0))
    assert q["join"] == "0" and q["meet"] == "1" and not q["is_directed"]


def test_order_queries_report():
    P = fx.b2()
    rep = order_queries(P, Subset.of(P, ["a"]))
    assert rep["upper_bounds"].labels == ("a", "1")
    assert rep["lower_bounds"].labels == ("0", "a")
    assert rep["least_element"] == "a"
    assert rep["lower_closure"].labels == ("0", "a")
    assert not rep["is_lower_set"]
    assert rep["upper_closure"].labels == ("a", "1")


def literal_queries(P, m):
    """order_queries and lattice_queries of mask m, from the definitions:
    each field a plain scan of P.le, members as index lists."""
    n = P.n
    members = [i for i in range(n) if m >> i & 1]

    def le(i, j):
        return bool(P.le[i] >> j & 1)

    def labels(idx):
        return tuple(P.elements[i] for i in idx)

    def least(idx):
        found = [i for i in idx if all(le(i, j) for j in idx)]
        return P.elements[found[0]] if found else None

    def greatest(idx):
        found = [i for i in idx if all(le(j, i) for j in idx)]
        return P.elements[found[0]] if found else None

    def lb_of(x):
        return [y for y in range(n) if le(y, x)]

    def ub_of(x):
        return [y for y in range(n) if le(x, y)]

    ub = [u for u in range(n) if all(le(x, u) for x in members)]
    lb = [v for v in range(n) if all(le(v, x) for x in members)]
    lower = [y for y in range(n) if any(le(y, x) for x in members)]
    upper = [y for y in range(n) if any(le(x, y) for x in members)]
    orders = {
        "upper_bounds": labels(ub),
        "lower_bounds": labels(lb),
        "maximal_elements": labels(
            x for x in members if not any(y != x and le(x, y) for y in members)
        ),
        "minimal_elements": labels(
            x for x in members if not any(y != x and le(y, x) for y in members)
        ),
        "least_element": least(members),
        "greatest_element": greatest(members),
        "lower_closure": labels(lower),
        "upper_closure": labels(upper),
        "is_lower_set": all(y in members for x in members for y in lb_of(x)),
        "is_upper_set": all(y in members for x in members for y in ub_of(x)),
    }
    lattice = {
        "join": least(ub),
        "meet": greatest(lb),
        "is_directed": bool(members)
        and all(
            any(le(a, c) and le(b, c) for c in members)
            for a in members
            for b in members
        ),
    }
    return orders, lattice


def test_order_and_lattice_queries_match_the_definitions_on_every_census_subset():
    # every field of both reports, for every subset of every poset of at
    # most 5 elements up to isomorphism
    seen = 0
    for n in range(6):
        for rows in census.posets(n):
            P = FinitePoset(tuple(map(str, range(n))), rows)
            for m in range(P.full_mask + 1):
                orders, lattice = literal_queries(P, m)
                got = order_queries(P, Subset(P, m))
                assert list(got) == list(orders)
                for key, value in got.items():
                    if isinstance(value, Subset):
                        value = value.labels
                    assert value == orders[key], (rows, m, key)
                assert lattice_queries(P, Subset(P, m)) == lattice, (rows, m)
                seen += 1
    assert seen == 1 + 2 + 2 * 4 + 5 * 8 + 16 * 16 + 63 * 32


def test_closures_are_idempotent_and_extensive():
    rng = random.Random(5)
    for _ in range(40):
        P = random_poset(rng, rng.randrange(1, 7))
        m = rng.randrange(P.full_mask + 1)
        lc = lower_closure_mask(P, m)
        uc = upper_closure_mask(P, m)
        assert lc & m == m and uc & m == m
        assert lower_closure_mask(P, lc) == lc
        assert upper_closure_mask(P, uc) == uc


def test_same_poset_rejects_mixtures():
    with pytest.raises(MixedPosets):
        same_poset(fx.b2(), fx.c3())


def test_directed_subsets_have_maxima():
    P = fx.b2()
    for mask, top in directed_subsets(P):
        assert greatest_of(P, mask) == top
    # {a, b} is not directed: no upper bound inside the set
    assert P.mask_of(["a", "b"]) not in {m for m, _ in directed_subsets(P)}


def test_directed_cap_guard():
    P = fx.chain(15)
    with pytest.raises(CapExceeded):
        directed_subsets(P)
    assert len(directed_subsets(P, cap=15)) > 0


def test_way_below_collapses_to_leq():
    rng = random.Random(6)
    for _ in range(25):
        P = random_poset(rng, rng.randrange(1, 7))
        for a in P.elements:
            for b in P.elements:
                assert way_below(P, a, b) == P.leq_labels(a, b)


def test_way_below_set_and_continuity():
    P = fx.b2()
    assert way_below_set(P, "1").labels == ("0", "a", "b", "1")
    assert is_continuous_poset(P)
    assert interpolation_check(P)


def test_finite_posets_are_default_enabled():
    rng = random.Random(7)
    for _ in range(25):
        P = random_poset(rng, rng.randrange(1, 7))
        assert is_default_enabled(P)
        assert has_ceiling(P, Subset(P, rng.randrange(P.full_mask + 1)))
        X = Subset(P, rng.randrange(P.full_mask + 1))
        assert is_default_enabled_within(P, X)
    rep = enabledness(fx.b2())
    assert rep["is_default_enabled"]


def test_relative_enabledness_checks_each_lower_bound_set_once(monkeypatch):
    # every lower-bound set taken in A, and A's part below each x, is
    # asked about once: the 2^|A| loop over A's members is the reference
    rng = random.Random(8)
    for _ in range(25):
        P = random_poset(rng, rng.randrange(1, 7))
        A = Subset(P, rng.randrange(P.full_mask + 1))
        assert enabledness(P, A) == {
            "is_default_enabled": True,
            "has_ceiling": True,
            "is_default_enabled_within": True,
        }
        members = list(bits(A.mask))
        want = {row & A.mask for row in P.down}
        for k in range(1 << len(members)):
            lb = A.mask
            for pos, i in enumerate(members):
                if k >> pos & 1:
                    lb &= P.down[i]
            want.add(lb)
        asked = []
        monkeypatch.setattr(order, "has_ceiling_mask", lambda Q, m: not asked.append(m))
        assert is_default_enabled_within(P, A)
        monkeypatch.undo()
        assert sorted(asked) == sorted(want)


BAD_VALUES = {
    "duplicate": (lambda: FinitePoset(("a", "a"), (1, 2)), DuplicateLabel,
                  "duplicate element label 'a'"),
    "rows": (lambda: FinitePoset(("a",), ()), InvalidValue,
             "le must have one row mask per element"),
    "outside": (lambda: FinitePoset(("a",), (3,)), InvalidValue,
                "le row refers to elements outside the poset"),
    "reflexive": (lambda: FinitePoset(("a", "b"), (1, 0)), InvalidValue,
                  "order must be reflexive; missing 'b'"),
    "antisymmetric": (lambda: FinitePoset(("a", "b"), (3, 3)), InvalidValue,
                      "order not antisymmetric between 'a' and 'b'"),
    "transitive": (lambda: FinitePoset(("a", "b", "c"), (3, 6, 4)), InvalidValue,
                   "order not transitive at 'a' <= 'b'"),
    "subset": (lambda: Subset(fx.c2(), 4), InvalidValue,
               "subset mask outside the poset"),
    "index": (lambda: Subset.from_indices(fx.c2(), [0, 2]), InvalidValue,
              "element index 2 out of range"),
}


@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_bad_poset_values_are_rejected(name):
    build, error, message = BAD_VALUES[name]
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_meet_table_presence():
    assert is_meet_semilattice(fx.b2())
    assert is_meet_semilattice(fx.topfree())
    assert not is_meet_semilattice(fx.v4())
    assert meet_table(fx.v4()) is None
    mt = meet_table(fx.b2())
    P = fx.b2()
    a, b = P.index("a"), P.index("b")
    assert mt[a][b] == P.index("0")


@pytest.mark.parametrize("name", ["topfree", "v4"])
def test_meet_closure_needs_a_top_and_pairwise_meets(name):
    # topfree has every pairwise meet but no top; v4 lacks both
    with pytest.raises(NotMeetSemilattice):
        meet_closure(getattr(fx, name)(), 0)


def test_subposet_keeps_relative_order():
    P = fx.b2()
    Q, kept = subposet(P, Subset.of(P, ["0", "a", "1"]))
    assert Q.elements == ("0", "a", "1")
    assert [P.label(i) for i in kept] == ["0", "a", "1"]
    assert Q.leq_labels("0", "1") and not Q.leq_labels("1", "a")


def reference_join_irreducibles(P):
    """The elements other than the bottom that are no join of two
    elements strictly below them, as a mask."""
    out = 0
    for x in range(P.n):
        below = P.down[x] & ~(1 << x)
        if below and all(
            join_of(P, 1 << a | 1 << b) != x
            for a in bits(below)
            for b in bits(below)
        ):
            out |= 1 << x
    return out


def _pentagon():
    # 0 < a < c < 1 and 0 < b < 1: the smallest non-modular lattice
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


def _grid23():
    labels = [f"{i}{j}" for i in range(2) for j in range(3)]
    pairs = [(f"0{j}", f"1{j}") for j in range(3)]
    pairs += [(f"{i}{j}", f"{i}{j + 1}") for i in range(2) for j in range(2)]
    return build_poset(labels, pairs)


@pytest.mark.parametrize(
    "P, distributive",
    [
        (fx.point(), True),
        (fx.chain(4), True),
        (fx.b2(), True),
        (_grid23(), True),
        (fx.diamond(), False),
        (_pentagon(), False),
    ],
    ids=["point", "chain4", "b2", "grid23", "diamond", "pentagon"],
)
def test_birkhoff_test_and_its_dual_decide_distributivity(P, distributive):
    mt = meet_table(P)
    join = [[join_of(P, 1 << x | 1 << y) for y in range(P.n)] for x in range(P.n)]
    assert join_irreducibles(P.down) == reference_join_irreducibles(P)
    by_law = all(
        mt[x][join[y][z]] == join[mt[x][y]][mt[x][z]]
        for x in range(P.n)
        for y in range(P.n)
        for z in range(P.n)
    )
    assert by_law == distributive
    assert (distributivity_failure(P.down, join) is None) == distributive
    assert (distributivity_failure(P.le, mt) is None) == distributive


def test_subset_views_read_the_mask():
    P = fx.b2()
    X = Subset.of(P, ["a", "1"])
    assert X.members == frozenset({1, 3})
    assert X.complement() == Subset.of(P, ["0", "b"])
    assert X.contains("a") and not X.contains("b")
    assert list(X) == ["a", "1"] and len(X) == 2
    assert Subset.of(P, ["1"]) <= X and not X <= Subset.of(P, ["a"])
    with pytest.raises(MixedPosets):
        X <= Subset.of(fx.c3(), ["0"])


def test_an_empty_family_takes_the_explicit_poset():
    P = fx.c3()
    assert order.family_poset([], P) is P
    with pytest.raises(ValueError, match="explicit poset"):
        order.family_poset([])


# The False branches of is_continuous_poset, interpolation_check, the
# ceiling test of rules.is_nuclear_enabled and hmj.modus_ponens_check
# stay untested: on finite input they cannot run.  There the way-below
# relation is the order itself, so each way-down set is a principal
# down-set, directed with join its top, and x way below z interpolates
# through z; every finite subset lies below its maximal elements, so it
# has a ceiling; and a filter holding a and a => b holds their meet,
# which lies below b.
