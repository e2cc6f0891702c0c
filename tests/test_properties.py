"""Property tests over generated inputs.

Every finite meet-semilattice is isomorphic to a family of sets closed
under intersection (send x to its principal down-set), so the
generator draws a few sets, closes them under intersection and orders
the family by inclusion, listing its members in a drawn order.  Plain
posets are drawn as a set of edges along a drawn linear order, so no
edge closes a cycle; rule sets are drawn as (body mask, head) pairs.
Frames are drawn as the down-set lattices of small posets, which are
exactly the finite distributive lattices.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from latkit import fixtures as fx  # noqa: E402
from latkit.bitset import (  # noqa: E402
    join_irreducibles,
    least_closed_above,
    least_closed_table,
    upper_sets,
)
from latkit.closure import (  # noqa: E402
    ClosureOperator,
    _closure_table,
    closure_system_masks,
    clsys,
    dj,
    duality,
    sccore,
    sccore_bruteforce,
)
from latkit.convexity import (  # noqa: E402
    PowersetOperator,
    acyclicity,
    funnel_check,
    rule_closure_operator,
)
from latkit.errors import CycleDetected, InputError  # noqa: E402
from latkit.heyting import (  # noqa: E402
    Nucleus,
    _adjunction_failure,
    _imp_table,
    enumerate_nuclei,
    frame_of_nuclei_check,
)
from latkit.hmj import hmj_correspondence, open_nucleus  # noqa: E402
from latkit.maps import (  # noqa: E402
    EndoMap,
    closure_table_fault,
    is_increasing,
    is_scott_continuous,
    pointwise_leq,
    value_rows,
)
from latkit.order import (  # noqa: E402
    FinitePoset,
    Subset,
    bits,
    bound_sets,
    build_poset,
    closure_tables,
    covers,
    directed_join_faults,
    directed_tops_avoiding,
    greatest_of,
    image_joins,
    join_meet_tables,
    join_of,
    least_of,
    meet_closure,
    meet_table,
    pair_meets,
    solution_sets,
    subposet,
    subset_tables,
    top_index,
)
from latkit.rules import (  # noqa: E402
    ClosureRule,
    RuleSet,
    default_closure_mask,
    default_rules,
    rho,
    rul,
    rule_closure_mask,
    sigma,
)
from test_enumerations import (  # noqa: E402
    assert_directed_routes_match,
    assert_frame_routes_match,
    decode_directed_columns,
    nucleus_tables,
    reference_closure_system_masks,
    reference_default_rules,
    reference_dj,
    reference_frame_of_nuclei,
    reference_nuclei,
    reference_scott_continuous,
    reference_scott_faults,
)
from test_census import (  # noqa: E402
    assert_frame_picks_match_the_value_rows,
    assert_scott_core_matches_the_value_rows,
    rows_greatest,
    rows_least,
)
from test_convexity import order_rows, reference_relation_search  # noqa: E402
from test_order import (  # noqa: E402
    assert_stored_size,
    reference_bits,
    reference_covers,
    reference_join_irreducibles,
)
from test_rules import (  # noqa: E402
    naive_closure_mask,
    reference_is_reflexive,
    reference_is_transitive,
    reference_rho,
    reference_rul,
    reference_sigma,
)


def _close_under_meets(family):
    family = set(family)
    while True:
        grown = family | {a & b for a in family for b in family}
        if grown == family:
            return family
        family = grown


@st.composite
def meet_semilattices(draw, max_n=8):
    gens = draw(st.lists(st.integers(0, 31), min_size=1, max_size=6))
    family = set()
    for g in gens:
        grown = _close_under_meets(family | {g})
        if len(grown) > max_n:
            break
        family = grown
    masks = draw(st.permutations(sorted(family)))
    labels = [f"s{m}" for m in masks]
    pairs = [
        (labels[i], labels[j])
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if i != j and a & ~b == 0
    ]
    return build_poset(labels, pairs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(meet_semilattices())
def test_nuclei_descent_matches_closure_system_filter(P):
    assert nucleus_tables(P) == reference_nuclei(P)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(meet_semilattices(max_n=6))
def test_frame_of_nuclei_matches_every_family_check(P):
    assume(len(enumerate_nuclei(P)) <= 8)
    assert frame_of_nuclei_check(P) == reference_frame_of_nuclei(P)


@st.composite
def posets(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    labels = [f"e{i}" for i in range(n)]
    line = draw(st.permutations(range(n)))
    edges = [(line[i], line[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    pairs = [(labels[a], labels[b]) for (a, b), k in zip(edges, keep) if k]
    return build_poset(labels, pairs)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**300))
@example(2**16)  # the first mask past the byte tables
@example(2**300)
def test_bits_of_wide_masks_match_the_low_bit_loop(mask):
    assert list(bits(mask)) == reference_bits(mask)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(posets(max_n=8), st.integers(0, 255))
def test_posets_store_their_size_and_full_mask(P, keep):
    assert_stored_size(P)
    assert_stored_size(FinitePoset(P.elements, P.le))
    Q, old = subposet(P, Subset(P, keep & P.full_mask))
    assert_stored_size(Q)
    # the subposet is built with no check: every field equals that of the
    # checked constructor on the restricted labels and order
    labels = tuple(P.elements[i] for i in old)
    rows = tuple(
        sum(1 << k for k, b in enumerate(labels) if P.leq_labels(a, b)) for a in labels
    )
    R = FinitePoset(labels, rows)
    assert [getattr(Q, f) for f in FinitePoset._names] == [
        getattr(R, f) for f in FinitePoset._names
    ]
    again = build_poset(
        P.elements,
        [(a, b) for a in P.elements for b in P.elements if P.leq_labels(a, b)],
    )
    assert again == P and hash(again) == hash(P)


@st.composite
def rule_sets(draw):
    P = draw(posets())
    items = draw(
        st.lists(
            st.tuples(st.integers(0, P.full_mask), st.integers(0, P.n - 1)),
            max_size=12,
        )
    )
    return RuleSet(P, [ClosureRule(P, b, h) for b, h in items])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets(max_n=7))
def test_carried_closure_tables_match_the_per_mask_route(P):
    # the descent lists every closure system once, and the table it
    # carries is the least member above each element, as the per-mask
    # check of ClosureSystem computes it
    pairs = closure_tables(P)
    assert sorted(m for m, _ in pairs) == list(reference_closure_system_masks(P))
    for m, t in pairs:
        assert t == _closure_table(P, m)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(meet_semilattices())
def test_pruned_descent_tables_match_the_nucleus_filter(P):
    leaves = closure_tables(P, meet_table(P))
    leaves.sort(key=lambda s: (-s[0].bit_count(), s[0]))
    assert [t for _, t in leaves] == reference_nuclei(P)


@st.composite
def closure_leaves(draw):
    # a poset and a (mask, table) leaf, mostly not a closure operator of
    # its mask: the table is drawn at random or is a closure table of P
    # with one value redrawn or none, and the mask is its fixpoint set
    # or any mask
    P = draw(st.one_of(posets(max_n=7), meet_semilattices(max_n=7)))
    value = st.integers(0, P.n - 1)
    if draw(st.booleans()):
        table = list(draw(st.sampled_from(closure_tables(P)))[1])
        if draw(st.booleans()):
            table[draw(value)] = draw(value)
    else:
        table = draw(st.lists(value, min_size=P.n, max_size=P.n))
    own = sum(1 << x for x, v in enumerate(table) if x == v)
    mask = draw(st.one_of(st.just(own), st.integers(0, P.full_mask)))
    return P, mask, tuple(table)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(closure_leaves())
def test_batched_closure_check_accepts_what_the_constructors_accept(case):
    # the check passes a leaf iff its constructor accepts the table and
    # the value fixes exactly the mask; with meets, Nucleus's
    P, mask, table = case
    mt = meet_table(P)

    def accepted(cls):
        try:
            return cls(EndoMap(P, table)).fix_mask == mask
        except InputError:
            return False

    identity = (P.full_mask, tuple(range(P.n)))
    for cls, meets in [(ClosureOperator, None), (Nucleus, mt)]:
        if cls is Nucleus and mt is None:
            continue
        want = None if accepted(cls) else 1
        assert closure_table_fault(P, [identity, (mask, table)], meets) == want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rule_sets())
def test_rule_closure_matches_repeated_passes(R):
    for m in range(R.poset.full_mask + 1):
        assert rule_closure_mask(R, m) == naive_closure_mask(R, m)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rule_sets())
def test_rules_of_the_closure_operator_close_alike(R):
    R2 = rul(rule_closure_operator(R))
    for m in range(R.poset.full_mask + 1):
        assert rule_closure_mask(R2, m) == rule_closure_mask(R, m)
    assert R2 == RuleSet(R.poset, R2.rules)


@st.composite
def rule_sets_for_laws(draw):
    # on at most 5 points: a drawn rule set, with an empty-body rule
    # half the time, which mostly fails both laws; rho of a drawn
    # family, a closure theory; or rul of a drawn set's closure
    # operator, a closure theory too, with one rule dropped half the
    # time, which breaks reflexivity or transitivity
    P = draw(posets(max_n=5))
    kind = draw(st.sampled_from(["drawn", "rho", "rul"]))
    if kind == "rho":
        family = draw(st.lists(st.integers(0, P.full_mask), max_size=4))
        return rho(P, [Subset(P, m) for m in family]), None
    head = st.integers(0, P.n - 1)
    items = draw(st.lists(st.tuples(st.integers(0, P.full_mask), head), max_size=12))
    if draw(st.booleans()):
        items.append((0, draw(head)))
    R = RuleSet(P, [ClosureRule(P, b, h) for b, h in items])
    if kind == "drawn":
        return R, None
    op = rule_closure_operator(R)
    R = rul(op)
    if draw(st.booleans()):
        rules = list(R.rules)
        del rules[draw(st.integers(0, len(rules) - 1))]
        return RuleSet(P, rules), None
    return R, op


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rule_sets_for_laws())
def test_rule_laws_from_the_entries_match_the_mask_scans(case):
    R, op = case
    assert R.is_reflexive() == reference_is_reflexive(R)
    assert R.is_transitive() == reference_is_transitive(R)
    if op is not None:
        want = reference_rul(op)
        assert R == want and R.rules == want.rules
        assert R.is_reflexive() and R.is_transitive()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(posets())
def test_default_rules_close_to_clsys(P):
    R = default_rules(P)
    for m in range(P.full_mask + 1):
        assert rule_closure_mask(R, m) == clsys(Subset(P, m)).mask


@settings(derandomize=True, max_examples=100, deadline=None)
@given(posets(max_n=7))
def test_principal_body_closure_matches_the_default_rule_closure(P):
    R = default_rules(P)
    for m in range(P.full_mask + 1):
        assert default_closure_mask(P, m) == rule_closure_mask(R, m)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets())
def test_default_rules_list_matches_per_body_scan(P):
    R = default_rules(P)
    assert [(r.body_mask, r.head) for r in R.rules] == reference_default_rules(P)
    again = RuleSet(P, R.rules)
    assert R == again and hash(R) == hash(again)


@st.composite
def frames(draw, max_n=12):
    Q = draw(posets(max_n=4))
    downs = [
        m
        for m in range(Q.full_mask + 1)
        if all(Q.down[i] & ~m == 0 for i in range(Q.n) if m >> i & 1)
    ]
    assume(len(downs) <= max_n)
    downs = draw(st.permutations(downs))
    labels = [f"d{m}" for m in downs]
    pairs = [
        (labels[i], labels[j])
        for i, a in enumerate(downs)
        for j, b in enumerate(downs)
        if i != j and a & ~b == 0
    ]
    return build_poset(labels, pairs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets(max_n=7))
def test_directed_columns_match_per_subset_loops(P):
    assert_directed_routes_match(P)


@st.composite
def posets_with_tables(draw):
    # any table, not only increasing ones
    P = draw(posets(max_n=7))
    table = draw(st.lists(st.integers(0, P.n - 1), min_size=P.n, max_size=P.n))
    return P, tuple(table)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets_with_tables())
def test_directed_join_faults_match_the_scott_loop(case):
    P, table = case
    decoded = decode_directed_columns(P)
    faults = directed_join_faults(P, table, P.n)
    got = sorted(decoded[k][0] for k in bits(faults))
    assert got == reference_scott_faults(P, table)
    f = EndoMap(P, table)
    assert is_scott_continuous(f, P.n) == reference_scott_continuous(f)
    assert is_increasing(f) == reference_scott_continuous(f)
    for m in range(P.full_mask + 1):
        assert dj(Subset(P, m), P.n).mask == reference_dj(P, m)


@st.composite
def posets_with_two_masks(draw):
    P = draw(posets(max_n=7))
    masks = st.integers(0, P.full_mask)
    return P, draw(masks), draw(masks)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets_with_two_masks())
def test_directed_tops_avoiding_matches_the_decoded_columns(case):
    P, tops, avoid = case
    want = 0
    for dmask, top in decode_directed_columns(P):
        if tops >> top & 1 and not dmask & avoid:
            want |= 1 << top
    assert directed_tops_avoiding(P, tops, avoid, P.n) == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(frames())
def test_frame_routes_match_scans(L):
    assert_directed_routes_match(L)
    assert_frame_routes_match(L)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(frames(max_n=8))
def test_nuclei_of_a_frame_have_one_atom_per_join_irreducible(L):
    # on a finite frame N(L) is Boolean with one atom per
    # join-irreducible of L, and its atoms are its join-irreducibles
    irr = join_irreducibles(L.down)
    assert irr == reference_join_irreducibles(L)
    rep = frame_of_nuclei_check(L)
    k = rep["nucleus_count"]
    N = build_poset(
        [str(i) for i in range(k)],
        [(str(i), str(j)) for i, j in rep["order_pairs"]],
    )
    assert join_irreducibles(N.down).bit_count() == irr.bit_count()
    assert k == 2 ** irr.bit_count()


def reference_open_fixpoints(L, a):
    # y is fixed by x -> (a => x) when every z with z meet a <= y lies
    # below y, since a => y is the greatest such z
    mt = meet_table(L)
    return sum(
        1 << y
        for y in range(L.n)
        if all(L.le[z] >> y & 1 for z in range(L.n) if L.le[mt[z][a]] >> y & 1)
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(frames())
def test_hmj_pairs_are_the_principal_filters_with_their_open_nuclei(L):
    # on a finite frame every filter is principal and Scott-open and
    # every quotient is compact, so the correspondence pairs the up set
    # of each element a with the open nucleus at a, and nothing else
    pairs = {(F.mask, nu.fix_mask) for F, nu in hmj_correspondence(L)["pairs"]}
    opens = {(L.le[a], reference_open_fixpoints(L, a)) for a in range(L.n)}
    assert pairs == opens
    for a in range(L.n):
        assert open_nucleus(L, L.label(a)).fix_mask == reference_open_fixpoints(L, a)


@st.composite
def lattices(draw):
    # a finite meet-semilattice with a top is a lattice, so one drawn
    # without a top gets a new one above every element
    P = draw(st.one_of(meet_semilattices(max_n=7), frames(max_n=8)))
    if top_index(P) is not None:
        return P
    pairs = [
        (P.label(i), P.label(j)) for i in range(P.n) for j in bits(P.le[i])
    ]
    return build_poset(
        [*P.elements, "top"], pairs + [(x, "top") for x in P.elements]
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lattices())
def test_meet_closure_is_the_least_closure_system_on_a_lattice(P):
    mt = meet_table(P)
    for m in range(P.full_mask + 1):
        assert meet_closure(P, m) == clsys(Subset(P, m)).mask
        meets = {mt[a][b] for a in bits(m) for b in bits(m)}
        assert pair_meets(mt, m) == sum(1 << v for v in meets)


def reference_join_meet_tables(P):
    """The join and meet of every subset, each picked from the subset's
    common bound set."""

    def table(rows, extremum):
        picks = (extremum(P, b) for b in bound_sets(P, rows))
        return bytearray(P.n if e is None else e for e in picks)

    return table(P.le, least_of), table(P.down, greatest_of)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(posets(max_n=7), meet_semilattices()))
def test_doubled_tables_are_exact_up_to_their_first_gap(P):
    # past the first gap a doubled entry may miss a join that exists;
    # up to it every entry is exact, and it is the least gap; an entry
    # that is not a gap is exact anywhere
    for got, want in zip(join_meet_tables(P), reference_join_meet_tables(P)):
        gap = got.find(P.n)
        assert gap == want.find(P.n)
        end = len(got) if gap < 0 else gap + 1
        assert got[:end] == want[:end]
        assert all(g == w for g, w in zip(got, want) if g != P.n)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lattices())
def test_doubled_tables_are_exact_on_a_lattice(P):
    assert join_meet_tables(P) == reference_join_meet_tables(P)


@st.composite
def lattices_with_tables(draw):
    # any table, not only meet maps
    P = draw(lattices())
    table = draw(st.lists(st.integers(0, P.n - 1), min_size=P.n, max_size=P.n))
    return P, tuple(table)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lattices_with_tables())
def test_image_joins_read_the_join_of_each_image(case):
    P, table = case
    tables = subset_tables(P)
    join = tables.join
    images = [
        sum(1 << v for v in {table[i] for i in bits(m)})
        for m in range(P.full_mask + 1)
    ]
    assert image_joins(tables, table) == bytearray(join[v] for v in images)


def reference_implication(P, mt):
    """a => b as the join of the x with x meet a <= b, one x at a time."""
    return tuple(
        tuple(
            join_of(P, sum(1 << x for x in range(P.n) if P.le[mt[x][a]] >> b & 1))
            for b in range(P.n)
        )
        for a in range(P.n)
    )


def reference_adjunction_failure(P, imp, mt):
    """The first (x, a, b) where x <= (a => b) and x meet a <= b differ,
    one triple at a time."""
    for x in range(P.n):
        for a in range(P.n):
            for b in range(P.n):
                r = imp[a][b]
                if r is None or (P.le[x] >> r & 1) != (P.le[mt[x][a]] >> b & 1):
                    return x, a, b
    return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(frames())
def test_implication_table_matches_the_cubic_route(L):
    assert _imp_table(L) == reference_implication(L, meet_table(L))


@st.composite
def frames_with_a_wrong_implication(draw):
    L = draw(frames(max_n=10))
    a, b = draw(st.integers(0, L.n - 1)), draw(st.integers(0, L.n - 1))
    value = draw(st.one_of(st.none(), st.integers(0, L.n - 1)))
    return L, a, b, value


@settings(derandomize=True, max_examples=150, deadline=None)
@given(frames_with_a_wrong_implication())
def test_adjunction_masks_find_the_cubic_scan_failure(case):
    L, a, b, value = case
    mt = meet_table(L)
    imp = [list(row) for row in reference_implication(L, mt)]
    imp[a][b] = value
    want = reference_adjunction_failure(L, imp, mt)
    assert _adjunction_failure(L, imp, solution_sets(L)) == want
    assert (want is None) == (value == _imp_table(L)[a][b])


@st.composite
def families_of_tables(draw):
    # distinct tables, so the pointwise order on them is a partial order
    P = draw(posets(max_n=7))
    table = st.tuples(*[st.integers(0, P.n - 1)] * P.n)
    tables = draw(st.lists(table, max_size=12, unique=True))
    probe = draw(table)
    masks = draw(st.lists(st.integers(0, (1 << len(tables)) - 1), max_size=6))
    return P, tables, probe, masks


def reference_members(maps, keep):
    """The mask of the maps that keep accepts, one pointwise scan each."""
    return sum(1 << j for j, f in enumerate(maps) if keep(f))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(families_of_tables())
def test_value_rows_match_the_pointwise_scans(case):
    P, tables, probe, masks = case
    rows = value_rows(P, tables)
    maps = [EndoMap(P, t) for t in tables]
    g = EndoMap(P, probe)
    below = reference_members(maps, lambda f: pointwise_leq(f, g))
    above = reference_members(maps, lambda f: pointwise_leq(g, f))
    assert rows.below(probe) == below
    assert rows.above(probe) == above
    up = tuple(reference_members(maps, lambda f: pointwise_leq(m, f)) for m in maps)
    down = tuple(reference_members(maps, lambda f: pointwise_leq(f, m)) for m in maps)
    assert rows.up_rows() == up
    assert tuple(map(rows.below, tables)) == down
    N = FinitePoset(tuple(map(str, range(len(maps)))), up)
    assert N.down == down
    for mask in masks + [below, above, N.full_mask, *up, *down]:
        assert rows_least(rows, mask) == least_of(N, mask)
        assert rows_greatest(rows, mask) == greatest_of(N, mask)
    assert covers(rows.up_rows()) == reference_covers(N)
    assert covers(P.le) == reference_covers(P)


@st.composite
def frames_with_operators(draw):
    # a frame and closure operators on it: on a finite lattice the
    # closure systems are the meet-closed sets holding the top
    L = draw(frames(max_n=10))
    masks = draw(st.lists(st.integers(0, L.full_mask), min_size=1, max_size=4))
    return L, [duality(Subset(L, meet_closure(L, m))) for m in masks]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(frames_with_operators())
def test_order_picks_match_the_value_rows_on_frames(case):
    assert_frame_picks_match_the_value_rows(*case)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(posets(max_n=7))
def test_scott_core_scan_matches_the_value_rows(P):
    assert_scott_core_matches_the_value_rows(P)


@st.composite
def labelled_pairs(draw, max_n=7):
    # labels in a drawn order and order pairs between them, cycles and
    # loops allowed
    n = draw(st.integers(0, max_n))
    labels = draw(st.permutations([f"e{i}" for i in range(n)]))
    index = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * n))
    return labels, [(labels[a], labels[b]) for a, b in pairs]


def reference_closure_rows(labels, pairs):
    """The up rows of the reflexive transitive closure of the pairs."""
    rel = {(a, a) for a in labels} | set(pairs)
    while True:
        grown = rel | {(a, d) for a, b in rel for c, d in rel if b == c}
        if grown == rel:
            break
        rel = grown
    return [sum(1 << j for j, b in enumerate(labels) if (a, b) in rel) for a in labels]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(labelled_pairs())
def test_build_poset_matches_the_checked_constructor(case):
    labels, pairs = case
    rows = reference_closure_rows(labels, pairs)
    if any(rows[j] >> i & 1 for i, row in enumerate(rows) for j in bits(row) if j != i):
        with pytest.raises(CycleDetected):
            build_poset(labels, pairs)
        return
    built, checked = build_poset(labels, pairs), FinitePoset(labels, rows)
    for name in FinitePoset._names:
        assert getattr(built, name) == getattr(checked, name)
    assert type(built.elements) is type(built.le) is tuple
    assert built == checked and hash(built) == hash(checked)


@st.composite
def mask_families(draw, max_n=6):
    # a universe size and a family of subsets of it, as masks
    n = draw(st.integers(0, max_n))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n + 2))


def reference_least_closed(full, family, mask):
    """The intersection of the universe and every member above mask."""
    out = full
    for c in family:
        if mask & ~c == 0:
            out &= c
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mask_families())
def test_least_closed_set_matches_brute_force_intersections(case):
    n, family = case
    full = (1 << n) - 1
    table = least_closed_table(full, family)
    for m in range(full + 1):
        want = reference_least_closed(full, family, m)
        assert least_closed_above(full, family, m) == table[m] == want


@st.composite
def intersection_closed_operators(draw, max_n=5):
    # the closure of an intersection-closed family on an antichain
    A = fx.antichain(draw(st.integers(1, max_n)))
    full = A.full_mask
    family = draw(st.lists(st.integers(0, full), max_size=full + 1))
    closed = _close_under_meets(set(family) | {full})
    table = [reference_least_closed(full, closed, m) for m in range(full + 1)]
    return PowersetOperator(A, "family", table)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(intersection_closed_operators())
def test_linear_order_search_matches_the_relation_search(op):
    rep = acyclicity(op, "search")
    assert rep["acyclic"] == (reference_relation_search(op) is not None)
    if rep["acyclic"]:
        rows = order_rows(op.universe, rep["order"])
        assert funnel_check(op, rows)["is_funnel"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rule_sets(), st.lists(st.integers(0, 63), max_size=6))
def test_sigma_and_rho_match_per_mask_and_per_body_scans(R, family):
    P = R.poset
    assert [X.mask for X in sigma(P, R)] == reference_sigma(R)
    masks = [m & P.full_mask for m in family]
    assert rho(P, [Subset(P, m) for m in masks])._heads == reference_rho(P, masks)


@st.composite
def preorders(draw, max_n=7):
    # up rows of the reflexive transitive closure of a drawn relation;
    # a cycle in the relation makes a class of several elements
    n = draw(st.integers(0, max_n))
    rows = [1 << i for i in range(n)]
    if n:
        element = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(element, element), max_size=2 * n))
        for a, b in pairs:
            rows[a] |= 1 << b
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def reference_upper_sets(rows):
    return [
        u
        for u in range(1 << len(rows))
        if all(rows[i] & ~u == 0 for i in bits(u))
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(preorders())
@example([0b111, 0b111, 0b100])  # 0 and 1 in one class, below 2
@example([0b11, 0b11])  # one class of two
def test_upper_set_descent_matches_the_mask_scan(rows):
    assert upper_sets(rows) == reference_upper_sets(rows)


def reference_sccore(gamma):
    # every closure operator a checked value, filtered pair by pair
    P = gamma.poset
    ops = [duality(Subset(P, m)) for m in closure_system_masks(P)]
    below = [
        op for op in ops if pointwise_leq(op, gamma) and is_scott_continuous(op)
    ]
    return next(op for op in below if all(pointwise_leq(o, op) for o in below))


@st.composite
def closure_operators(draw):
    P = draw(posets())
    return duality(Subset(P, draw(st.sampled_from(closure_system_masks(P)))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(closure_operators())
def test_sccore_scan_matches_the_per_system_route(gamma):
    core = sccore_bruteforce(gamma)
    assert type(core) is type(gamma)
    assert core == reference_sccore(gamma) == sccore(gamma)
