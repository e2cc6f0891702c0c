"""Meet structure, implication, nuclei, and the lattice they form.

validate_structure grades a poset: meet semilattice, preframe (directed
joins exist and binary meets distribute over them), frame (all joins and
meets exist and binary meets distribute over arbitrary joins).  Nothing
is inferred from finiteness; each level is checked definitionally, so
the standard collapses for finite posets show up as results, not
assumptions.  The check stays exhaustive (every directed subset, every
subset, every x).  The preframe law is Scott continuity of x meet -,
decided by order.directed_join_faults on the bit columns of the
directed subsets, listed by their maximum (a finite subset is directed
iff it is nonempty with a maximum), once per value of the map rather
than per top, and checked there against the finite shortcut: x meet -
is monotone.
The frame law reads joins, meets and the joins of meet images from the
frame's subset tables (order.subset_tables), built by doubling once
per frame and kept on it: one bytes.translate per element, O(2^n)
table steps per table rather than a bound scan or an n-step image per
subset.

Implication a => b is the largest x with x meet a <= b, read from the
join table at the solution set, a union of meet preimages.  The table
is built once per frame, and the adjunction law, verified at build
time as one mask equality per pair (the down-set of a => b is the
solution set), is also the check that each join exists and is a
solution.  The double-implication nucleus reads each of its meets from
the same frame's meet table, the empty set's meet being the top.

A Nucleus is a ClosureOperator, and so an EndoMap, that preserves
binary meets; .op and .map give the plain values back.  Its
constructor checks a caller's value, and every nucleus built here is
checked by closure.trusted_operators under its route's name.  The
formulas (nucsys, the double-implication nucleus, regular nuclei, core
and least nucleus above) are each paired with an independent
brute-force route over the full enumeration of nuclei; disagreement
raises, loudly.  Each fact is decided in one place: is_nuclear_system
is nucsys's answer compared with X, and a comparison of routes is an
errors.agree.
That enumeration rests on the definition alone, never on implication:
the top-down descent of order.closure_tables, given the meet table,
keeps a branch only while it preserves the meets it has decided, so
the cost follows the number of nuclei rather than the number of
closure systems.  Each nucleus is carried with its fixpoint mask, and
once trusted_operators has checked that its table fixes exactly that
mask, the lookups by fixpoint set and the order picks (c <= d iff
fix d is inside fix c) read the masks as they are.

The nuclei form a frame N(L), checked exactly on pairs of nuclei,
which carry the laws to every family by induction; distributivity is
decided by Birkhoff's test and by its dual, in O(k^2) for k nuclei,
and the bit length of k is gated by the cap before the first pair.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from .bitset import (
    bits,
    distributivity_failure,
    image,
    least_closed_above,
    lowest,
    mask_word,
    union_of,
)
from .errors import (
    NotAFrame,
    NotANucleus,
    NotMeetSemilattice,
    NotPreframe,
    NotPrenucleus,
    TheoremBreach,
    agree,
)
from .closure import (
    ClosureOperator,
    checked,
    generate_closure,
    trusted_operators,
)
from .maps import (
    EndoMap,
    is_ascending,
    is_idempotent,
    is_increasing,
    preserves_binary_meets,
    value_rows,
)
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    Value,
    bottom_index,
    check_cap,
    closure_tables,
    derived,
    directed_join_faults,
    directed_masks,
    family_poset,
    image_joins,
    meet_closure,
    meet_table,
    same_poset,
    solution_sets,
    subset_tables,
    top_index,
)

# the default cap on the bit length of k, the number of nuclei whose
# k^2 pairs frame_of_nuclei_check walks: chain(12), with 2,048 nuclei,
# passes, and chain(13) is refused
NUCLEUS_PAIR_CAP = 12


class FrameView(Value):
    """Validation verdict for one poset's meet and join structure."""

    poset: FinitePoset
    level: Optional[str]  # None | "meet_semilattice" | "preframe" | "frame"
    witness: Optional[str]

    _fields = ("poset", "level", "witness")

    def __init__(
        self, poset: FinitePoset, level: Optional[str], witness: Optional[str]
    ):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "witness", witness)

    def __repr__(self):
        return (
            f"FrameView(poset={self.poset!r}, level={self.level!r}, "
            f"witness={self.witness!r})"
        )


def _validate_structure(P: FinitePoset) -> FrameView:
    mt = meet_table(P)
    if mt is None:
        return FrameView(P, None, "some pair of elements has no meet")
    n = P.n
    # preframe: every directed join exists (it does, definitionally
    # confirmed) and each map y -> x meet y preserves directed joins.
    # The witness is the least failing (subset, x), read off the columns.
    failed = [
        (dmask, x)
        for x in range(n)
        for dmask in directed_masks(P, directed_join_faults(P, mt[x], n))
    ]
    if failed:
        dmask, x = min(failed)
        return FrameView(
            P,
            "meet_semilattice",
            f"meet with {P.label(x)!r} does not distribute over "
            f"the directed join of {{{', '.join(P.labels_of(dmask))}}}",
        )
    # frame: complete lattice plus full distributivity.  For each x,
    # image_joins(tables, row) holds the join of x's meet image of every
    # subset, and translating through row sends the join y of each
    # subset to x meet y, so both sides of each law are read from tables.
    tables = subset_tables(P)
    join = tables.join
    gaps = [m for m in (join.find(n), tables.meet.find(n)) if m >= 0]
    if gaps:
        return FrameView(
            P,
            "preframe",
            f"{{{', '.join(P.labels_of(min(gaps)))}}} lacks a join or meet",
        )
    for x, row in enumerate(mt):
        got = image_joins(tables, row)
        want = join.translate(bytes(row).ljust(256, b"\0"))
        if got != want:
            m = next(k for k, (u, v) in enumerate(zip(got, want)) if u != v)
            return FrameView(
                P,
                "preframe",
                f"meet with {P.label(x)!r} does not distribute over "
                f"the join of {{{', '.join(P.labels_of(m))}}}",
            )
    return FrameView(P, "frame", None)


def validate_structure(P: FinitePoset, cap: Optional[int] = None) -> FrameView:
    check_cap("structure validation", P.n, cap, SUBSET_CAP)
    return derived(P, _validate_structure)


def require_frame(P: FinitePoset, cap: Optional[int] = None) -> FinitePoset:
    fv = validate_structure(P, cap)
    if fv.level != "frame":
        raise NotAFrame(f"not a frame: {fv.witness or 'no meets'}")
    return P


def require_preframe(P: FinitePoset, cap: Optional[int] = None) -> FinitePoset:
    fv = validate_structure(P, cap)
    if fv.level not in ("preframe", "frame"):
        raise NotPreframe(f"not a preframe: {fv.witness or 'no meets'}")
    return P


# ---------------------------------------------------------------------------
# implication


def _imp_table(P: FinitePoset) -> tuple[tuple[int, ...], ...]:
    """imp[a][b] = largest x with x meet a <= b: the join of its
    solution set (order.solution_sets), read from the frame's join table
    (P.n where it is missing).  Frame assumed; the adjunction law, which
    holds iff every such join exists and is a solution, is verified here
    once and breaches are fatal.  Read it through derived(P, _imp_table)."""
    sols = derived(P, solution_sets)
    join = subset_tables(P).join
    imp = tuple(tuple(join[s] for s in row) for row in sols)
    failed = _adjunction_failure(P, imp, sols)
    if failed is not None:
        x, a, b = map(P.label, failed)
        raise TheoremBreach(
            f"implication adjunction failed at x={x!r} a={a!r} b={b!r}"
        )
    return imp


def _adjunction_failure(P: FinitePoset, imp, sols) -> Optional[tuple[int, int, int]]:
    """The first triple (x, a, b), in x-major order, where x <= (a => b)
    and x meet a <= b differ, or None when the adjunction holds: per
    pair (a, b), the least x in the symmetric difference of the down-set
    of a => b and the solutions sols[a][b], n^2 mask comparisons.  A
    missing a => b (None, or P.n as the join table marks it) fails at
    every x."""
    missing = (None, P.n)
    failed = []
    for a, (row, sol) in enumerate(zip(imp, sols)):
        for b, (r, s) in enumerate(zip(row, sol)):
            diff = P.full_mask if r in missing else P.down[r] ^ s
            if diff:
                failed.append((lowest(diff), a, b))
    return min(failed, default=None)


def implication_table(L: FinitePoset, cap: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    P = require_frame(L, cap)
    return derived(P, _imp_table)


def heyting_implication(L: FinitePoset, a: str, b: str, cap: Optional[int] = None) -> str:
    P = require_frame(L, cap)
    imp = derived(P, _imp_table)
    return P.label(imp[P.index(a)][P.index(b)])


def adjunction_check(L: FinitePoset, cap: Optional[int] = None) -> bool:
    """x <= (a => b) iff x meet a <= b, for all triples: the implication
    table's build decides it, and raises TheoremBreach on a failing
    triple, so a built table is the law holding."""
    implication_table(L, cap)
    return True


def _impl_columns(P: FinitePoset) -> tuple[int, ...]:
    """cols[x] = the mask of every a => x.  Read it through
    derived(P, _impl_columns), on a frame."""
    return tuple(map(image, zip(*derived(P, _imp_table))))


# ---------------------------------------------------------------------------
# prenuclei and nuclei


def is_prenucleus(f: EndoMap) -> bool:
    """Ascending and binary-meet-preserving.

    Such a map is automatically increasing; that implication is
    re-derived here and its failure is an internal error.
    """
    if meet_table(f.poset) is None:
        raise NotMeetSemilattice("prenuclei need pairwise meets")
    ok = is_ascending(f) and bool(preserves_binary_meets(f))
    if ok and not is_increasing(f):
        raise TheoremBreach(
            f"meet-preserving ascending map {f!r} is not increasing"
        )
    return ok


def is_nucleus_map(f: EndoMap) -> bool:
    return is_prenucleus(f) and is_idempotent(f)


class Nucleus(ClosureOperator):
    """A closure operator preserving binary meets.

    Nucleus(f) takes any EndoMap f and checks these laws after
    ClosureOperator's own, skipping those f has passed as a
    ClosureOperator or Nucleus already.
    """

    preserves_meets = True

    def __post_init__(self):
        if meet_table(self.poset) is None:
            raise NotMeetSemilattice("nuclei need pairwise meets")
        if not preserves_binary_meets(self):
            raise NotANucleus(
                f"{EndoMap.__repr__(self)} does not preserve binary meets"
            )

    @property
    def op(self) -> ClosureOperator:
        """The same table as a plain ClosureOperator."""
        return ClosureOperator(self)


def nucleus_meet(a: Nucleus, b: Nucleus) -> Nucleus:
    """Pointwise meet; a nucleus again, by theorem rather than by luck."""
    P = same_poset(a.poset, b.poset)
    mt = meet_table(P)
    if mt is None:
        raise NotMeetSemilattice("nucleus meet needs pairwise meets")
    table = tuple(mt[x][y] for x, y in zip(a.table, b.table))
    return checked(Nucleus, P, table, "pointwise nucleus meet")


def fix_of_meet_check(a: Nucleus, b: Nucleus) -> bool:
    """Fixpoints of the meet are exactly pairwise meets of fixpoints."""
    P = same_poset(a.poset, b.poset)
    mt = meet_table(P)
    want = image(mt[x][y] for x in bits(a.fix_mask) for y in bits(b.fix_mask))
    agree(
        "fixpoints of a nucleus meet",
        (a, b),
        meet=nucleus_meet(a, b).fix,
        meets_of_fixpoints=Subset(P, want),
    )
    return True


def nucleus_join(
    Gamma: Sequence[EndoMap],
    poset: Optional[FinitePoset] = None,
    cap: Optional[int] = None,
) -> Nucleus:
    """Join of a family of prenuclei on a preframe: the generated
    closure operator, which the generation theorem promises is a
    nucleus.  The empty family yields the identity.  Members given as
    Nucleus objects are not tested again; the generated join is checked
    as a nucleus on every call."""
    P = family_poset(Gamma, poset)
    require_preframe(P, cap)
    for g in Gamma:
        if not isinstance(g, Nucleus) and not is_prenucleus(g):
            raise NotPrenucleus(f"{g!r} is not a prenucleus")
    gen = generate_closure(Gamma, P)
    return checked(Nucleus, P, gen.table, "generated join of prenuclei")


def _nuclei_leaves(P: FinitePoset) -> list[tuple[int, tuple[int, ...]]]:
    # the descent's (fixpoint mask, table) leaves in the order of
    # _nuclei; cap-free, like it
    leaves = closure_tables(P, meet_table(P))
    leaves.sort(key=lambda s: (-s[0].bit_count(), s[0]))
    return leaves


def _nuclei(P: FinitePoset) -> tuple[Nucleus, ...]:
    # cap-free; every caller has passed a meet check and a cap gate
    leaves = derived(P, _nuclei_leaves)
    return trusted_operators(Nucleus, P, leaves, "nuclei descent")


def _nuclei_by_fix(P: FinitePoset) -> dict[int, int]:
    # fixpoint set -> index of its nucleus in _nuclei, read from the
    # masks carried with the tables, which trusted_operators proved each
    # table fixes; cap-free, like it
    derived(P, _nuclei)
    return {m: i for i, (m, _) in enumerate(derived(P, _nuclei_leaves))}


def _nuclei_rows(P: FinitePoset):
    # the value rows of the nuclei in _nuclei; cap-free, like it
    return value_rows(P, [nu.table for nu in derived(P, _nuclei)])


def enumerate_nuclei(P: FinitePoset, cap: Optional[int] = None) -> list[Nucleus]:
    """All nuclei, listed along a linear extension of the pointwise
    order: larger fixpoint sets (smaller nuclei) first.

    The tables come from the one top-down descent, order.closure_tables,
    pruned on meet preservation, and pass closure.trusted_operators
    once per poset; later calls pass the same gates and return the
    same nuclei."""
    if meet_table(P) is None:
        raise NotMeetSemilattice("nuclei need pairwise meets")
    check_cap("nucleus enumeration", P.n, cap, SUBSET_CAP)
    return list(derived(P, _nuclei))


# ---------------------------------------------------------------------------
# nuclear systems


def is_nuclear_system(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> bool:
    """X is the fixpoint set of some nucleus: it is its own least
    nuclear system.  nucsys decides that along both of its routes, the
    enumerated systems (X is among them) and the implication image
    (as 1 => x = x, X is a closure system absorbing L => X iff its meet
    closure is X).
    """
    return nucsys(L, X, cap).mask == X.mask


def nucsys(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> Subset:
    """Least nuclear system containing X, computed twice and compared:
    the intersection of the nuclear systems containing X, and the least
    closure system holding the implication image L => X.  A frame is a
    finite lattice, where the closure systems are the meet-closed sets
    that hold the top, so the second route is order.meet_closure of
    that image and lists no closure system.
    """
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    systems = derived(P, _nuclei_by_fix)
    inter = least_closed_above(P.full_mask, systems, X.mask)
    if inter not in systems:
        raise TheoremBreach(
            "intersection of nuclear systems is not a nuclear system"
        )
    formula = meet_closure(P, union_of(derived(P, _impl_columns), X.mask))
    return agree(
        "least nuclear system",
        X,
        intersection=Subset(P, inter),
        implication_formula=Subset(P, formula),
    )


def _double_implication(P: FinitePoset, xs: int, route: str) -> Nucleus:
    """The nucleus y -> meet over x in xs of ((y => x) => x), built by
    route, each meet read from the frame's meet table; a missing meet
    (P.n) is a breach that names the route."""
    imp = derived(P, _imp_table)
    meet = subset_tables(P).meet
    table = []
    for y in range(P.n):
        vals = 0
        for x in bits(xs):
            vals |= 1 << imp[imp[y][x]][x]
        v = meet[vals]  # the empty mask's meet is the top, which a frame has
        if v == P.n:
            raise TheoremBreach(
                f"{route}: the meet at {P.label(y)!r} does not exist"
            )
        table.append(v)
    return checked(Nucleus, P, tuple(table), route)


def nuc_map(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> Nucleus:
    """The nucleus y -> meet over x in X of ((y => x) => x).

    Its fixpoints are the least nuclear system containing X; that
    equality is checked on every call.
    """
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    nu = _double_implication(P, X.mask, "double-implication formula")
    agree(
        "least nuclear system",
        X,
        double_implication=nu.fix,
        nucsys=nucsys(L, X, cap),
    )
    return nu


def regular_nucleus(L: FinitePoset, x: str, cap: Optional[int] = None) -> Nucleus:
    """The nucleus y -> ((y => x) => x); fixpoints are L => x."""
    P = require_frame(L, cap)
    nu = nuc_map(L, Subset.of(P, [x]), cap)
    want = derived(P, _impl_columns)[P.index(x)]
    agree(
        "regular nucleus fixpoints",
        x,
        nuc_map=nu.fix,
        implication_image=Subset(P, want),
    )
    return nu


def least_nucleus_above(
    L: FinitePoset, gamma: ClosureOperator, cap: Optional[int] = None
) -> Nucleus:
    """Least nucleus above a closure operator on a frame.

    Formula route: the pointwise meet of the regular nuclei at those
    fixpoints x of gamma with gamma below the regular nucleus at x.
    Enumeration route: the nuclei above gamma are those whose carried
    fixpoint masks lie inside fix gamma, and the answer is the one
    fixing their union.  Both must agree, and the fixpoint set must
    match its two known descriptions.
    """
    P = require_frame(L, cap)
    same_poset(P, gamma.poset)
    imp = derived(P, _imp_table)
    cmask = gamma.fix_mask
    # the x in fix gamma whose regular nucleus y -> (y => x) => x lies
    # above gamma
    chosen = 0
    for x in bits(cmask):
        if all(
            P.le[g] >> imp[imp[y][x]][x] & 1 for y, g in enumerate(gamma.table)
        ):
            chosen |= 1 << x
    nu = _double_implication(P, chosen, "meet of regular nuclei")
    # fixpoint set, two descriptions: the x in L, and the x in fix gamma,
    # whose implication image L => x lies in fix gamma
    cols = derived(P, _impl_columns)
    want_in_l = sum(1 << x for x in range(P.n) if cols[x] & ~cmask == 0)
    agree(
        "fixpoints of the least nucleus above",
        gamma,
        formula=nu.fix,
        implication_in_fixpoints=Subset(P, want_in_l & cmask),
        implication_in_poset=Subset(P, want_in_l),
    )
    # brute force
    nucs = enumerate_nuclei(L, cap)
    union = 0
    for m, _ in derived(P, _nuclei_leaves):
        if not m & ~cmask:
            union |= m
    i = derived(P, _nuclei_by_fix).get(union)
    least = None if i is None else nucs[i]
    return agree("least nucleus above", gamma, formula=nu, enumeration=least)


def nuclear_core(
    L: FinitePoset, gamma: ClosureOperator, cap: Optional[int] = None
) -> Nucleus:
    """Greatest nucleus below a closure operator on a frame.

    Formula route: the double-implication nucleus of gamma's image.
    Enumeration route: the nuclei below gamma are those whose carried
    fixpoint masks hold fix gamma, and the answer is the one fixing the
    intersection of those masks, so it lies below gamma.
    """
    P = require_frame(L, cap)
    same_poset(P, gamma.poset)
    nu = nuc_map(L, Subset(P, gamma.image_mask(P.full_mask)), cap)
    nucs = enumerate_nuclei(L, cap)
    fixes = (m for m, _ in derived(P, _nuclei_leaves))
    inter = least_closed_above(P.full_mask, fixes, gamma.fix_mask)
    i = derived(P, _nuclei_by_fix).get(inter)
    greatest = None if i is None else nucs[i]
    return agree("greatest nucleus below", gamma, formula=nu, enumeration=greatest)


# ---------------------------------------------------------------------------
# the lattice of nuclei


def frame_of_nuclei_check(L: FinitePoset, cap: Optional[int] = None) -> dict:
    """Structure report for N(L), the nuclei on a preframe L in the
    pointwise order, checked exactly on every input.

    N(L) is finite, so pairs suffice: a nonempty family's join or meet
    is an iterated binary one, the empty family's are the bottom and
    the top, and a finite lattice is a frame iff it is distributive.
    N(L) is built as a FinitePoset on the up rows of the nuclei's value
    rows (maps.value_rows), which read only their tables.  The join
    of each pair must be the nucleus fixing the intersection of their
    fixpoints (the generation route), with the intersection of their up
    rows as its up row; the meet must be pointwise, with the
    intersection of their down rows.  Distributivity is decided twice
    and compared: Birkhoff's test on those joins, and the dual test on
    those meets.  The validating nucleus_join must give the bottom, the
    top and each join of neighbours in enumeration order.  Any failure
    raises TheoremBreach; the returned report is for humans.

    Every nucleus is Scott continuous: maps.closure_table_fault proved
    its table monotone when it was built, and on a finite poset that is
    Scott continuity, the finite collapse order.directed_join_faults
    checks its columns against wherever it runs.

    The pair loop grows with k^2 for k nuclei, so the bit length of k is
    gated by cap (default NUCLEUS_PAIR_CAP) before any pair is examined.
    """
    P = require_preframe(L, cap)
    nucs = enumerate_nuclei(L, cap)
    k, n = len(nucs), P.n
    check_cap("nucleus pair check", k.bit_length(), cap, NUCLEUS_PAIR_CAP)
    mt = meet_table(P)
    tables = [nu.table for nu in nucs]
    fixes = [m for m, _ in derived(P, _nuclei_leaves)]  # checked by enumerate_nuclei
    up = derived(P, _nuclei_rows).up_rows()
    try:
        N = FinitePoset(tuple(map(str, range(k))), tuple(up))
    except ValueError as e:
        raise TheoremBreach(f"pointwise order on nuclei: {e}") from e
    down = N.down
    by_fix = derived(P, _nuclei_by_fix)
    by_table = {t: i for i, t in enumerate(tables)}
    # k x k join and meet tables, each row an array of nucleus indices
    word = mask_word((k - 1).bit_length())
    join = [array(word, [0]) * k for _ in range(k)]
    meet = [array(word, [0]) * k for _ in range(k)]
    for i, (ti, fi, ui, di) in enumerate(zip(tables, fixes, up, down)):
        for j in range(i, k):
            z = by_fix.get(fi & fixes[j])
            if z is None or up[z] != ui & up[j]:
                raise TheoremBreach(
                    "join of nuclei by fixpoint intersection is not their "
                    "least upper bound"
                )
            m = by_table.get(tuple(mt[a][b] for a, b in zip(ti, tables[j])))
            if m is None or down[m] != di & down[j]:
                raise TheoremBreach("meet of two nuclei is not pointwise")
            join[i][j] = join[j][i] = z
            meet[i][j] = meet[j][i] = m
    bot, top = bottom_index(N), top_index(N)
    if bot is None or top is None:
        raise TheoremBreach("nuclei do not form a complete lattice")
    distributive = agree(
        "distributivity of the nuclei",
        L,
        join_prime=distributivity_failure(down, join) is None,
        meet_prime=distributivity_failure(up, meet) is None,
    )
    if not distributive:
        raise TheoremBreach(
            "binary meet fails to distribute over a join of nuclei"
        )

    probe = [((), bot), (tuple(range(k)), top)]
    probe += [((i, i + 1), join[i][i + 1]) for i in range(k - 1)]
    for fam, want in probe:
        agree(
            "join of nuclei",
            fam,
            generation=nucleus_join([nucs[i] for i in fam], P, cap).table,
            join_table=tables[want],
        )

    return {
        "nucleus_count": k,
        "nuclei": [nu.fix.labels for nu in nucs],
        "order_pairs": [
            (i, j) for i in range(k) for j in bits(up[i] & ~(1 << i))
        ],
        "is_complete_lattice": True,
        "exhaustive": True,
        "bottom_is_identity": tables[bot] == tuple(range(n)),
        "top_fix": nucs[top].fix.labels,
        "meets_pointwise": True,
        "all_scott_continuous": True,
    }
