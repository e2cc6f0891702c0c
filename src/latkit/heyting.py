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
iff it is nonempty with a maximum), and checked there against the
finite shortcut: x meet - is monotone.
The frame law reads joins, meets and meet images from incremental
bound and image tables (order.join_meet_tables and order.image_masks),
in O(n 2^n) table steps rather than a bound scan per subset.

Implication a => b is the largest x with x meet a <= b.  The table is
built once per frame and the adjunction law is verified at build time.

A Nucleus is a ClosureOperator, and so an EndoMap, that preserves
binary meets: its constructor runs the ClosureOperator checks its
argument has not passed yet and then that one, and .op and .map give
the plain ClosureOperator and EndoMap back.  The formulas here
(nucsys, the double-implication nucleus, regular nuclei, core and
least nucleus above) are each paired with an independent brute-force
route over the full enumeration of nuclei; disagreement raises,
loudly.
That enumeration rests on the definition alone, never on implication:
the top-down descent of order.closure_tables, given the meet table,
keeps a branch only while it preserves the meets it has decided, so
the cost follows the number of nuclei rather than the number of
closure systems, and the tests check the list against a filter of
every closure system.  Its leaves are not run through the Nucleus
constructor one by one: maps.closure_table_fault decides the laws of
every leaf in one pass, O(n) masks per table against its fixpoint
mask, on any meet-semilattice, and the nuclei are built trusted.

The nuclei form a frame N(L), checked exactly on pairs of nuclei,
which carry the laws to every family by induction; distributivity is
decided by Birkhoff's test and by its dual, in O(k^2) for k nuclei.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    NotAFrame,
    NotANucleus,
    NotMeetSemilattice,
    NotPreframe,
    NotPrenucleus,
    TheoremBreach,
    agree,
    produced,
)
from .closure import (
    ClosureOperator,
    generate_closure,
    is_closure_system,
    trusted_operators,
)
from .maps import (
    EndoMap,
    is_ascending,
    is_idempotent,
    is_increasing,
    is_scott_continuous,
    pointwise_leq,
    preserves_binary_meets,
    value_rows,
)
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    bits,
    bottom_index,
    check_cap,
    closure_tables,
    derived,
    directed_join_faults,
    directed_masks,
    distributivity_failure,
    family_poset,
    image_masks,
    join_meet_tables,
    join_of,
    least_closed_above,
    meet_closure,
    meet_of,
    meet_table,
    popcount,
    same_poset,
    top_index,
    union_of,
)


@dataclass(frozen=True)
class FrameView:
    """Validation verdict for one poset's meet and join structure."""

    poset: FinitePoset
    level: Optional[str]  # None | "meet_semilattice" | "preframe" | "frame"
    witness: Optional[str]


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
    # frame: complete lattice plus full distributivity
    join, meet = join_meet_tables(P)
    joins = list(join)  # indexed faster than the bytearray
    # For each x, image_masks(mt[x]) holds x's meet image of every
    # subset, and meets[x] sends an element index y to x meet y, so
    # both sides of each distributive law are read from tables.
    meets = [bytes(row).ljust(256, b"\0") for row in mt]
    gaps = [m for m in (join.find(n), meet.find(n)) if m >= 0]
    if gaps:
        return FrameView(
            P,
            "preframe",
            f"{{{', '.join(P.labels_of(min(gaps)))}}} lacks a join or meet",
        )
    for x in range(n):
        got = bytes(map(joins.__getitem__, image_masks(mt[x])))
        want = join.translate(meets[x])
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
    """imp[a][b] = largest x with x meet a <= b.  Frame assumed; the
    adjunction law is verified here once and breaches are fatal.  Read
    it through derived(P, _imp_table)."""
    mt = meet_table(P)
    assert mt is not None
    n = P.n
    imp = []
    for a in range(n):
        row = []
        for b in range(n):
            cand = 0
            for x in range(n):
                if P.le[mt[x][a]] >> b & 1:
                    cand |= 1 << x
            r = join_of(P, cand)
            if r is None or not cand >> r & 1:
                raise TheoremBreach(
                    "join of the implication solution set escaped the set; "
                    f"a={P.label(a)!r} b={P.label(b)!r}"
                )
            row.append(r)
        imp.append(tuple(row))
    failed = _adjunction_failure(P, imp, mt)
    if failed is not None:
        x, a, b = map(P.label, failed)
        raise TheoremBreach(
            f"implication adjunction failed at x={x!r} a={a!r} b={b!r}"
        )
    return tuple(imp)


def _adjunction_failure(P: FinitePoset, imp, mt) -> Optional[tuple[int, int, int]]:
    """The first triple (x, a, b) where x <= (a => b) and x meet a <= b
    differ, or None when the adjunction holds."""
    for x in range(P.n):
        for a in range(P.n):
            for b in range(P.n):
                if (P.le[x] >> imp[a][b] & 1) != (P.le[mt[x][a]] >> b & 1):
                    return x, a, b
    return None


def implication_table(L: FinitePoset, cap: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    P = require_frame(L, cap)
    return derived(P, _imp_table)


def heyting_implication(L: FinitePoset, a: str, b: str, cap: Optional[int] = None) -> str:
    P = require_frame(L, cap)
    imp = derived(P, _imp_table)
    return P.label(imp[P.index(a)][P.index(b)])


def adjunction_check(L: FinitePoset, cap: Optional[int] = None) -> bool:
    """x <= (a => b) iff x meet a <= b, for all triples."""
    P = require_frame(L, cap)
    return _adjunction_failure(P, derived(P, _imp_table), meet_table(P)) is None


def _impl_columns(P: FinitePoset) -> tuple[int, ...]:
    """cols[x] = the mask of every a => x.  Read it through
    derived(P, _impl_columns), on a frame."""
    cols = [0] * P.n
    for row in derived(P, _imp_table):
        for x, v in enumerate(row):
            cols[x] |= 1 << v
    return tuple(cols)


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


@dataclass(frozen=True, init=False, repr=False)
class Nucleus(ClosureOperator):
    """A closure operator preserving binary meets.

    Nucleus(f) takes any EndoMap f and checks these laws after
    ClosureOperator's own, skipping those f has passed as a
    ClosureOperator or Nucleus already.
    """

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
    with produced("pointwise nucleus meet"):
        return Nucleus(EndoMap(P, table))


def fix_of_meet_check(a: Nucleus, b: Nucleus) -> bool:
    """Fixpoints of the meet are exactly pairwise meets of fixpoints."""
    P = same_poset(a.poset, b.poset)
    mt = meet_table(P)
    want = 0
    for x in bits(a.fix_mask):
        for y in bits(b.fix_mask):
            want |= 1 << mt[x][y]
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
    Nucleus objects were validated when built and are not tested again;
    the generated join is validated as a nucleus on every call."""
    P = family_poset(Gamma, poset)
    require_preframe(P, cap)
    for g in Gamma:
        if not isinstance(g, Nucleus) and not is_prenucleus(g):
            raise NotPrenucleus(f"{g!r} is not a prenucleus")
    gen = generate_closure(Gamma, P)
    with produced("generated join of prenuclei"):
        return Nucleus(gen)


def _nuclei(P: FinitePoset) -> tuple[Nucleus, ...]:
    # cap-free; every caller has passed a meet check and a cap gate
    mt = meet_table(P)
    leaves = closure_tables(P, mt)
    leaves.sort(key=lambda s: (-popcount(s[0]), s[0]))
    with produced("nuclei descent"):
        return trusted_operators(Nucleus, P, leaves, mt)


def _nuclei_by_fix(P: FinitePoset) -> dict[int, int]:
    # fixpoint set -> index of its nucleus in _nuclei; cap-free, like it
    return {nu.fix_mask: i for i, nu in enumerate(derived(P, _nuclei))}


def _nuclei_rows(P: FinitePoset):
    # the value rows of the nuclei in _nuclei; cap-free, like it
    return value_rows(P, [nu.table for nu in derived(P, _nuclei)])


def enumerate_nuclei(P: FinitePoset, cap: Optional[int] = None) -> list[Nucleus]:
    """All nuclei, listed along a linear extension of the pointwise
    order: larger fixpoint sets (smaller nuclei) first.

    The tables come from the one top-down descent, order.closure_tables,
    pruned on meet preservation.  Every leaf's laws are then decided
    once, in one pass of maps.closure_table_fault against its carried
    fixpoint mask, and the nuclei are built trusted.  The nuclei are
    built once per poset; later calls pass the same gates and return
    the same nuclei."""
    if meet_table(P) is None:
        raise NotMeetSemilattice("nuclei need pairwise meets")
    check_cap("nucleus enumeration", P.n, cap, SUBSET_CAP)
    return list(derived(P, _nuclei))


# ---------------------------------------------------------------------------
# nuclear systems


def is_nuclear_system(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> bool:
    """X is the fixpoint set of some nucleus.

    Decided two ways: by membership in the enumerated fixpoint sets, and
    by the implication characterization (a closure system that absorbs
    a => x for every a and every x in it).  The two must agree.
    """
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    by_enum = X.mask in derived(P, _nuclei_by_fix)
    cols = derived(P, _impl_columns)
    by_impl = is_closure_system(X) and union_of(cols, X.mask) & ~X.mask == 0
    return agree(
        "nuclear-system status", X, enumeration=by_enum, implication=by_impl
    )


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


def _double_implication(
    P: FinitePoset, xs: int, route: str, missing: str
) -> Nucleus:
    """The nucleus y -> meet over x in xs of ((y => x) => x), built by
    route; missing is the breach text when a meet does not exist."""
    imp = derived(P, _imp_table)
    table = []
    for y in range(P.n):
        vals = 0
        for x in bits(xs):
            vals |= 1 << imp[imp[y][x]][x]
        v = meet_of(P, vals)  # empty meet is the top, which a frame has
        if v is None:
            raise TheoremBreach(missing)
        table.append(v)
    with produced(route):
        return Nucleus(EndoMap(P, tuple(table)))


def nuc_map(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> Nucleus:
    """The nucleus y -> meet over x in X of ((y => x) => x).

    Its fixpoints are the least nuclear system containing X; that
    equality is checked on every call.
    """
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    nu = _double_implication(
        P,
        X.mask,
        "double-implication formula",
        "double-implication meet does not exist",
    )
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
    Enumeration route: the nuclei above gamma, read from the value rows
    of the nuclei, and the one among them whose up row covers them all.
    Both must agree, and the fixpoint set must match its two known
    descriptions.
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
    nu = _double_implication(
        P,
        chosen,
        "meet of regular nuclei",
        "meet of regular nuclei does not exist",
    )
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
    rows = derived(P, _nuclei_rows)
    i = rows.least(rows.above(gamma.table))
    least = None if i is None else nucs[i]
    return agree("least nucleus above", gamma, formula=nu, enumeration=least)


def nuclear_core(
    L: FinitePoset, gamma: ClosureOperator, cap: Optional[int] = None
) -> Nucleus:
    """Greatest nucleus below a closure operator on a frame.

    Formula route: the double-implication nucleus of gamma's image.
    Enumeration route: the nuclei below gamma, read from the value rows
    of the nuclei, and the one among them whose down row covers them
    all.
    """
    P = require_frame(L, cap)
    same_poset(P, gamma.poset)
    nu = nuc_map(L, Subset(P, gamma.image_mask(P.full_mask)), cap)
    nucs = enumerate_nuclei(L, cap)
    rows = derived(P, _nuclei_rows)
    i = rows.greatest(rows.below(gamma.table))
    greatest = None if i is None else nucs[i]
    agree("greatest nucleus below", gamma, formula=nu, enumeration=greatest)
    if not pointwise_leq(nu, gamma):
        raise TheoremBreach("nuclear core sits above its operator")
    return nu


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
    those meets.  Every nucleus must be Scott continuous, and the
    validating nucleus_join must give the bottom, the top and each join
    of neighbours in enumeration order.  Any failure raises
    TheoremBreach; the returned report is for humans.
    """
    P = require_preframe(L, cap)
    nucs = enumerate_nuclei(L, cap)
    k, n = len(nucs), P.n
    mt = meet_table(P)
    tables = [nu.table for nu in nucs]
    fixes = [nu.fix_mask for nu in nucs]
    up = derived(P, _nuclei_rows).up_rows()
    try:
        N = FinitePoset(tuple(map(str, range(k))), tuple(up))
    except ValueError as e:
        raise TheoremBreach(f"pointwise order on nuclei: {e}") from e
    down = N.down
    by_fix = derived(P, _nuclei_by_fix)
    by_table = {t: i for i, t in enumerate(tables)}
    join = [[0] * k for _ in range(k)]
    meet = [[0] * k for _ in range(k)]
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

    for nu in nucs:
        if not is_scott_continuous(nu, cap):
            raise TheoremBreach("a nucleus failed Scott continuity")

    probe = [((), bot), (tuple(range(k)), top)]
    probe += [((i, i + 1), join[i][i + 1]) for i in range(k - 1)]
    for fam, want in probe:
        gen = nucleus_join([nucs[i] for i in fam], P, cap)
        if gen.table != tables[want]:
            raise TheoremBreach(
                "validated generation disagrees with the join of nuclei"
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
