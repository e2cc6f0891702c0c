"""Closure operators, closure systems, generation, fixpoints.

The two sides of the subject are kept as distinct types, each a
subclass of the plain value it refines.  A ClosureOperator is an
EndoMap that is ascending, increasing and idempotent; a ClosureSystem
is a Subset in which every principal upper set has a least member.
Their constructors check a caller's value, skipping the laws it has
passed already; .map and .subset give the plain value back.  Every
closure operator the library builds from a table is checked once, by
trusted_operators under its route's name, and built trusted.  duality
and duality_inv translate between the two sides and are inverse.

Generation from a family of preclosure maps is implemented twice, on
purpose: once through intersection of fixpoint sets, once as iterated
application.  The two routes are never merged; tests compare them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bitset import bits, fixpoints, least_closed_above
from .errors import (
    InputError,
    NoLeastElement,
    NotAClosureSystem,
    NotAscendingAt,
    NotIncreasing,
    NotPreclosure,
    TheoremBreach,
    agree,
    produced,
)
from .maps import (
    EndoMap,
    closure_table_fault,
    directed_closed,
    fix,
    inaccessible_by_directed_joins,
    inversely_closed_under,
    is_idempotent,
    is_increasing,
    is_preclosure,
    closed_under,
    pointwise_leq,
    pointwise_meet,
)
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    bottom_index,
    check_cap,
    closure_masks,
    closure_tables,
    derived,
    directed_join_faults,
    directed_tops_avoiding,
    family_poset,
    is_default_enabled,
    is_default_enabled_within,
    join_of,
    least_of,
    meet_table,
    refine,
    same_poset,
    subposet,
    trusted,
    way_down_sets,
)
from . import rules as _rules


class ClosureOperator(EndoMap):
    """An ascending, increasing, idempotent endomap.

    ClosureOperator(f) takes any EndoMap f and checks these laws, unless
    f is a ClosureOperator already.
    """

    # a refinement whose laws include binary meets (Nucleus) sets this,
    # and trusted_operators then checks its tables on P's meet table
    preserves_meets = False

    def __init__(self, f: EndoMap):
        refine(self, f)

    def __post_init__(self):
        if not is_preclosure(self):
            raise NotPreclosure(
                f"{EndoMap.__repr__(self)} is not a preclosure map "
                "(ascending and increasing)"
            )
        if not is_idempotent(self):
            raise InputError(f"{EndoMap.__repr__(self)} is not idempotent")

    @property
    def map(self) -> EndoMap:
        """The same table as a plain EndoMap."""
        return EndoMap(self.poset, self.table)

    def __repr__(self):
        return f"{type(self).__name__}({self.as_labels()!r})"


def _closure_table(P: FinitePoset, mask: int) -> Optional[tuple[int, ...]]:
    """x -> the least member of mask at or above x, or None as soon as
    some x has none."""
    table = []
    for x in range(P.n):
        v = least_of(P, mask & P.le[x])
        if v is None:
            return None
        table.append(v)
    return tuple(table)


def is_closure_system(X: Subset) -> bool:
    """Every principal upper set meets X in a set with a least element."""
    return _closure_table(X.poset, X.mask) is not None


class ClosureSystem(Subset):
    """A subset in which every principal upper set has a least member.

    ClosureSystem(X) takes any Subset X.  The check computes the least
    member above every element, and that table is kept for duality; a
    ClosureSystem X hands its table on unchecked.
    """

    _table: tuple[int, ...]

    _check_fields = ("_table",)

    def __init__(self, X: Subset):
        refine(self, X)

    def __post_init__(self):
        table = _closure_table(self.poset, self.mask)
        if table is None:
            raise NotAClosureSystem(
                f"{{{', '.join(self.labels)}}} is not a closure system"
            )
        object.__setattr__(self, "_table", table)

    @property
    def subset(self) -> Subset:
        """The same members as a plain Subset."""
        return Subset(self.poset, self.mask)


def duality(C: Subset) -> ClosureOperator:
    """The closure operator whose fixpoints are exactly C.

    Sends x to the least element of C at or above x.  C is checked as a
    closure system unless it is one already, and that check computed
    this table: the closure operator fixing C, built trusted.
    """
    if not isinstance(C, ClosureSystem):
        C = ClosureSystem(C)
    return trusted(ClosureOperator, poset=C.poset, table=C._table)


def duality_inv(gamma: ClosureOperator) -> ClosureSystem:
    """The fixpoint set of a closure operator, as a closure system that
    keeps gamma's table: gamma(x) is the least fixpoint above x.  gamma
    is checked as a closure operator unless it is one already."""
    if not isinstance(gamma, ClosureOperator):
        gamma = ClosureOperator(gamma)
    return trusted(ClosureSystem, gamma.fix, _table=gamma.table)


def _closure_systems(P: FinitePoset) -> tuple[int, ...]:
    # every closure system's mask, in mask order; cap-free
    return tuple(sorted(closure_masks(P)))


def closure_system_masks(P: FinitePoset, cap: Optional[int] = None) -> tuple[int, ...]:
    """Every closure system, as a mask, in mask order, read from the one
    top-down descent (order.closure_masks): the cost follows the number
    of systems, not 2^n, and no table is built.  enumerate_cl_lattice
    and sccore_bruteforce, which read the tables, run the descent that
    carries them (_carried_tables) instead."""
    check_cap("closure-system enumeration", P.n, cap, SUBSET_CAP)
    return derived(P, _closure_systems)


def _closure_system_leaves(P: FinitePoset) -> list[tuple[int, tuple[int, ...]]]:
    # the carrying descent's (fixpoint mask, table) leaves, in mask
    # order (the masks are distinct); cap-free
    return sorted(closure_tables(P))


def _carried_tables(P: FinitePoset, cap: Optional[int]):
    # every closure system's (mask, table) leaf, in mask order
    check_cap("closure-system enumeration", P.n, cap, SUBSET_CAP)
    return derived(P, _closure_system_leaves)


def trusted_operators(cls, P: FinitePoset, leaves, route: str) -> tuple:
    """The cls values (ClosureOperator or a refinement) with the tables
    of these (fixpoint mask, table) leaves that route built, their laws
    decided in one pass of maps.closure_table_fault, on P's meet table
    when cls preserves meets, and then built with order.trusted.  A rejected
    table goes to cls inside produced(route), so the law it breaks is
    named in a breach of route; one that cls accepts fixes a set other
    than its mask, a breach of route too."""
    leaves = list(leaves)
    meets = meet_table(P) if cls.preserves_meets else None
    bad = closure_table_fault(P, leaves, meets)
    if bad is not None:
        mask, table = leaves[bad]
        with produced(route):
            op = cls(EndoMap(P, table))
        raise TheoremBreach(
            f"{route}: a carried closure table fixes another set: "
            f"{op.fix!r}, carried with {Subset(P, mask)!r}"
        )
    return tuple(trusted(cls, poset=P, table=t) for _, t in leaves)


def checked(cls, P: FinitePoset, table: tuple, route: str):
    """The cls value with this table that route built: one leaf of
    trusted_operators, carried with the table's own fixpoints."""
    return trusted_operators(cls, P, [(fixpoints(table), table)], route)[0]


def enumerate_cl_lattice(P: FinitePoset, cap: Optional[int] = None) -> dict:
    """Every closure system and its operator, in mask order.

    The two lists are aligned: operators[i] has fixpoint set systems[i].
    The tables are carried with their masks by the one top-down descent
    (order.closure_tables) and checked in one pass to be the closure
    operators fixing exactly their carried masks, so each system is its
    carried mask, built trusted, and keeps its operator's table.
    """
    leaves = _carried_tables(P, cap)
    route = "closure-system enumeration"
    ops = trusted_operators(ClosureOperator, P, leaves, route)
    return {
        "closure_systems": [
            trusted(ClosureSystem, poset=P, mask=m, _table=t) for m, t in leaves
        ],
        "closure_operators": list(ops),
    }


# ---------------------------------------------------------------------------
# generation


def _check_generators(
    G: Sequence[EndoMap], poset: Optional[FinitePoset]
) -> FinitePoset:
    for g in G:
        if not isinstance(g, ClosureOperator) and not is_preclosure(g):
            raise NotPreclosure(
                f"generator {g!r} is not a preclosure map"
            )
    return family_poset(G, poset)


def generate_closure(
    G: Sequence[EndoMap], poset: Optional[FinitePoset] = None
) -> ClosureOperator:
    """Least closure operator above every map in G.

    Computed through the fixpoint route: the common fixpoints of G form
    a closure system, and its operator is the answer.  The empty family
    generates the identity.
    """
    G = list(G)
    P = _check_generators(G, poset)
    with produced("fixpoint intersection"):
        result = duality(ClosureSystem(fix(G, P)))
    for g in G:
        if not pointwise_leq(g, result):
            raise TheoremBreach(
                "generated closure operator is not above a generator"
            )
    return result


def kleene_generate(
    G: Sequence[EndoMap], poset: Optional[FinitePoset] = None
) -> ClosureOperator:
    """Least closure operator above G, by round-robin iteration.

    Applies the generators in their listed order, over and over, until a
    whole pass moves nothing.  Ascent makes termination immediate on a
    finite poset.  Independent of generate_closure by construction; the
    equality of the two is a theorem, tested rather than assumed here.
    """
    G = list(G)
    P = _check_generators(G, poset)
    table = []
    for x in range(P.n):
        v = x
        changed = True
        while changed:
            changed = False
            for g in G:
                nv = g.table[v]
                if nv != v:
                    v = nv
                    changed = True
        table.append(v)
    return checked(ClosureOperator, P, tuple(table), "round-robin iteration")


def _principle(name, A, G, poset, premises, conclusion) -> dict:
    """A closure principle's report: each premise test(P, G), in order,
    whether they all hold, and the conclusion (key, test(A, maps)) on
    the generated operator, whose construction checks G.  True premises
    with a false conclusion are an internal error, not a report entry."""
    G = list(G)
    gen = generate_closure(G, poset)
    P = same_poset(gen.poset, A.poset)
    report = {key: test(P, G) for key, test in premises.items()}
    holds = report["premises_hold"] = all(report.values())
    key, test = conclusion
    report[key] = test(A, [gen])
    if holds and not report[key]:
        raise TheoremBreach(f"{name} failed on {A!r} with generators {G!r}")
    return report


def induction_check(
    A: Subset,
    G: Sequence[EndoMap],
    poset: Optional[FinitePoset] = None,
    cap: Optional[int] = None,
) -> dict:
    """Induction principle for generated closure operators.

    If A is directed-closed and closed under every generator, then A is
    closed under the generated operator.  The premises and conclusion
    are all evaluated.
    """
    premises = {
        "directed_closed": lambda P, G: directed_closed(A, cap),
        "closed_under_generators": lambda P, G: closed_under(A, G),
    }
    conclusion = ("closed_under_generated", closed_under)
    return _principle("induction principle", A, G, poset, premises, conclusion)


def obverse_induction_check(
    A: Subset,
    G: Sequence[EndoMap],
    poset: Optional[FinitePoset] = None,
    cap: Optional[int] = None,
) -> dict:
    """Contrapositive companion of the induction principle.

    If A is inaccessible by directed joins and inversely closed under
    every generator, it is inversely closed under the generated
    operator.
    """
    premises = {
        "inaccessible_by_directed_joins": (
            lambda P, G: inaccessible_by_directed_joins(A, cap)
        ),
        "inversely_closed_under_generators": (
            lambda P, G: inversely_closed_under(A, G)
        ),
    }
    conclusion = ("inversely_closed_under_generated", inversely_closed_under)
    return _principle("obverse induction", A, G, poset, premises, conclusion)


def default_induction_check(
    A: Subset,
    G: Sequence[EndoMap],
    poset: Optional[FinitePoset] = None,
    cap: Optional[int] = None,
) -> dict:
    """Induction principle in its default-reasoning form.

    On a default-enabled poset, a subset that is default-enabled within
    the ambient poset and closed under the generators is closed under
    the generated operator.
    """
    premises = {
        "ambient_default_enabled": lambda P, G: is_default_enabled(P, cap),
        "default_enabled_within": lambda P, G: is_default_enabled_within(P, A, cap),
        "closed_under_generators": lambda P, G: closed_under(A, G),
    }
    conclusion = ("closed_under_generated", closed_under)
    return _principle("default induction", A, G, poset, premises, conclusion)


# ---------------------------------------------------------------------------
# the lattice of closure operators


def cl_join(
    ops: Sequence[ClosureOperator], poset: Optional[FinitePoset] = None
) -> ClosureOperator:
    """Join in the lattice of closure operators.

    Closure operators are preclosure maps, so the join is generation.
    """
    return generate_closure(ops, poset)


def cl_meet(
    ops: Sequence[ClosureOperator],
    poset: Optional[FinitePoset] = None,
    cap: Optional[int] = None,
) -> ClosureOperator:
    """Meet in the lattice of closure operators.

    Fixpoint sets join: the meet is the operator of the least closure
    system containing every operator's fixpoints.  When the pointwise
    meet of the maps happens to exist it must agree, and that is
    checked.
    """
    ops = list(ops)
    P = family_poset(ops, poset)
    union = 0
    for o in ops:
        union |= o.fix_mask
    result = duality(clsys(Subset(P, union), cap))
    pw = pointwise_meet(ops)
    if pw is not None:
        agree(
            "meet of closure operators",
            ops,
            pointwise=pw,
            operator_lattice=result.map,
        )
    return result


# ---------------------------------------------------------------------------
# system generation, directed closure, Scott cores


def clsys(
    X: Subset, cap: Optional[int] = None, method: str = "enumerate"
) -> ClosureSystem:
    """Least closure system containing X.

    method 'enumerate' intersects all systems containing X; 'both' also
    closes X under the poset's default rules and insists the two agree.
    That second route reads only the principal bodies
    (rules.default_closure_mask), in polynomial time, not the 2^n-entry
    rule index.
    """
    P = X.poset
    if method not in ("enumerate", "both"):
        raise ValueError(f"unknown method {method!r}")
    inter = least_closed_above(P.full_mask, closure_system_masks(P, cap), X.mask)
    with produced("closure-system intersection"):
        result = ClosureSystem(Subset(P, inter))
    if method == "both":
        agree(
            "least closure system",
            X,
            system_intersection=result.subset,
            default_rules=Subset(P, _rules.default_closure_mask(P, X.mask)),
        )
    return result


def directed_closed_systems(P: FinitePoset, cap: Optional[int] = None) -> list[int]:
    """Every directed-closed closure system, as a mask, in mask order."""
    return [
        m
        for m in closure_system_masks(P, cap)
        if directed_closed(Subset(P, m), cap)
    ]


def dcclsys(X: Subset, cap: Optional[int] = None) -> ClosureSystem:
    """Least directed-closed closure system containing X."""
    P = X.poset
    dc = directed_closed_systems(P, cap)
    inter = least_closed_above(P.full_mask, dc, X.mask)
    if inter not in dc:
        raise TheoremBreach(
            "no least directed-closed closure system contains "
            f"{{{', '.join(X.labels)}}}"
        )
    with produced("directed-closed system intersection"):
        return ClosureSystem(Subset(P, inter))


def dj(X: Subset, cap: Optional[int] = None) -> Subset:
    """Joins of the directed subsets of X: the tops of the directed
    sets with no member outside X."""
    full = X.poset.full_mask
    return Subset(X.poset, directed_tops_avoiding(X.poset, full, full & ~X.mask, cap))


def sccore(gamma: ClosureOperator, cap: Optional[int] = None) -> ClosureOperator:
    """Greatest Scott-continuous closure operator below gamma, by formula.

    Sends x to the join of the gamma-image of the set of elements way
    below x.
    """
    P = gamma.poset
    table = []
    for dd in way_down_sets(P, cap):
        v = join_of(P, gamma.image_mask(dd))
        if v is None:
            raise TheoremBreach(
                "image of a way-below set under a closure operator "
                "has no join; the Scott core formula broke down"
            )
        table.append(v)
    return checked(ClosureOperator, P, tuple(table), "Scott core formula")


def sccore_bruteforce(
    gamma: ClosureOperator, cap: Optional[int] = None
) -> ClosureOperator:
    """Greatest Scott-continuous closure operator below gamma: of every
    closure operator on the poset, the Scott-continuous ones below
    gamma, and the one fixing the intersection of their fixpoints.

    An operator lies below gamma iff it fixes every fixpoint of gamma,
    so only the carried tables whose masks hold fix gamma are tested
    for Scott continuity.  Only the one picked is built, checked as the
    (mask, table) leaf it was carried as."""
    P = gamma.poset
    fm = gamma.fix_mask
    scott = {
        m: t
        for m, t in _carried_tables(P, cap)
        if not fm & ~m and not directed_join_faults(P, t, cap)
    }
    least = least_closed_above(P.full_mask, scott, fm)
    if least not in scott:
        raise TheoremBreach(
            "the Scott-continuous closure operators below the given one "
            "have no greatest member"
        )
    leaf = [(least, scott[least])]
    return trusted_operators(ClosureOperator, P, leaf, "Scott core scan")[0]


# ---------------------------------------------------------------------------
# least fixpoints


def tarski(f: EndoMap, x: Optional[str] = None) -> str:
    """Least fixpoint of an increasing map at or above x.

    Restricts f to the subposet A of elements below their image, which
    f maps into A and where it is a preclosure map (both theorems, so a
    failure is a breach), and applies the generated closure operator to
    x.  When x is omitted the poset's bottom is used.  The answer is
    independently cross-checked against a scan of all fixpoints.
    """
    P = f.poset
    if not is_increasing(f):
        raise NotIncreasing(f"{f!r} is not increasing")
    if x is None:
        b = bottom_index(P)
        if b is None:
            raise NoLeastElement(
                "poset has no least element; supply a start point"
            )
        xi = b
    else:
        xi = P.index(x)
    amask = 0
    for i, v in enumerate(f.table):
        if P.le[i] >> v & 1:
            amask |= 1 << i
    if not amask >> xi & 1:
        raise NotAscendingAt(
            P.label(xi),
            f"start point {P.label(xi)!r} is not below its image "
            f"{P.label(f.table[xi])!r}",
        )
    # x <= f(x) gives f(x) <= f(f(x)) for increasing f: f maps A into A.
    # The restriction numbers each v in A by the members of A before it
    def back(v):
        return (amask & ((1 << v) - 1)).bit_count()

    ftable = []
    for o in bits(amask):
        if not amask >> f.table[o] & 1:
            raise TheoremBreach(
                f"Tarski restriction: {P.label(o)!r} is below its image "
                f"{P.label(f.table[o])!r}, which is not below its own"
            )
        ftable.append(back(f.table[o]))
    Q, old = subposet(P, Subset(P, amask))
    with produced("Tarski restriction"):
        cl = generate_closure([EndoMap(Q, tuple(ftable))], Q)
    scan = least_of(P, f.fix_mask & P.le[xi])
    return agree(
        "least fixpoint",
        (f, P.label(xi)),
        restriction=P.label(old[cl(back(xi))]),
        scan=None if scan is None else P.label(scan),
    )
