"""Open nuclei, fitted nuclei, filters, and the duality between them.

The open nucleus at a sends x to a => x.  A nucleus is fitted when it
is a join of opens.  The kernel at the top, oneker, turns a nucleus
into a filter (a FilterSet: a Subset whose constructor also checks the
filter laws); fitnuc turns any subset into the join of its opens.
These two form a Galois connection whose closure on the nucleus side is
the fitting operation and whose closure on the subset side lands on
nuclear filters.  The correspondence report walks the resulting
bijection between Scott-open filters and compact fitted quotients and
verifies every promised identity; a single failure raises.

The exhaustive route does each piece of work once.  Filters are picked
from the upper sets, listed by a descent rather than a scan of every
subset.  Scott-openness and compactness are each one call of
order.directed_tops_avoiding, a query over every directed subset.  The
fitted nucleus of a kernel is built once per poset and kept, while
every fitting call still checks the membership lemma and that the
fitting lies below its nucleus.  The open nuclei have their laws
decided in one pass of maps.closure_table_fault, and the kernel scan
of is_nuclear_filter checks each distinct kernel once as a filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, TheoremBreach, agree, produced
from .closure import trusted_operators
from .heyting import (
    Nucleus,
    _imp_table,
    _nuclei_rows,
    enumerate_nuclei,
    nucleus_join,
    require_frame,
    validate_structure,
)
from .maps import (
    inaccessible_by_directed_joins,
    pointwise_leq,
    preserves_binary_meets,
    value_rows,
)
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    bits,
    check_cap,
    derived,
    directed_tops_avoiding,
    image_masks,
    join_meet_tables,
    meet_table,
    refine,
    same_poset,
    subposet,
    top_index,
    trusted,
    upper_closure_mask,
    upper_sets,
)


def _is_filter_mask(P: FinitePoset, t: int, mt, mask: int) -> bool:
    """Upper set containing the top t and closed under the meets in mt."""
    if not mask >> t & 1:
        return False
    if upper_closure_mask(P, mask) != mask:
        return False
    members = tuple(bits(mask))
    for a in members:
        row = mt[a]
        for b in members:
            if not mask >> row[b] & 1:
                return False
    return True


def is_filter(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> bool:
    """Upper set containing the top and closed under binary meets."""
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    return _is_filter_mask(P, top_index(P), meet_table(P), X.mask)


@dataclass(frozen=True, init=False, repr=False)
class FilterSet(Subset):
    """A subset of a frame validated to be a filter.

    FilterSet(X, cap) takes any Subset X and checks the filter laws,
    under cap, unless X is a FilterSet already.
    """

    def __init__(self, X: Subset, cap: Optional[int] = None):
        refine(self, X, cap)

    def __post_init__(self, cap: Optional[int] = None):
        if not is_filter(self.poset, self, cap):
            raise InputError(f"{{{', '.join(self.labels)}}} is not a filter")

    @property
    def subset(self) -> Subset:
        """The same members as a plain Subset."""
        return Subset(self.poset, self.mask)


def enumerate_filters(L: FinitePoset, cap: Optional[int] = None) -> list[FilterSet]:
    """Every filter, in mask order.

    The candidates are the upper sets, listed by order.upper_sets, a
    descent whose cost follows their number rather than 2^n; in a frame
    every nonempty one holds the top, and the filter test rejects the
    empty one.  Each candidate passes the filter test once and becomes
    a FilterSet without repeating it.
    """
    P = require_frame(L, cap)
    check_cap("filter enumeration", P.n, cap, SUBSET_CAP)
    t, mt = top_index(P), meet_table(P)
    return [
        trusted(FilterSet, Subset(P, m))
        for m in upper_sets(P.le)
        if _is_filter_mask(P, t, mt, m)
    ]


def modus_ponens_check(
    L: FinitePoset, F: FilterSet, cap: Optional[int] = None
) -> bool:
    """Filters absorb implications: a and a => b in F force b in F."""
    P = require_frame(L, cap)
    imp = derived(P, _imp_table)
    for a in bits(F.mask):
        for b in range(P.n):
            if F.mask >> imp[a][b] & 1 and not F.mask >> b & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# open and fitted nuclei


def _open_nuclei(P: FinitePoset) -> tuple[Nucleus, ...]:
    # cap-free; open_nucleus checks the frame and its cap on every call
    # the row of a is the table of the open nucleus at a, and its image,
    # the implications out of a, must be its fixpoint set
    imp = derived(P, _imp_table)
    images = [sum(1 << v for v in set(row)) for row in imp]
    with produced("open nuclei"):
        opens = trusted_operators(Nucleus, P, zip(images, imp), meet_table(P))
    for ai, (nu, want) in enumerate(zip(opens, images)):
        agree(
            "open nucleus fixpoints",
            P.label(ai),
            nucleus=nu.fix,
            implication_image=Subset(P, want),
        )
    return opens


def open_nucleus(L: FinitePoset, a: str, cap: Optional[int] = None) -> Nucleus:
    """x -> (a => x).  Fixpoints are the implications out of a.  The
    open nuclei of a frame are built and checked once per poset."""
    P = require_frame(L, cap)
    ai = P.index(a)
    return derived(P, _open_nuclei)[ai]


def oneker(nu: Nucleus, cap: Optional[int] = None) -> FilterSet:
    """The elements a nucleus sends to the top."""
    P = nu.poset
    t = top_index(P)
    if t is None:
        raise InputError("kernel at the top needs a top element")
    require_frame(P, cap)
    with produced("oneker"):
        return FilterSet(Subset(P, nu.preimage_mask(1 << t)), cap)


def fitnuc(L: FinitePoset, S: Subset, cap: Optional[int] = None) -> Nucleus:
    """Join of the open nuclei at the members of S.  Built afresh on
    every call."""
    P = require_frame(L, cap)
    same_poset(P, S.poset)
    opens = derived(P, _open_nuclei)
    return nucleus_join([opens[i] for i in bits(S.mask)], P, cap)


def _open_rows(P: FinitePoset):
    # the value rows of the open nuclei; cap-free, like _open_nuclei
    return value_rows(P, [o.table for o in derived(P, _open_nuclei)])


def _fitted_by_kernel(P: FinitePoset) -> dict[int, Nucleus]:
    # kernel mask -> its fitted nucleus, filled by fitting; the kernels
    # are filters, so it holds at most one entry per filter
    return {}


def fitting(L: FinitePoset, nu: Nucleus, cap: Optional[int] = None) -> Nucleus:
    """Greatest fitted nucleus below nu: the join of the opens at the
    kernel of nu.

    Every call passes the frame gate and re-verifies the membership
    lemma (the open at a sits below nu exactly when nu sends a to the
    top), reading the opens below nu from the open nuclei's value rows
    in n steps.  The fitted nucleus depends on the kernel alone: it is built
    through oneker and fitnuc the first time a kernel is seen and kept
    on the poset, and every call checks that it lies below nu.
    """
    P = require_frame(L, cap)
    same_poset(P, nu.poset)
    kernel = nu.preimage_mask(1 << top_index(P))
    opens_below = derived(P, _open_rows).below(nu.table)
    if opens_below != kernel:
        a = ((opens_below ^ kernel) & -(opens_below ^ kernel)).bit_length() - 1
        raise TheoremBreach(
            "an open nucleus sits below a nucleus without sending "
            f"{P.label(a)!r} to the top, or vice versa"
        )
    fitted = derived(P, _fitted_by_kernel)
    result = fitted.get(kernel)
    if result is None:
        result = fitted[kernel] = fitnuc(L, oneker(nu, cap), cap)
    if not pointwise_leq(result, nu):
        raise TheoremBreach("fitting escaped above its nucleus")
    return result


def is_fitted(L: FinitePoset, nu: Nucleus, cap: Optional[int] = None) -> bool:
    return fitting(L, nu, cap).table == nu.table


def nucfilt(L: FinitePoset, S: Subset, cap: Optional[int] = None) -> FilterSet:
    """Least nuclear filter containing S."""
    return oneker(fitnuc(L, S, cap), cap)


# ---------------------------------------------------------------------------
# Scott-open and nuclear filters


def is_scott_open(P: FinitePoset, X: Subset, cap: Optional[int] = None) -> bool:
    """Upper set inaccessible by directed joins, both definitional."""
    same_poset(P, X.poset)
    if upper_closure_mask(P, X.mask) != X.mask:
        return False
    return inaccessible_by_directed_joins(X, cap)


def is_nuclear_filter(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> bool:
    """X is the kernel of some nucleus.

    Two independent routes: scan the kernels of all nuclei, and test
    whether X is a filter fixed by the kernel-of-join closure.  They
    must agree.  The scan collects the distinct kernels, at most one
    per filter, and checks each once to be a filter, as oneker would.
    """
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    top = 1 << top_index(P)
    kernels = {nu.preimage_mask(top) for nu in enumerate_nuclei(L, cap)}
    with produced("oneker"):
        for k in sorted(kernels):
            FilterSet(Subset(P, k), cap)
    by_scan = X.mask in kernels
    by_galois = is_filter(L, X, cap) and nucfilt(L, X, cap).mask == X.mask
    return agree(
        "nuclear-filter status", X, kernel_scan=by_scan, galois_closure=by_galois
    )


def filters_report(L: FinitePoset, X: Subset, cap: Optional[int] = None) -> dict:
    filt = is_filter(L, X, cap)
    return {
        "is_filter": filt,
        "is_scott_open": is_scott_open(L, X, cap),
        "is_nuclear_filter": is_nuclear_filter(L, X, cap),
        "modus_ponens": (
            modus_ponens_check(L, trusted(FilterSet, X), cap) if filt else None
        ),
    }


# ---------------------------------------------------------------------------
# quotients and compactness


def is_compact_quotient(
    L: FinitePoset, nu: Nucleus, cap: Optional[int] = None
) -> bool:
    """The quotient frame of nu is compact: a directed family of
    fixpoints whose quotient join is the top must contain the top.
    The quotient join of a directed D of fixpoints is nu(max D)."""
    P = require_frame(L, cap)
    same_poset(P, nu.poset)
    top = 1 << top_index(P)
    leaves = P.full_mask & ~nu.fix_mask | top  # a non-fixpoint or the top
    return not directed_tops_avoiding(P, nu.preimage_mask(top), leaves, cap)


def quotient_frame_check(
    L: FinitePoset, nu: Nucleus, cap: Optional[int] = None
) -> dict:
    """The fixpoint set of a nucleus is a frame under inherited meets
    and reflected joins, and the corestricted nucleus is a surjective
    frame morphism onto it.  The frame check is validate_structure on
    the fixpoints' subposet; join preservation is read subset by subset
    from the join and image tables of L."""
    P = require_frame(L, cap)
    same_poset(P, nu.poset)
    check_cap("quotient frame check", P.n, cap, SUBSET_CAP)
    mt = meet_table(P)
    fm = nu.fix_mask
    # meets of fixpoints are fixpoints (inherited from L)
    if any(not fm >> mt[x][y] & 1 for x in bits(fm) for y in bits(fm)):
        raise TheoremBreach("fixpoints of a nucleus are not closed under meets")
    # the fixpoints in the inherited order form a frame
    Q, _ = subposet(P, Subset(P, fm))
    if validate_structure(Q, cap).level != "frame":
        raise TheoremBreach("quotient frame distributivity failed")
    # the corestriction preserves finite meets and all joins: nu of the
    # join of each subset is nu of the join of its nu-image
    if not preserves_binary_meets(nu):
        raise TheoremBreach("corestriction does not preserve binary meets")
    join, _ = join_meet_tables(P)
    to_fix = bytes(nu.table).ljust(256, b"\0")
    joined_images = bytes(map(join.__getitem__, image_masks(nu.table)))
    if join.translate(to_fix) != joined_images.translate(to_fix):
        raise TheoremBreach("corestriction does not preserve joins")
    return {
        "fixpoints": Subset(P, fm).labels,
        "is_frame": True,
        "corestriction_is_frame_morphism": True,
        "is_compact": is_compact_quotient(L, nu, cap),
    }


# ---------------------------------------------------------------------------
# the Galois connection and the correspondence


def galois_identities_check(L: FinitePoset, cap: Optional[int] = None) -> dict:
    """fitnuc and oneker form a Galois connection, and the promised
    identities hold: each side composed around the other reproduces
    itself, and the round trip on nuclei is the fitting."""
    P = require_frame(L, cap)
    check_cap("Galois identity check", P.n, cap, SUBSET_CAP)
    nucs = enumerate_nuclei(L, cap)
    rows = derived(P, _nuclei_rows)
    kernels = [oneker(nu, cap).mask for nu in nucs]
    for smask in range(P.full_mask + 1):
        S = Subset(P, smask)
        fS = fitnuc(L, S, cap)
        # the nuclei above fS must be those whose kernel holds S
        holding = sum(1 << j for j, K in enumerate(kernels) if smask & ~K == 0)
        if rows.above(fS.table) != holding:
            raise TheoremBreach(
                "Galois adjunction between fitnuc and oneker failed at "
                f"S={{{', '.join(S.labels)}}}"
            )
        # K = nucfilt(S), and nucfilt(K) = oneker(fK)
        K = oneker(fS, cap)
        fK = fitnuc(L, K, cap)
        if oneker(fK, cap).mask != K.mask:
            raise TheoremBreach("nuclear-filter closure is not idempotent")
        if fK.table != fS.table:
            raise TheoremBreach(
                "fitnuc of oneker of fitnuc did not reproduce fitnuc"
            )
    for nu in nucs:
        V = oneker(nu, cap)
        fV = fitnuc(L, V, cap)
        if oneker(fV, cap).mask != V.mask:
            raise TheoremBreach(
                "oneker of fitnuc of oneker did not reproduce oneker"
            )
        if fV.table != fitting(L, nu, cap).table:
            raise TheoremBreach(
                "the Galois round trip on a nucleus is not its fitting"
            )
    return {"adjunction": True, "identities": True}


def scott_open_filter_is_nuclear_check(
    L: FinitePoset, cap: Optional[int] = None
) -> bool:
    """Every Scott-open filter is a nuclear filter."""
    for F in enumerate_filters(L, cap):
        if is_scott_open(L, F, cap):
            if not is_nuclear_filter(L, F, cap):
                raise TheoremBreach(
                    f"Scott-open filter {{{', '.join(F.labels)}}} is not nuclear"
                )
    return True


def hmj_correspondence(L: FinitePoset, cap: Optional[int] = None) -> dict:
    """The bijection between Scott-open filters and compact fitted
    quotients, exhibited pair by pair and verified in both directions,
    including order reversal into the quotient frames.

    Exhaustive: every filter is tested for Scott-openness and every
    nucleus is fitted and, when fitted, tested for compactness.  The
    fitting of a nucleus reads the fitted nucleus of its kernel from
    the per-poset cache after the first build; the fitnuc calls that
    map each filter to its nucleus, and each compact fitted nucleus
    back from its kernel, build afresh."""
    P = require_frame(L, cap)
    filters = [
        F
        for F in enumerate_filters(L, cap)
        if is_scott_open(L, F, cap)
    ]
    nucs = enumerate_nuclei(L, cap)
    compact_fitted = [
        nu
        for nu in nucs
        if is_fitted(L, nu, cap) and is_compact_quotient(L, nu, cap)
    ]
    pairs = []
    seen_tables = set()
    for F in filters:
        nu = fitnuc(L, F, cap)
        if not is_fitted(L, nu, cap):
            raise TheoremBreach("fitnuc of a filter is not fitted")
        if not is_compact_quotient(L, nu, cap):
            raise TheoremBreach(
                "fitnuc of a Scott-open filter has a non-compact quotient"
            )
        if oneker(nu, cap).mask != F.mask:
            raise TheoremBreach(
                "oneker does not invert fitnuc on a Scott-open filter"
            )
        pairs.append((F, nu))
        seen_tables.add(nu.table)
    for nu in compact_fitted:
        V = oneker(nu, cap)
        if not is_scott_open(L, V, cap):
            raise TheoremBreach(
                "kernel of a compact fitted nucleus is not Scott-open"
            )
        if fitnuc(L, V, cap).table != nu.table:
            raise TheoremBreach(
                "fitnuc does not invert oneker on a compact fitted nucleus"
            )
        if nu.table not in seen_tables:
            raise TheoremBreach(
                "a compact fitted nucleus is missed by the filter side"
            )
    if len(filters) != len(compact_fitted):
        raise TheoremBreach(
            "Scott-open filters and compact fitted nuclei do not biject"
        )
    # monotone between filters and nuclei, hence order-reversing into
    # the quotient frames, whose order is reverse fixpoint inclusion
    ups = value_rows(P, [nu.table for _, nu in pairs]).up_rows()
    for (F1, n1), up in zip(pairs, ups):
        for j, (F2, n2) in enumerate(pairs):
            incl = F1.mask & ~F2.mask == 0
            if incl != bool(up >> j & 1):
                raise TheoremBreach(
                    "filter inclusion does not match the nucleus order"
                )
            if incl != (n2.fix_mask & ~n1.fix_mask == 0):
                raise TheoremBreach(
                    "filter inclusion does not reverse into quotient "
                    "fixpoint inclusion"
                )
    return {
        "scott_open_filters": [F.labels for F in filters],
        "compact_fitted_quotients": [nu.fix.labels for nu in compact_fitted],
        "pairs": pairs,
        "count": len(pairs),
        "antiisomorphism_verified": True,
    }
