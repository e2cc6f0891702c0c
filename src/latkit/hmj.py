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

Each identity of the exhaustive checks is one errors.agree between
named routes.  The kernels of the enumerated nuclei are one table per
poset, each distinct kernel checked once as a filter and kept as a
FilterSet.  oneker and that table share the one check of a kernel the
library computed, _kernel_filter: the filter laws inside
produced("oneker"), then a FilterSet built trusted and kept in a
per-poset record, so each distinct kernel is checked once per poset.
The kernel scan of is_nuclear_filter, the Galois identities and the
correspondence read that table.  Filters are picked from the upper sets, listed by a
descent rather than a scan of every subset.
Scott-openness and compactness are each one call of
order.directed_tops_avoiding, a query over every directed subset.  The
fitted nucleus of a kernel is built once per poset and kept, while
every fitting call still checks the membership lemma and that the
fitting lies below its nucleus.  The open nuclei have their laws and
their fixpoints, the implications out of each a, decided in one pass
of maps.closure_table_fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, TheoremBreach, agree, produced
from .closure import trusted_operators
from .heyting import (
    Nucleus,
    _imp_table,
    _nuclei,
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
    image_joins,
    meet_table,
    refine,
    same_poset,
    subposet,
    subset_tables,
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


def _require_filter(P: FinitePoset, mask: int) -> None:
    # the filter laws on the frame P, cap-free: the check of FilterSet
    if not _is_filter_mask(P, top_index(P), meet_table(P), mask):
        raise InputError(f"{{{', '.join(P.labels_of(mask))}}} is not a filter")


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
        _require_filter(require_frame(self.poset, cap), self.mask)

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
    # the row of a is the table of the open nucleus at a, carried with
    # its image, the implications out of a: trusted_operators proves
    # each row a nucleus fixing exactly that image
    imp = derived(P, _imp_table)
    images = [sum(1 << v for v in set(row)) for row in imp]
    return trusted_operators(Nucleus, P, zip(images, imp), "open nuclei", meet_table(P))


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
    return _kernel_filter(P, nu.preimage_mask(1 << t))


def _kernel_filter(P: FinitePoset, k: int) -> FilterSet:
    # a kernel the library computed on the frame P, checked as a filter
    # once per poset (a failure is a breach of oneker) and kept as a
    # FilterSet in the poset's record of checked kernels
    checked = derived(P, _checked_kernels)
    if k not in checked:
        with produced("oneker"):
            _require_filter(P, k)
        checked[k] = trusted(FilterSet, Subset(P, k))
    return checked[k]


def _checked_kernels(P: FinitePoset) -> dict[int, FilterSet]:
    # kernel mask -> its FilterSet, filled by _kernel_filter
    return {}


def _kernels(P: FinitePoset) -> tuple[tuple[int, ...], dict[int, FilterSet]]:
    # the kernel of each nucleus of _nuclei, in its order, and each
    # distinct kernel, at most one per filter, read through
    # _kernel_filter, which checks it once per poset for this table and
    # oneker alike; cap-free, like _nuclei
    top = 1 << top_index(P)
    kernels = tuple(nu.preimage_mask(top) for nu in derived(P, _nuclei))
    filters = {k: _kernel_filter(P, k) for k in sorted(set(kernels))}
    return kernels, filters


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
    kernel = agree(
        "membership lemma",
        nu,
        opens_below=derived(P, _open_rows).below(nu.table),
        kernel=nu.preimage_mask(1 << top_index(P)),
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
    must agree.  The scan reads the distinct kernels from the kernel
    table, where each was checked once to be a filter.
    """
    P = require_frame(L, cap)
    same_poset(P, X.poset)
    enumerate_nuclei(L, cap)  # the gate of the nuclei the table reads
    by_scan = X.mask in derived(P, _kernels)[1]
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
    the fixpoints' subposet; join preservation compares, for every
    subset, two tables of L built by doubling: its join, and the join
    of its image (order.image_joins), each sent through nu."""
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
    tables = subset_tables(P)
    join = tables.join
    to_fix = bytes(nu.table).ljust(256, b"\0")
    joined_images = image_joins(tables, nu.table)
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
    itself, and the round trip on nuclei is the fitting.  Each identity
    is one agree; fitnuc of each distinct kernel is built once."""
    P = require_frame(L, cap)
    check_cap("Galois identity check", P.n, cap, SUBSET_CAP)
    nucs = enumerate_nuclei(L, cap)
    rows = derived(P, _nuclei_rows)
    kernels, filters = derived(P, _kernels)
    holders = dict.fromkeys(filters, 0)  # kernel -> the nuclei with it
    for j, K in enumerate(kernels):
        holders[K] |= 1 << j
    fits = {K: fitnuc(L, F, cap) for K, F in filters.items()}
    top = 1 << top_index(P)
    for smask in range(P.full_mask + 1):
        S = Subset(P, smask)
        fS = fitnuc(L, S, cap)
        agree(
            "Galois adjunction",
            S,
            nuclei_above_fitnuc=rows.above(fS.table),
            kernels_holding=sum(m for K, m in holders.items() if smask & ~K == 0),
        )
        agree(
            "fitnuc round trip",
            S,
            fitnuc=fS,
            fitnuc_oneker_fitnuc=fits.get(fS.preimage_mask(top)),
        )
    for K, fK in fits.items():
        agree(
            "oneker round trip",
            filters[K],
            oneker=K,
            oneker_fitnuc_oneker=oneker(fK, cap).mask,
        )
    for nu, K in zip(nucs, kernels):
        agree(
            "Galois round trip on a nucleus",
            nu,
            fitnuc_oneker=fits[K],
            fitting=fitting(L, nu, cap),
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


def _inclusion_rows(masks) -> tuple[int, ...]:
    # row i: the j with masks[i] a subset of masks[j]
    return tuple(
        sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks
    )


def hmj_correspondence(L: FinitePoset, cap: Optional[int] = None) -> dict:
    """The bijection between Scott-open filters and compact fitted
    quotients, exhibited pair by pair and verified in both directions,
    including order reversal into the quotient frames.

    Exhaustive: every filter is tested for Scott-openness and every
    nucleus is fitted and, when fitted, tested for compactness.  The
    pairs (F, fitnuc F) of the Scott-open filters and (kernel, nu) of
    the compact fitted nuclei, each side distinct by construction, must
    be equal sets: fitnuc lands on compact fitted nuclei, oneker and
    fitnuc invert each other there, and neither side misses one of the
    other.  Order reversal compares filter inclusion, the nucleus order
    and reverse fixpoint inclusion on the pairs."""
    P = require_frame(L, cap)
    filters = [F for F in enumerate_filters(L, cap) if is_scott_open(L, F, cap)]
    nucs = enumerate_nuclei(L, cap)
    kernels, _ = derived(P, _kernels)
    compact_fitted = [
        (K, nu)
        for K, nu in zip(kernels, nucs)
        if is_fitted(L, nu, cap) and is_compact_quotient(L, nu, cap)
    ]
    pairs = [(F, fitnuc(L, F, cap)) for F in filters]
    agree(
        "Scott-open filters and compact fitted nuclei",
        P,
        scott_open_filters={(F.mask, nu.table) for F, nu in pairs},
        compact_fitted_nuclei={(K, nu.table) for K, nu in compact_fitted},
    )
    # monotone between filters and nuclei, hence order-reversing into
    # the quotient frames, whose order is reverse fixpoint inclusion
    agree(
        "order reversal",
        P,
        filter_inclusion=_inclusion_rows([F.mask for F, _ in pairs]),
        nucleus_order=value_rows(P, [nu.table for _, nu in pairs]).up_rows(),
        fixpoint_reversal=_inclusion_rows(
            [P.full_mask & ~nu.fix_mask for _, nu in pairs]
        ),
    )
    return {
        "scott_open_filters": [F.labels for F in filters],
        "compact_fitted_quotients": [nu.fix.labels for _, nu in compact_fitted],
        "pairs": pairs,
        "count": len(pairs),
        "antiisomorphism_verified": True,
    }
