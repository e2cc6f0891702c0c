"""Closure operators on a powerset: anti-exchange, funnels, acyclicity.

Here the operator acts on subsets of a poset's element set, not on the
elements themselves.  The poset's order plays two roles: it induces the
clsys and dcclsys operators, and it is one candidate funnel.

The anti-exchange property and its closed-set reformulation are
computed separately and compared; so are the three equivalent funnel
conditions.  An operator is a table of all 2^n images, built and
checked once; every check below reads that table.  The sweeps cost up
to 3^n table reads, in the funnel's search for witness subsets, so
these checks run under their own, smaller default cap.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import InputError, NotAPreorder, TheoremBreach, agree
from .closure import closure_system_masks
from .maps import directed_closed
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    bits,
    check_cap,
    same_poset,
)
from .rules import RuleSet

# the funnel's witness search quantifies over nested pairs of subsets,
# 3^n; keep the default tighter than the global subset cap
CONVEXITY_CAP = 10


@dataclass(frozen=True)
class PowersetOperator:
    """A closure operator on the powerset of a poset's elements.

    Construction applies the strategy function to every mask once and
    keeps the images in `table`, indexed by mask.  It then checks, on
    every subset, that no image escapes the universe and that the
    operator is ascending, idempotent and monotone; each constructor
    gates the size by its cap first.
    """

    universe: FinitePoset
    kind: str
    fn: InitVar[Callable]
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, fn: Callable):
        full = self.universe.full_mask
        cl = tuple(fn(m) for m in range(full + 1))
        if any(c & ~full for c in cl):
            raise InputError(f"{self.kind}: image escapes the universe")
        object.__setattr__(self, "table", cl)
        for m, c in enumerate(cl):
            if m & ~c:
                raise InputError(
                    f"{self.kind}: not ascending at "
                    f"{{{', '.join(self.universe.labels_of(m))}}}"
                )
            if cl[c] != c:
                raise InputError(
                    f"{self.kind}: not idempotent at "
                    f"{{{', '.join(self.universe.labels_of(m))}}}"
                )
            for e in bits(full & ~m):
                if c & ~cl[m | 1 << e]:
                    raise InputError(
                        f"{self.kind}: not monotone when adding "
                        f"{self.universe.label(e)!r} to "
                        f"{{{', '.join(self.universe.labels_of(m))}}}"
                    )

    def apply_mask(self, mask: int) -> int:
        # a negative index would wrap around the table
        if not 0 <= mask <= self.universe.full_mask:
            raise InputError(f"{self.kind}: mask {mask} outside the universe")
        return self.table[mask]

    def apply(self, X: Subset) -> Subset:
        same_poset(self.universe, X.poset)
        return Subset(self.universe, self.table[X.mask])

    def closed_masks(self) -> list[int]:
        return [m for m, c in enumerate(self.table) if c == m]


def _least_closed_above(full: int, closed: Iterable[int]) -> list[int]:
    """Image of every mask under the meet of the closed sets above it.

    Closed sets are given by mask; the universe counts as closed.  A
    mask that is not closed has the same closed supersets as its
    one-point extensions together, so one downward pass over the masks
    takes the meet of those extensions' images: n 2^n steps.
    """
    t = [-1] * (full + 1)
    for s in closed:
        t[s] = s
    for m in range(full, -1, -1):
        if t[m] >= 0:
            continue
        out = full
        rest = full & ~m
        while rest:
            low = rest & -rest
            out &= t[m | low]
            rest ^= low
        t[m] = out
    return t


def clsys_operator(P: FinitePoset, cap: Optional[int] = None) -> PowersetOperator:
    """Least-closure-system operator as a powerset closure operator."""
    table = _least_closed_above(P.full_mask, closure_system_masks(P, cap))
    return PowersetOperator(P, "clsys", table.__getitem__)


def dcclsys_operator(P: FinitePoset, cap: Optional[int] = None) -> PowersetOperator:
    """Least directed-closed closure system, as a powerset operator."""
    systems = [
        m
        for m in closure_system_masks(P, cap)
        if directed_closed(Subset(P, m), cap)
    ]
    table = _least_closed_above(P.full_mask, systems)
    return PowersetOperator(P, "dcclsys", table.__getitem__)


def rule_closure_operator(R: RuleSet, cap: Optional[int] = None) -> PowersetOperator:
    """Closure under a rule set, as a powerset operator.

    heads[m] collects the heads of every rule whose body lies inside m;
    m obeys the rules when all of them are in m, and the closure of a
    mask is the meet of the obeying sets above it."""
    P = R.poset
    check_cap("rule powerset operator", P.n, cap, SUBSET_CAP)
    full = P.full_mask
    heads = [0] * (full + 1)
    for b, h in R._heads_by_body().items():
        heads[b] |= h
    for e in range(P.n):
        bit = 1 << e
        for m in range(full + 1):
            if m & bit:
                heads[m] |= heads[m ^ bit]
    closed = [m for m in range(full + 1) if heads[m] & ~m == 0]
    table = _least_closed_above(full, closed)
    return PowersetOperator(P, "rules", table.__getitem__)


def table_operator(
    P: FinitePoset, table: dict, cap: Optional[int] = None
) -> PowersetOperator:
    """Operator given by an explicit table from label sets to label sets.

    The table must be total over the powerset; construction validates
    the closure laws and rejects violations."""
    check_cap("table powerset operator", P.n, cap, SUBSET_CAP)
    by_mask = {}
    for key, val in table.items():
        by_mask[P.mask_of(key)] = P.mask_of(val)
    if len(by_mask) != P.full_mask + 1:
        raise InputError(
            f"table not total: {len(by_mask)} of {P.full_mask + 1} subsets"
        )
    return PowersetOperator(P, "table", lambda m: by_mask[m])


# ---------------------------------------------------------------------------
# anti-exchange


def convexity_checks(op: PowersetOperator, cap: Optional[int] = None) -> dict:
    """Anti-exchange and its closed-set reformulation, independently.

    Anti-exchange: for distinct x, y outside the closure of A, if x
    enters when y is added then y does not enter when x is added.
    Closed-set form: from a closed set, adding distinct outside points
    never closes to the same set.  Their equivalence is enforced, not
    assumed.
    """
    P = op.universe
    check_cap("convexity analysis", P.n, cap, CONVEXITY_CAP)
    full = P.full_mask
    cl = op.table
    ae_witness = None
    for m in range(full + 1):
        cm = cl[m]
        out = full & ~cm
        for y in bits(out):
            cmy = cl[m | 1 << y]
            for x in bits(cmy & out & ~(1 << y)):
                if cl[m | 1 << x] >> y & 1:
                    ae_witness = (
                        P.labels_of(m),
                        P.label(x),
                        P.label(y),
                    )
                    break
            if ae_witness:
                break
        if ae_witness:
            break
    cas_witness = None
    for c in op.closed_masks():
        out = full & ~c
        outs = list(bits(out))
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                if cl[c | 1 << outs[i]] == cl[c | 1 << outs[j]]:
                    cas_witness = (
                        P.labels_of(c),
                        P.label(outs[i]),
                        P.label(outs[j]),
                    )
                    break
            if cas_witness:
                break
        if cas_witness:
            break
    agree(
        "anti-exchange",
        (ae_witness, cas_witness),
        anti_exchange=ae_witness is None,
        closed_set_form=cas_witness is None,
    )
    return {
        "anti_exchange": ae_witness is None,
        "anti_exchange_witness": ae_witness,
        "closed_set_form": cas_witness is None,
        "closed_set_witness": cas_witness,
        "is_convex_geometry": ae_witness is None,
    }


# ---------------------------------------------------------------------------
# funnels


Preorderish = Union[FinitePoset, Sequence[int]]


def _preorder_rows(P: FinitePoset, preorder: Preorderish) -> tuple[int, ...]:
    if isinstance(preorder, FinitePoset):
        same_poset(P, preorder)
        return preorder.le
    rows = tuple(preorder)
    n = P.n
    if len(rows) != n:
        raise NotAPreorder("one row mask per element is required")
    full = P.full_mask
    for i, row in enumerate(rows):
        if row & ~full:
            raise NotAPreorder("row mask outside the universe")
        if not row >> i & 1:
            raise NotAPreorder(f"not reflexive at {P.label(i)!r}")
    for i in range(n):
        for j in bits(rows[i]):
            if rows[j] & ~rows[i]:
                raise NotAPreorder(
                    f"not transitive at {P.label(i)!r} <= {P.label(j)!r}"
                )
    return rows


def funnel_check(
    op: PowersetOperator,
    preorder: Preorderish,
    cap: Optional[int] = None,
) -> dict:
    """Is the preorder a funnel for the operator?

    Three equivalent formulations are each computed on their own: the
    witness-subset definition (searched literally), preservation into
    upper sets, and the principal-upper-set form.  Disagreement raises.
    When the preorder is antisymmetric and is a funnel, the two
    consequences (new points sit above the point they pull in;
    anti-exchange in closed-set form) are verified as well.
    """
    P = op.universe
    check_cap("funnel analysis", P.n, cap, CONVEXITY_CAP)
    rows = _preorder_rows(P, preorder)
    full = P.full_mask
    cl = op.table

    # (1) for every X and y in the closure of X, some Z <= X with y
    # below all of Z has y in its closure
    cond1 = True
    wit1 = None
    for m in range(full + 1):
        cm = cl[m]
        for y in bits(cm):
            base = m & rows[y]
            found = False
            z = base
            while True:
                if cl[z] >> y & 1:
                    found = True
                    break
                if z == 0:
                    break
                z = (z - 1) & base
            if not found:
                cond1 = False
                wit1 = (P.labels_of(m), P.label(y))
                break
        if not cond1:
            break

    # (2) closures meet upper sets inside the closure of the trace
    uppers = [
        u
        for u in range(full + 1)
        if all(rows[i] & ~u == 0 for i in bits(u))
    ]
    cond2 = True
    wit2 = None
    for m in range(full + 1):
        cm = cl[m]
        for u in uppers:
            if cm & u & ~cl[m & u]:
                cond2 = False
                wit2 = (P.labels_of(m), P.labels_of(u))
                break
        if not cond2:
            break

    # (3) the part of a closure above y is inside the closure of the
    # part of the set above y
    cond3 = True
    wit3 = None
    for m in range(full + 1):
        cm = cl[m]
        for y in range(P.n):
            if cm & rows[y] & ~cl[m & rows[y]]:
                cond3 = False
                wit3 = (P.labels_of(m), P.label(y))
                break
        if not cond3:
            break

    agree(
        "funnel status",
        (wit1, wit2, wit3),
        witness_definition=cond1,
        upper_set_form=cond2,
        principal_form=cond3,
    )

    antisymmetric = all(
        not (rows[i] >> j & 1 and rows[j] >> i & 1)
        for i in range(P.n)
        for j in range(i + 1, P.n)
    )
    if cond1 and antisymmetric:
        for m in range(full + 1):
            cm = cl[m]
            out = full & ~cm
            for y in bits(out):
                cmy = cl[m | 1 << y]
                for x in bits(cmy & out & ~(1 << y)):
                    if not rows[x] >> y & 1:
                        raise TheoremBreach(
                            "an antisymmetric funnel admitted a new point "
                            "not below the point that pulled it in"
                        )
        checks = convexity_checks(op, cap)
        if not checks["anti_exchange"]:
            raise TheoremBreach(
                "an operator with an antisymmetric funnel fails "
                "anti-exchange"
            )

    return {
        "is_funnel": cond1,
        "witness_definition": cond1,
        "upper_set_form": cond2,
        "principal_form": cond3,
        "witness": wit1 or wit2 or wit3,
        "antisymmetric": antisymmetric,
    }


def acyclicity(
    op: PowersetOperator,
    mode: str = "poset_order",
    cap: Optional[int] = None,
) -> dict:
    """Does some partial order serve as a funnel for the operator?

    mode 'poset_order' tries only the universe's own order.  mode
    'search' tries every partial order on the elements and is therefore
    limited to five elements.
    """
    P = op.universe
    if mode == "poset_order":
        rep = funnel_check(op, P, cap)
        return {
            "acyclic": rep["is_funnel"],
            "mode": mode,
            "order": "poset",
            "funnel_report": rep,
        }
    if mode != "search":
        raise ValueError(f"unknown mode {mode!r}")
    check_cap("acyclicity search", P.n, cap, 5)
    n = P.n
    cl = op.table
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for assignment in range(3 ** len(pairs)):
        rows = [1 << i for i in range(n)]
        a = assignment
        for i, j in pairs:
            a, r = divmod(a, 3)
            if r == 1:
                rows[i] |= 1 << j
            elif r == 2:
                rows[j] |= 1 << i
        for k in range(n):
            rk = rows[k]
            for i in range(n):
                if rows[i] >> k & 1:
                    rows[i] |= rk
        key = tuple(rows)
        if key in seen:
            continue
        seen.add(key)
        ok = all(
            not (rows[i] >> j & 1 and rows[j] >> i & 1) for i, j in pairs
        )
        if not ok:
            continue
        # cheap screen first, full three-way check only on success
        screen = True
        for m in range(P.full_mask + 1):
            cm = cl[m]
            for y in range(n):
                if cm & rows[y] & ~cl[m & rows[y]]:
                    screen = False
                    break
            if not screen:
                break
        if screen:
            rep = funnel_check(op, key, cap)
            if rep["is_funnel"]:
                order_pairs = [
                    (P.label(i), P.label(j))
                    for i in range(n)
                    for j in bits(rows[i])
                    if i != j
                ]
                return {
                    "acyclic": True,
                    "mode": mode,
                    "order": order_pairs,
                    "funnel_report": rep,
                }
    return {"acyclic": False, "mode": mode, "order": None, "funnel_report": None}
