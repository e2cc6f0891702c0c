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

The anti-exchange sweep visits every pull-in triple (y outside cl(A)
pulls x in when x is in cl(A + y) but not in cl(A)) and, finding no
witness, records that relation, which an antisymmetric funnel contains.
A funnel stays one when its order grows, and every partial order
extends to a linear one, so the acyclicity search tries linear orders.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import permutations
from typing import Callable, Optional, Sequence, Union

from .errors import InputError, NotAPreorder, TheoremBreach, agree
from .closure import closure_system_masks, directed_closed_systems
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    bits,
    check_cap,
    least_closed_table,
    same_poset,
    upper_sets,
)
from .rules import RuleSet, obeying_masks

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
    gates the size by its cap first.  Equality and hashing read the
    universe, the kind and the table.  `_anti_exchange` holds the verdict
    of the last convexity_checks sweep on this table, None before one;
    when that verdict is True, bit y of `_pulled[x]` says that y pulls
    x in.
    """

    universe: FinitePoset
    kind: str
    fn: InitVar[Callable]
    table: tuple = field(init=False, repr=False)
    _anti_exchange: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pulled: Optional[tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

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


def clsys_operator(P: FinitePoset, cap: Optional[int] = None) -> PowersetOperator:
    """Least-closure-system operator as a powerset closure operator."""
    table = least_closed_table(P.full_mask, closure_system_masks(P, cap))
    return PowersetOperator(P, "clsys", table.__getitem__)


def dcclsys_operator(P: FinitePoset, cap: Optional[int] = None) -> PowersetOperator:
    """Least directed-closed closure system, as a powerset operator."""
    table = least_closed_table(P.full_mask, directed_closed_systems(P, cap))
    return PowersetOperator(P, "dcclsys", table.__getitem__)


def rule_closure_operator(R: RuleSet, cap: Optional[int] = None) -> PowersetOperator:
    """Closure under a rule set, as a powerset operator: the closure of
    a mask is the meet of the obeying sets above it."""
    P = R.poset
    check_cap("rule powerset operator", P.n, cap, SUBSET_CAP)
    table = least_closed_table(P.full_mask, obeying_masks(R, cap))
    return PowersetOperator(P, "rules", table.__getitem__)


def table_operator(
    P: FinitePoset, table: dict, cap: Optional[int] = None
) -> PowersetOperator:
    """Operator given by an explicit table from label sets to label sets.

    The table must name every subset once; construction validates the
    closure laws and rejects violations."""
    check_cap("table powerset operator", P.n, cap, SUBSET_CAP)
    by_mask = {}
    for key, val in table.items():
        m = P.mask_of(key)
        if m in by_mask:
            raise InputError(f"table names {{{', '.join(P.labels_of(m))}}} twice")
        by_mask[m] = P.mask_of(val)
    if len(by_mask) != P.full_mask + 1:
        raise InputError(
            f"table not total: {len(by_mask)} of {P.full_mask + 1} subsets"
        )
    return PowersetOperator(P, "table", lambda m: by_mask[m])


# ---------------------------------------------------------------------------
# anti-exchange


def _anti_exchange_failure(P: FinitePoset, cl, pulled) -> Optional[tuple]:
    """The first (A, x, y) with x and y each pulled in by the other at
    A; until it is found, bit y of pulled[x] records each y that pulls
    x in."""
    full = P.full_mask
    for m in range(full + 1):
        out = full & ~cl[m]
        for y in bits(out):
            ybit = 1 << y
            for x in bits(cl[m | ybit] & out & ~ybit):
                pulled[x] |= ybit
                if cl[m | 1 << x] & ybit:
                    return P.labels_of(m), P.label(x), P.label(y)
    return None


def _closed_set_failure(op: PowersetOperator) -> Optional[tuple]:
    """The first closed C and distinct x, y outside it with
    cl(C + x) = cl(C + y)."""
    P, cl = op.universe, op.table
    for c in op.closed_masks():
        outs = list(bits(P.full_mask & ~c))
        for i, x in enumerate(outs):
            for y in outs[i + 1:]:
                if cl[c | 1 << x] == cl[c | 1 << y]:
                    return P.labels_of(c), P.label(x), P.label(y)
    return None


def convexity_checks(op: PowersetOperator, cap: Optional[int] = None) -> dict:
    """Anti-exchange and its closed-set reformulation, independently.

    Anti-exchange: for distinct x, y outside the closure of A, if x
    enters when y is added then y does not enter when x is added.
    Closed-set form: from a closed set, adding distinct outside points
    never closes to the same set.  Their equivalence is enforced, not
    assumed.  Every call sweeps; the verdict, and the pull-in relation
    when there is no witness, are kept on the operator for funnel_check
    to reuse.
    """
    P = op.universe
    check_cap("convexity analysis", P.n, cap, CONVEXITY_CAP)
    pulled = [0] * P.n
    ae_witness = _anti_exchange_failure(P, op.table, pulled)
    cas_witness = _closed_set_failure(op)
    agree(
        "anti-exchange",
        (ae_witness, cas_witness),
        anti_exchange=ae_witness is None,
        closed_set_form=cas_witness is None,
    )
    object.__setattr__(op, "_anti_exchange", ae_witness is None)
    if ae_witness is None:
        object.__setattr__(op, "_pulled", tuple(pulled))
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


def _witness_failure(P: FinitePoset, cl, rows) -> Optional[tuple]:
    """Funnel condition (1), searched literally: the first (X, y) with y
    in the closure of X and no Z inside X, with y below all of Z, whose
    closure holds y."""
    for m in range(P.full_mask + 1):
        for y in bits(cl[m]):
            base = m & rows[y]
            z = base
            while not cl[z] >> y & 1:
                if z == 0:
                    return P.labels_of(m), P.label(y)
                z = (z - 1) & base
    return None


def _upper_set_failure(P: FinitePoset, cl, rows) -> Optional[tuple]:
    """Funnel condition (2): the first (X, U), U an upper set, where the
    closure of X meets U outside the closure of X's trace on U."""
    uppers = upper_sets(rows)
    for m in range(P.full_mask + 1):
        cm = cl[m]
        for u in uppers:
            if cm & u & ~cl[m & u]:
                return P.labels_of(m), P.labels_of(u)
    return None


def _principal_failure(P: FinitePoset, cl, rows) -> Optional[tuple]:
    """Funnel condition (3): the first (X, y) where the part of the
    closure of X above y is not inside the closure of the part of X
    above y."""
    for m in range(P.full_mask + 1):
        cm = cl[m]
        for y, row in enumerate(rows):
            if cm & row & ~cl[m & row]:
                return P.labels_of(m), P.label(y)
    return None


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
    consequences are verified as well: anti-exchange, and every new
    point sits below the point that pulled it in.  Both are read from
    the operator's anti-exchange sweep, which runs here only if none
    has.
    """
    P = op.universe
    check_cap("funnel analysis", P.n, cap, CONVEXITY_CAP)
    rows = _preorder_rows(P, preorder)
    wit1 = _witness_failure(P, op.table, rows)
    wit2 = _upper_set_failure(P, op.table, rows)
    wit3 = _principal_failure(P, op.table, rows)
    cond1, cond2, cond3 = wit1 is None, wit2 is None, wit3 is None
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
        if op._anti_exchange is None:
            convexity_checks(op, cap)
        if not op._anti_exchange:
            raise TheoremBreach(
                "an operator with an antisymmetric funnel fails "
                "anti-exchange"
            )
        if any(p & ~r for p, r in zip(op._pulled, rows)):
            raise TheoremBreach(
                "an antisymmetric funnel admitted a new point "
                "not below the point that pulled it in"
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
    'search' tries every linear order on the elements, which decides
    the question exactly: a funnel stays a funnel when its order grows,
    and every partial order extends to a linear one.  The search is
    limited to five elements, and a found order is reported as its
    pairs.
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
    for line in permutations(range(n)):
        # rows[i]: i and every element after it in the line
        rows = [0] * n
        above = 0
        for i in reversed(line):
            above |= 1 << i
            rows[i] = above
        # cheap screen first, full three-way check only on success
        if _principal_failure(P, op.table, rows) is None:
            rep = funnel_check(op, rows, cap)
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
