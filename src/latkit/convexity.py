"""Closure operators on a powerset: anti-exchange, funnels, acyclicity.

Here the operator acts on subsets of a poset's element set, not on the
elements themselves.  The poset's order plays two roles: it induces the
clsys and dcclsys operators, and it is one candidate funnel.

The anti-exchange property and its closed-set reformulation are
computed separately and compared; so are the three equivalent funnel
conditions.  Quantifier sweeps here cost 3^n to 4^n, so these checks
run under their own, smaller default cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .errors import InputError, NotAPreorder, TheoremBreach
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
from .rules import RuleSet, rule_closure_mask

# quantifying over pairs of subsets is 4^n; keep the default tighter
# than the global subset cap
CONVEXITY_CAP = 10


@dataclass(frozen=True)
class PowersetOperator:
    """A closure operator on the powerset of a poset's elements.

    Wraps a strategy function from mask to mask.  Construction checks
    ascent, monotonicity and idempotence exhaustively, on every subset;
    each constructor gates the size by its cap first.  Applications are
    memoized per instance.
    """

    universe: FinitePoset
    kind: str
    _fn: Callable = field(repr=False, compare=False)
    _memo: dict = field(
        default_factory=dict, repr=False, compare=False, init=False
    )

    def __post_init__(self):
        full = self.universe.full_mask
        for m in range(full + 1):
            c = self.apply_mask(m)
            if m & ~c:
                raise InputError(
                    f"{self.kind}: not ascending at "
                    f"{{{', '.join(self.universe.labels_of(m))}}}"
                )
            if self.apply_mask(c) != c:
                raise InputError(
                    f"{self.kind}: not idempotent at "
                    f"{{{', '.join(self.universe.labels_of(m))}}}"
                )
            for e in bits(full & ~m):
                if c & ~self.apply_mask(m | 1 << e):
                    raise InputError(
                        f"{self.kind}: not monotone when adding "
                        f"{self.universe.label(e)!r} to "
                        f"{{{', '.join(self.universe.labels_of(m))}}}"
                    )

    def apply_mask(self, mask: int) -> int:
        memo = self._memo
        if mask in memo:
            return memo[mask]
        out = self._fn(mask)
        if out & ~self.universe.full_mask:
            raise InputError(f"{self.kind}: image escapes the universe")
        memo[mask] = out
        return out

    def apply(self, X: Subset) -> Subset:
        same_poset(self.universe, X.poset)
        return Subset(self.universe, self.apply_mask(X.mask))

    def closed_masks(self) -> list[int]:
        full = self.universe.full_mask
        return [m for m in range(full + 1) if self.apply_mask(m) == m]


def clsys_operator(P: FinitePoset, cap: Optional[int] = None) -> PowersetOperator:
    """Least-closure-system operator as a powerset closure operator."""
    systems = closure_system_masks(P, cap)

    def fn(mask: int) -> int:
        out = P.full_mask
        for s in systems:
            if mask & ~s == 0:
                out &= s
        return out

    return PowersetOperator(P, "clsys", fn)


def dcclsys_operator(P: FinitePoset, cap: Optional[int] = None) -> PowersetOperator:
    """Least directed-closed closure system, as a powerset operator."""
    systems = [
        m
        for m in closure_system_masks(P, cap)
        if directed_closed(Subset(P, m), cap)
    ]

    def fn(mask: int) -> int:
        out = P.full_mask
        for s in systems:
            if mask & ~s == 0:
                out &= s
        return out

    return PowersetOperator(P, "dcclsys", fn)


def rule_closure_operator(R: RuleSet, cap: Optional[int] = None) -> PowersetOperator:
    check_cap("rule powerset operator", R.poset.n, cap, SUBSET_CAP)
    return PowersetOperator(
        R.poset, "rules", lambda m: rule_closure_mask(R, m)
    )


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
    ae_witness = None
    for m in range(full + 1):
        cm = op.apply_mask(m)
        out = full & ~cm
        for y in bits(out):
            cmy = op.apply_mask(m | 1 << y)
            for x in bits(cmy & out & ~(1 << y)):
                if op.apply_mask(m | 1 << x) >> y & 1:
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
                if op.apply_mask(c | 1 << outs[i]) == op.apply_mask(
                    c | 1 << outs[j]
                ):
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
    if (ae_witness is None) != (cas_witness is None):
        raise TheoremBreach(
            "anti-exchange and its closed-set reformulation disagree: "
            f"{ae_witness!r} versus {cas_witness!r}"
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

    # (1) for every X and y in the closure of X, some Z <= X with y
    # below all of Z has y in its closure
    cond1 = True
    wit1 = None
    for m in range(full + 1):
        cm = op.apply_mask(m)
        for y in bits(cm):
            base = m & rows[y]
            found = False
            z = base
            while True:
                if op.apply_mask(z) >> y & 1:
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
        cm = op.apply_mask(m)
        for u in uppers:
            if cm & u & ~op.apply_mask(m & u):
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
        cm = op.apply_mask(m)
        for y in range(P.n):
            if cm & rows[y] & ~op.apply_mask(m & rows[y]):
                cond3 = False
                wit3 = (P.labels_of(m), P.label(y))
                break
        if not cond3:
            break

    if not cond1 == cond2 == cond3:
        raise TheoremBreach(
            "the three funnel formulations disagree: "
            f"{cond1}/{cond2}/{cond3} with witnesses "
            f"{wit1!r} {wit2!r} {wit3!r}"
        )

    antisymmetric = all(
        not (rows[i] >> j & 1 and rows[j] >> i & 1)
        for i in range(P.n)
        for j in range(i + 1, P.n)
    )
    if cond1 and antisymmetric:
        for m in range(full + 1):
            cm = op.apply_mask(m)
            out = full & ~cm
            for y in bits(out):
                cmy = op.apply_mask(m | 1 << y)
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
            cm = op.apply_mask(m)
            for y in range(n):
                if cm & rows[y] & ~op.apply_mask(m & rows[y]):
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
