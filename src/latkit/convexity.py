"""Closure operators on a powerset: anti-exchange, funnels, acyclicity.

Here the operator acts on subsets of a poset's element set, not on the
elements themselves.  The poset's order plays two roles: it induces the
clsys and dcclsys operators, and it is one candidate funnel.

The anti-exchange property and its closed-set reformulation are
computed separately and compared; so are the three equivalent funnel
conditions.  An operator is a table of all 2^n images and its n bit
columns, built and checked once: column j is the 2^n-bit int whose bit
m is set iff j is in cl(m).  Of each compared pair, one route reads the
columns and the other the table.  The column routes, anti-exchange and
funnel conditions (1) and (2), take every mask at once as shifts and
masks of 2^n-bit ints: a few per pair of elements, per element or per
upper set, not a Python step per mask.  The table routes read the
closed-set form's n^2 entries per closed set and, for condition (3),
two entries per trace on each up-set.  Read literally, one table entry
per step, condition (1) would search up to 3^n nested pairs of subsets;
the literal scans are kept in tests/test_convexity.py as the reference.
These checks keep their own, smaller default cap.

The anti-exchange sweep finds, for each pair x, y, the sets A at
which y pulls x in (y outside cl(A), x in cl(A + y) but not in cl(A))
and, finding no witness, records that relation, which an antisymmetric
funnel contains.
A funnel stays one when its order grows, and every partial order
extends to a linear one, so the acyclicity search tries linear orders.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import permutations
from typing import Callable, Optional, Sequence, Union

from .errors import InputError, NotAPreorder, TheoremBreach, agree
from .closure import closure_system_masks, directed_closed_systems
from .order import (
    SUBSET_CAP,
    FinitePoset,
    Subset,
    _with_bit,
    bits,
    check_cap,
    derived,
    least_closed_table,
    same_poset,
    upper_sets,
)
from .rules import RuleSet, obeying_masks

# every sweep below is exponential in n, and condition (1) quantifies
# over nested pairs of subsets; keep the default tighter than the
# global subset cap
CONVEXITY_CAP = 10


# _BIT_DIGITS[i] maps a byte to the digit "1" if its bit i is set, else
# "0": runs of 2^i zeros and 2^i ones
_BIT_DIGITS = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


def _bit_columns(table: Sequence[int], n: int) -> tuple[int, ...]:
    """Column j of a table of 2^n masks: the 2^n-bit int whose bit m is
    set iff bit j of table[m] is.

    The table is packed little-endian and cut into byte lanes, lane k
    holding bits 8k to 8k + 7 of every entry, each reversed so that mask
    0 is the last digit.  Each column is then one bytes.translate of its
    lane into binary digits and one int(..., 2).
    """
    width = (n + 7) // 8
    packed = array(next(c for c in "BHIQ" if array(c).itemsize >= width), table)
    if sys.byteorder == "big":
        packed.byteswap()
    raw = packed.tobytes()
    lanes = [raw[k :: packed.itemsize][::-1] for k in range(width)]
    return tuple(
        int(lanes[j >> 3].translate(_BIT_DIGITS[j & 7]), 2) for j in range(n)
    )


def _has_bit(P: FinitePoset) -> tuple[int, ...]:
    """Entry e: the 2^n-bit int whose bit m is set iff bit e of m is.
    Read through order.derived."""
    return tuple(_with_bit(e, 1 << P.n) for e in range(P.n))


def _lowest(masks: int) -> int:
    """The least mask in a nonzero set of masks given as one int."""
    return (masks & -masks).bit_length() - 1


@dataclass(frozen=True)
class PowersetOperator:
    """A closure operator on the powerset of a poset's elements.

    Construction applies the strategy function to every mask once and
    keeps the images in `table`, indexed by mask, and their n bit
    `columns`.  It checks that no image escapes the universe and decides
    the laws on the columns: ascending and monotone as n^2 mask tests,
    idempotent over the distinct images.  Only when a law fails does it
    scan every subset, to name the first fault; each constructor gates
    the size by its cap first.  Equality and hashing read the universe,
    the kind and the table.  `_anti_exchange` holds the verdict of the
    last convexity_checks sweep on this table, None before one; when
    that verdict is True, bit y of `_pulled[x]` says that y pulls x in.
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
        cl = tuple(map(fn, range(full + 1)))
        if min(cl) < 0 or max(cl) > full:
            raise InputError(f"{self.kind}: image escapes the universe")
        object.__setattr__(self, "table", cl)
        if not self._columns_keep_laws():
            fault = self._first_law_fault()
            agree(
                "closure laws",
                self.kind,
                bit_columns=False,
                table_scan=fault is None,
            )
            raise InputError(f"{self.kind}: {fault}")

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Bit m of columns[j] is set iff j is in cl(m)."""
        return _bit_columns(self.table, self.universe.n)

    def _columns_keep_laws(self) -> bool:
        has = derived(self.universe, _has_bit)
        for j, col in enumerate(self.columns):
            # ascending: every mask holding j closes to a set holding j
            if has[j] & ~col:
                return False
            # monotone: j stays in cl(m) when e is added to m
            for e, h in enumerate(has):
                if (col & ~h) << (1 << e) & ~col:
                    return False
        cl = self.table
        return all(cl[c] == c for c in set(cl))

    def _first_law_fault(self) -> Optional[str]:
        """The first subset, in mask order, at which a law fails."""
        U, cl = self.universe, self.table
        for m, c in enumerate(cl):
            if m & ~c:
                return f"not ascending at {{{', '.join(U.labels_of(m))}}}"
            if cl[c] != c:
                return f"not idempotent at {{{', '.join(U.labels_of(m))}}}"
            for e in bits(U.full_mask & ~m):
                if c & ~cl[m | 1 << e]:
                    return (
                        f"not monotone when adding {U.label(e)!r} to "
                        f"{{{', '.join(U.labels_of(m))}}}"
                    )
        return None

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


def _anti_exchange_failure(P: FinitePoset, cols, pulled) -> Optional[tuple]:
    """The first (A, x, y) with x and y each pulled in by the other at
    A, read from the bit columns; when there is none, bit y of
    pulled[x] records each y that pulls x in."""
    has = derived(P, _has_bit)
    # pin[x][y]: the masks A with x and y outside cl(A) and x in cl(A + y)
    pin = [
        [
            cx >> (1 << y) & ~(cx | cy | h) if y != x else 0
            for y, (cy, h) in enumerate(zip(cols, has))
        ]
        for x, cx in enumerate(cols)
    ]
    fails = 0
    for x in range(P.n):
        for y in range(x):
            fails |= pin[x][y] & pin[y][x]
    if not fails:
        for x, row in enumerate(pin):
            pulled[x] = sum(1 << y for y, masks in enumerate(row) if masks)
        return None
    # at the least failing A the sweep tries y, then x, ascending
    m = _lowest(fails)
    x, y = next(
        (x, y)
        for y, x in permutations(range(P.n), 2)
        if (pin[x][y] & pin[y][x]) >> m & 1
    )
    return P.labels_of(m), P.label(x), P.label(y)


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
    ae_witness = _anti_exchange_failure(P, op.columns, pulled)
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


def _project(masks: int, outside: int, has: Sequence[int]) -> int:
    """Bit m of the result is bit m & ~outside of masks: each dimension
    in outside is cleared, then copied up from the masks without it."""
    for e in bits(outside):
        masks &= ~has[e]
        masks |= masks << (1 << e)
    return masks


def _witness_failure(P: FinitePoset, cols, rows) -> Optional[tuple]:
    """Funnel condition (1), read from the bit columns: the first (X, y)
    with y in the closure of X and no Z inside X, with y below all of Z,
    whose closure holds y."""
    has = derived(P, _has_bit)
    fails, every = [], 0
    for y, col in enumerate(cols):
        row = rows[y]
        # bit m of reach: y is in the closure of some Z inside m, with
        # m \ Z inside the up-set of y (the zeta transform along it)
        reach = col
        for e in bits(row):
            reach |= (reach & ~has[e]) << (1 << e)
        # read at m & row, so that Z lies inside the part of m above y
        fails.append(col & ~_project(reach, P.full_mask & ~row, has))
        every |= fails[-1]
    if not every:
        return None
    # the sweep tries y ascending at each X
    m = _lowest(every)
    y = next(y for y, masks in enumerate(fails) if masks >> m & 1)
    return P.labels_of(m), P.label(y)


def _upper_set_failure(P: FinitePoset, cols, rows) -> Optional[tuple]:
    """Funnel condition (2), read from the bit columns: the first (X, U),
    U an upper set, where the closure of X meets U outside the closure
    of X's trace on U.

    Column j, read at X's trace on U, is its projection outside U.  An
    upper set can fail only if adding some e outside it to some mask
    brings some j inside it into the closure, so only those upper sets
    are projected."""
    has = derived(P, _has_bit)
    # raisers[j]: the e such that j is in cl(m + e) but not in cl(m)
    raisers = [
        sum(
            1 << e
            for e, h in enumerate(has)
            if col & h & ~((col & ~h) << (1 << e))
        )
        for col in cols
    ]
    found = []
    for u in upper_sets(rows):
        if any(raisers[j] & ~u for j in bits(u)):
            outside = P.full_mask & ~u
            masks = 0
            for j in bits(u):
                masks |= cols[j] & ~_project(cols[j], outside, has)
            if masks:
                found.append((masks, u))
    if not found:
        return None
    # the sweep tries every upper set, in upper_sets order, at each X
    m = min(_lowest(masks) for masks, u in found)
    u = next(u for masks, u in found if masks >> m & 1)
    return P.labels_of(m), P.labels_of(u)


def _principal_scan(P: FinitePoset, cl, rows) -> tuple:
    """The first (X, y) failing funnel condition (3), in mask order."""
    return next(
        (P.labels_of(m), P.label(y))
        for m in range(P.full_mask + 1)
        for y, row in enumerate(rows)
        if cl[m] & row & ~cl[m & row]
    )


def _principal_failure(P: FinitePoset, cl, rows) -> Optional[tuple]:
    """Funnel condition (3), read from the table: the first (X, y) where
    the part of the closure of X above y is not inside the closure of
    the part of X above y.

    Each trace T of X on the up-set of y is tried once, at the largest
    X with that trace, T together with every element outside the
    up-set: the closure is monotone, so no other X with that trace has
    more of its closure above y.  The scan in mask order runs only to
    name the first witness."""
    full = P.full_mask
    for row in set(rows):
        outside = full & ~row
        t = row
        while True:
            if cl[t | outside] & row & ~cl[t]:
                return _principal_scan(P, cl, rows)
            if not t:
                break
            t = (t - 1) & row
    return None


def funnel_check(
    op: PowersetOperator,
    preorder: Preorderish,
    cap: Optional[int] = None,
) -> dict:
    """Is the preorder a funnel for the operator?

    Three equivalent formulations are each computed on their own: the
    witness-subset definition and preservation into upper sets, on the
    bit columns, and the principal-upper-set form, on the table.
    Disagreement raises.  When the preorder is antisymmetric and is a
    funnel, the two consequences are verified as well: anti-exchange,
    and every new point sits below the point that pulled it in.  Both
    are read from the operator's anti-exchange sweep, which runs here
    only if none has.
    """
    P = op.universe
    check_cap("funnel analysis", P.n, cap, CONVEXITY_CAP)
    rows = _preorder_rows(P, preorder)
    wit1 = _witness_failure(P, op.columns, rows)
    wit2 = _upper_set_failure(P, op.columns, rows)
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
