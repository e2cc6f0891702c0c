"""Spans and counters around latkit's public functions.

`install()` wraps the functions named in TARGETS in every latkit module
namespace that holds them, and the `__post_init__` of the public
classes, so library-internal calls are seen as well as the CLI's.  A
span records function id, start, end, parent span and, where asked,
the number of items returned and whether the call repeated arguments
already seen in the same operation.  The hot primitives in COUNTERS get
a counter and no span.  A name a refactor removed or moved is recorded
as absent and its metrics read zero.

Spans live in memory in the process that made them.  `reduce_op`
turns one operation's spans into per-function sums (self time is a
span's duration minus its children's), and checks that the self times
add up to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("cli", "order", "maps", "closure", "rules", "heyting", "hmj", "convexity")

# layer -> names with a span; "Class.init" is the class's __post_init__
# and "Class.method" a method.  Flags: "items" records len(result);
# "repeat" marks calls whose arguments (posets by identity) were already
# seen in the same operation.  Names beyond those the metrics quote are
# wrapped so that their time counts to their own layer, not the caller's.
TARGETS = {
    "cli": {"main": (), "load_poset": (), "load_map": (), "load_rules": ()},
    "order": {
        "build_poset": (),
        "directed_subsets": ("items",),
        "meet_table": ("repeat",),
        "way_below_relation": (),
        "covers": (),
    },
    "maps": {
        "is_increasing": (),
        "preserves_binary_meets": (),
        "is_scott_continuous": (),
        "directed_closed": (),
    },
    "closure": {
        "closure_system_masks": ("items",),
        "duality": (),
        "enumerate_cl_lattice": (),
        "generate_closure": (),
        "kleene_generate": (),
        "induction_check": (),
        "clsys": (),
        "dcclsys": (),
        "sccore": (),
        "sccore_bruteforce": (),
        "tarski": (),
        "ClosureOperator.init": (),
    },
    "rules": {
        "default_rules": (),
        "nuclear_rules": (),
        "rule_closure": (),
        "RuleSet.is_reflexive": (),
        "RuleSet.is_transitive": (),
    },
    "heyting": {
        "validate_structure": ("repeat",),
        "implication_table": (),
        "enumerate_nuclei": ("items",),
        "nucleus_join": (),
        "nucsys": (),
        "nuc_map": (),
        "least_nucleus_above": (),
        "nuclear_core": (),
        "Nucleus.init": (),
    },
    "hmj": {
        "is_filter": (),
        "enumerate_filters": ("items",),
        "open_nucleus": ("repeat",),
        "fitnuc": (),
        "fitting": (),
        "is_scott_open": (),
        "is_nuclear_filter": (),
        "is_compact_quotient": (),
        "hmj_correspondence": (),
    },
    "convexity": {
        "clsys_operator": (),
        "dcclsys_operator": (),
        "convexity_checks": (),
        "funnel_check": (),
        "acyclicity": (),
        "PowersetOperator.init": (),
    },
}

# counted, no span
COUNTERS = {"order": ("bits", "join_of"), "maps": ("EndoMap.init",)}

# The brute-force half of each route pair: always when named in the
# first set, and inside the second set's members when named in the third.
XCHECK_ALWAYS = ("closure.kleene_generate", "closure.sccore_bruteforce")
XCHECK_INNER = ("heyting.enumerate_nuclei", "heyting.nucsys")
XCHECK_OUTER = (
    "heyting.least_nucleus_above",
    "heyting.nuclear_core",
    "heyting.nuc_map",
    "hmj.is_nuclear_filter",
)

ROOT = "bench.op"


class Tracer:
    """Span and counter state of one process."""

    def __init__(self):
        self.names = [ROOT]  # function id -> "layer.name"; 0 is the root
        self.spans = []  # [fid, start, end, parent, items, repeated]
        self.stack = []
        self.seen = set()
        self.pins = []  # keeps posets alive so their ids stay unique
        self.counters = {}  # "layer.name" -> one-element list
        self.absent = []
        self.patches = []  # (owner, attribute, original) to undo

    def uninstall(self):
        """Put every wrapped name back as it was."""
        for owner, attr, old in reversed(self.patches):
            setattr(owner, attr, old)
        self.patches.clear()

    def fid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin_op(self):
        """Forget the previous operation's spans and repeat keys."""
        self.spans.clear()
        self.stack.clear()
        self.seen.clear()
        self.pins.clear()
        for cell in self.counters.values():
            cell[0] = 0

    def is_idle(self) -> bool:
        return not self.spans and not any(c[0] for c in self.counters.values())

    def span(self, fid: int, fn, items=False, repeat=False, key_of=None):
        spans, stack, seen, pins = self.spans, self.stack, self.seen, self.pins
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            if repeat:
                key = (fid,) + tuple(key_of(a, pins) for a in args) + tuple(
                    sorted(kwargs.items())
                )
                if key in seen:
                    rec[5] = 1
                else:
                    seen.add(key)
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if items:
                rec[4] = len(out)
            return out

        return wrapper

    def root(self, fn, *args):
        """Run fn(*args) as one operation's root span."""
        return self.span(0, fn)(*args)

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(layer: str, name: str):
    """(owner, attribute, object) for a target name, or None when a
    refactor removed or moved it."""
    try:
        mod = importlib.import_module(f"latkit.{layer}")
    except ImportError:
        return None
    if "." not in name:
        fn = getattr(mod, name, None)
        return (mod, name, fn) if callable(fn) else None
    cls_name, meth = name.split(".")
    cls = getattr(mod, cls_name, None)
    attr = "__post_init__" if meth == "init" else meth
    fn = vars(cls).get(attr) if isinstance(cls, type) else None
    return (cls, attr, fn) if callable(fn) else None


def install() -> Tracer:
    """Wrap latkit's public names; call after importing latkit.cli.

    Module-level functions are replaced in every latkit module that
    imported them, so internal calls are seen too; methods are replaced
    on their class."""
    from latkit.heyting import FrameView
    from latkit.order import FinitePoset

    def key_of(a, pins):
        if isinstance(a, FrameView):
            a = a.poset
        if isinstance(a, FinitePoset):
            pins.append(a)
            return ("poset", id(a))
        return a

    tr = Tracer()
    wanted = [
        (layer, name, flags) for layer, funcs in TARGETS.items()
        for name, flags in funcs.items()
    ] + [(layer, name, None) for layer, names in COUNTERS.items() for name in names]
    replace = {}
    for layer, name, flags in wanted:
        found = _resolve(layer, name)
        if found is None:
            tr.absent.append(f"{layer}.{name}")
            continue
        owner, attr, fn = found
        if flags is None:
            w = tr.counter(f"{layer}.{name}", fn)
        else:
            w = tr.span(
                tr.fid(f"{layer}.{name}"), fn,
                items="items" in flags, repeat="repeat" in flags, key_of=key_of,
            )
        if isinstance(owner, type):
            tr.patches.append((owner, attr, fn))
            setattr(owner, attr, w)
        else:
            replace[id(fn)] = (fn, w)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "latkit" or modname.startswith("latkit.")):
            continue
        for attr, val in list(vars(mod).items()):
            new = replace.get(id(val))
            if new is not None and new[0] is val:
                tr.patches.append((mod, attr, val))
                setattr(mod, attr, new[1])
    return tr


def reduce_op(tr: Tracer) -> dict:
    """Per-function sums for the current operation.

    Returns {"fn": {name: [calls, self_s, incl_s, items, repeats]},
    "count": {name: n}, "root_s": root duration, "xcheck_s": time in
    outermost cross-check spans}.  Raises AssertionError when a span's
    self time is negative or the self times do not add up to the root
    duration.
    """
    spans, names = tr.spans, tr.names
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    fn: dict = {}
    root_s = 0.0
    self_sum = 0.0
    xcheck_s = 0.0
    xmark = [False] * len(spans)  # span is inside an xcheck span
    outer = [False] * len(spans)  # span is inside an XCHECK_OUTER span
    for i, rec in enumerate(spans):
        name = names[rec[0]]
        dur = rec[2] - rec[1]
        self_s = dur - child[i]
        assert self_s >= -1e-9, f"{name} spends less time than its children"
        self_sum += self_s
        p = rec[3]
        if p < 0:
            root_s += dur
        else:
            xmark[i] = xmark[p]
            outer[i] = outer[p] or names[spans[p][0]] in XCHECK_OUTER
        if not xmark[i] and (
            name in XCHECK_ALWAYS or (name in XCHECK_INNER and outer[i])
        ):
            xmark[i] = True
            xcheck_s += dur
        agg = fn.get(name)
        if agg is None:
            agg = fn[name] = [0, 0.0, 0.0, 0, 0]
        agg[0] += 1
        agg[1] += self_s
        agg[2] += dur
        agg[3] += rec[4]
        agg[4] += rec[5]
    assert abs(self_sum - root_s) <= 1e-9 * (len(spans) + 1), (
        f"self times sum to {self_sum}, root spans to {root_s}"
    )
    return {
        "fn": fn,
        "count": {k: c[0] for k, c in tr.counters.items()},
        "root_s": root_s,
        "xcheck_s": xcheck_s,
    }


def merge(into: dict, op: dict) -> dict:
    """Add one reduced operation into a running total."""
    for name, agg in op["fn"].items():
        cur = into["fn"].setdefault(name, [0, 0.0, 0.0, 0, 0])
        for k in range(5):
            cur[k] += agg[k]
    for name, n in op["count"].items():
        into["count"][name] = into["count"].get(name, 0) + n
    into["root_s"] += op["root_s"]
    into["xcheck_s"] += op["xcheck_s"]
    return into


def empty() -> dict:
    return {"fn": {}, "count": {}, "root_s": 0.0, "xcheck_s": 0.0}
