"""The CLI's commands: the declaration table and each command's body.

A body turns the loaded poset and its parameters into a JSON payload,
its text view and its dot view; latkit.cli reads requests over the
table, runs the body and writes the report.
"""

import os
import stat
from collections import namedtuple

from .closure import (
    ClosureOperator,
    enumerate_cl_lattice,
    generate_closure,
    kleene_generate,
    sccore,
    sccore_bruteforce,
    tarski,
)
from .convexity import (
    CONVEXITY_CAP,
    acyclicity,
    clsys_operator,
    convexity_checks,
    dcclsys_operator,
)
from .errors import InputError, agree
from .heyting import (
    enumerate_nuclei,
    implication_table,
    least_nucleus_above,
    nuclear_core,
    validate_structure,
)
from .hmj import hmj_correspondence
from .loaders import load_map, load_rules
from .maps import value_rows
from .order import (
    Subset,
    bottom_index,
    check_cap,
    covers,
    is_meet_semilattice,
    top_index,
)
from .rules import default_rules, nuclear_rules, rule_closure


# ---------------------------------------------------------------------------
# text views


def _set_str(labels) -> str:
    return "{" + ", ".join(labels) + "}"


def _table_str(table: dict) -> str:
    w = max((len(k) for k in table), default=0)
    return "\n".join(f"  {k.ljust(w)} -> {v}" for k, v in table.items())


def _table_view(title: str, key: str):
    """Text view of a payload holding a map table and its fixpoints."""
    return lambda p: (
        f"{title}:\n{_table_str(p[key])}\n"
        f"fixpoints: {_set_str(p['fixpoints'])}\n"
    )


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_digraph(names, edges) -> str:
    lines = ["digraph {", "  rankdir=BT;"]
    for i, nm in enumerate(names):
        lines.append(f"  n{i} [label={_dot_quote(nm)}];")
    for a, b in edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the declaration table
#
# Each command is declared once, as a record: its name and group, its
# positionals, its options, whether it takes the cap flags, and its
# function, whose docstring is its help.  latkit.cli reads a request
# over these records (`_read`, `_values`); click's command tree is
# built from them only for a help page or a usage error (`_click_tree`).

_BAD = object()  # a converter's answer for a value click's type refuses

# A converter: read(value) gives the value the command gets, or _BAD
# where the click type that click_type(click) builds would refuse it.
_Type = namedtuple("_Type", "read click_type")

# A positional: the command's keyword, its metavar, and nargs (1, or -1
# for every remaining value, which only a last positional takes).
_Arg = namedtuple("_Arg", "name metavar nargs required", defaults=(1, True))

# An option: its flags, the command's keyword, its help, and what
# click's option takes.  A flag's value is True; a type None is a plain
# string.
_Opt = namedtuple(
    "_Opt",
    "flags name help is_flag default type show_default",
    defaults=(False, None, None, False),
)


def _positive(value):
    try:
        n = int(value)
    except ValueError:
        return _BAD
    return n if n >= 1 else _BAD


def _writable_file(value):
    # a path that names nothing yet, or a file that can be read and
    # written, as click.Path(dir_okay=False, writable=True) checks it
    try:
        st = os.stat(value)
    except OSError:
        return value
    if stat.S_ISDIR(st.st_mode) or not os.access(value, os.R_OK | os.W_OK):
        return _BAD
    return value


def _choice(*choices):
    return _Type(
        lambda value: value if value in choices else _BAD,
        lambda click: click.Choice(list(choices)),
    )


_POSITIVE = _Type(_positive, lambda click: click.IntRange(min=1))
_WRITABLE_FILE = _Type(
    _writable_file, lambda click: click.Path(dir_okay=False, writable=True)
)


_HELP = "--help"


class _Group:
    """A command group: it takes --help only, and its first positional
    names a command."""

    interspersed = False
    long = {_HELP: _HELP}
    short = {}

    def __init__(self, name, help):
        self.name = name
        self.help = help
        self.commands = {}


class _Command:
    """A command: POSET, its own parameters, --cap and --force when
    capped, then --format and --output."""

    interspersed = True

    def __init__(self, path, params, capped, body):
        self.path = path
        self.params = (
            _Arg("poset_file", "POSET"),
            *params,
            *(_CAP_OPTIONS if capped else ()),
            *_OUTPUT_OPTIONS,
        )
        self.args = [p for p in self.params if isinstance(p, _Arg)]
        self.opts = [p for p in self.params if isinstance(p, _Opt)]
        self.long, self.short = {_HELP: _HELP}, {}
        for p in self.opts:
            for flag in p.flags:
                (self.short if len(flag) == 2 else self.long)[flag] = p
        self.capped = capped
        self.body = body
        self.help = body.__doc__


# Only commands that enumerate take the cap flags: elsewhere they would
# be accepted and ignored, so they are not offered.
_CAP_OPTIONS = (
    _Opt(
        ("--cap",), "cap",
        "Enumeration size cap (default: built-in limits, "
        "or the LATKIT_CAP environment variable).",
        type=_POSITIVE,
    ),
    _Opt(
        ("--force",), "force",
        "Lift enumeration caps to the input's size. "
        "Potentially very slow, never unsound.",
        is_flag=True, default=False,
    ),
)

_OUTPUT_OPTIONS = (
    _Opt(
        ("--format",), "fmt", "Report format.",
        default="json", type=_choice("json", "dot", "text"), show_default=True,
    ),
    _Opt(
        ("--output",), "output",
        "Write the report to this file instead of stdout.",
        type=_WRITABLE_FILE,
    ),
)

_CLI = _Group(
    "cli",
    """Finite poset and lattice computations: closure operators and
    their generation, Tarski fixpoints, nuclei and Heyting implication,
    filter/quotient correspondences, closure rules, convexity."""
)
_RULES = _CLI.commands["rules"] = _Group(
    "rules",
    """Closure-rule systems: canonical rule sets and rule closure."""
)


def _command(name, *params, group=_CLI, capped=True):
    """Declare a command of `group`.

    The body gets the loaded poset, its own parameters and, when capped,
    the resolved cap.  It returns the JSON payload, the text view (a
    function of the payload) and the dot view (a function of nothing),
    or None where the command has no dot view.
    """
    path = name if group is _CLI else f"{group.name} {name}"

    def declare(body):
        group.commands[name] = _Command(path, params, capped, body)
        return body

    return declare


# ---------------------------------------------------------------------------
# commands


_MAP = _Arg("map_file", "MAP")


@_command("validate")
def cmd_validate(P, cap):
    """Parse a poset file and report its order-theoretic shape."""
    view = validate_structure(P, cap)
    bot = bottom_index(P)
    top = top_index(P)
    cov = covers(P.le)
    payload = {
        "elements": list(P.elements),
        "size": P.n,
        "bottom": None if bot is None else P.label(bot),
        "top": None if top is None else P.label(top),
        "is_meet_semilattice": is_meet_semilattice(P),
        "structure_level": view.level,
        "structure_witness": view.witness,
        "covers": [[P.label(a), P.label(b)] for a, b in cov],
    }

    def txt(p):
        lines = [
            f"elements ({p['size']}): " + " ".join(p["elements"]),
            f"bottom: {p['bottom']}",
            f"top: {p['top']}",
            f"meet-semilattice: {p['is_meet_semilattice']}",
            f"structure: {p['structure_level']}",
        ]
        if p["structure_witness"]:
            lines.append(f"witness: {p['structure_witness']}")
        lines.append(
            "covers: "
            + (", ".join(f"{a} < {b}" for a, b in p["covers"]) or "(none)")
        )
        return "\n".join(lines) + "\n"

    return payload, txt, lambda: _dot_digraph(P.elements, cov)


@_command("closure-systems")
def cmd_closure_systems(P, cap):
    """Enumerate every closure system and its closure operator."""
    rep = enumerate_cl_lattice(P, cap)
    systems = rep["closure_systems"]
    payload = {
        "count": len(systems),
        "systems": [list(S.labels) for S in systems],
        "operators": [op.as_labels() for op in rep["closure_operators"]],
    }

    def txt(p):
        lines = [f"{p['count']} closure systems"]
        for s in p["systems"]:
            lines.append("  " + _set_str(s))
        return "\n".join(lines) + "\n"

    def dot():
        # one system lies inside another iff its operator lies above
        names = [_set_str(S.labels) for S in systems]
        rows = value_rows(P, [op.table for op in rep["closure_operators"]])
        return _dot_digraph(names, covers(list(map(rows.below, rows.tables))))

    return payload, txt, dot


@_command(
    "generate",
    _Arg("map_files", "MAP...", nargs=-1),
    capped=False,
)
def cmd_generate(P, map_files):
    """Least closure operator above the given preclosure maps.

    Runs the fixpoint-intersection route and the iteration route and
    checks they agree."""
    named = [load_map(P, path) for path in map_files]
    maps = [m for _, m in named]
    gamma = agree(
        "generated closure operator",
        maps,
        fixpoint_intersection=generate_closure(maps, P),
        iteration=kleene_generate(maps, P),
    )
    payload = {
        "generators": [nm for nm, _ in named],
        "closure": gamma.as_labels(),
        "fixpoints": list(gamma.fix.labels),
    }
    return payload, _table_view("generated closure operator", "closure"), None


@_command(
    "tarski",
    _MAP,
    _Opt(
        ("-x", "--start"), "start",
        "Least fixpoint at or above this element "
        "(requires start <= f(start)); default: overall least fixpoint.",
    ),
    capped=False,
)
def cmd_tarski(P, map_file, start):
    """Least fixpoint of an increasing map."""
    name, f = load_map(P, map_file)
    payload = {
        "map": name,
        "start": start,
        "least_fixpoint": tarski(f, start),
        "fixpoints": list(Subset(P, f.fix_mask).labels),
    }

    def txt(p):
        at = f" above {p['start']}" if p["start"] is not None else ""
        return (
            f"least fixpoint{at}: {p['least_fixpoint']}\n"
            f"all fixpoints: {_set_str(p['fixpoints'])}\n"
        )

    return payload, txt, None


@_command("nuclei")
def cmd_nuclei(P, cap):
    """Enumerate every nucleus on a preframe."""
    nucs = enumerate_nuclei(P, cap)
    payload = {
        "count": len(nucs),
        "nuclei": [
            {
                "table": nu.as_labels(),
                "fixpoints": list(nu.fix.labels),
            }
            for nu in nucs
        ],
    }

    def txt(p):
        lines = [f"{p['count']} nuclei"]
        for k, nu in enumerate(p["nuclei"]):
            lines.append(f"nucleus {k}: fixpoints {_set_str(nu['fixpoints'])}")
            lines.append(_table_str(nu["table"]))
        return "\n".join(lines) + "\n"

    def dot():
        names = [_set_str(nu.fix.labels) for nu in nucs]
        ups = value_rows(P, [nu.table for nu in nucs]).up_rows()
        return _dot_digraph(names, covers(ups))

    return payload, txt, dot


@_command("heyting")
def cmd_heyting(P, cap):
    """Heyting implication table of a frame."""
    table = implication_table(P, cap)
    payload = {
        "implication": {
            P.label(a): {
                P.label(b): P.label(table[a][b]) for b in range(P.n)
            }
            for a in range(P.n)
        }
    }

    def txt(p):
        els = list(P.elements)
        w = max(len(e) for e in els)
        head = " " * (w + 3) + "  ".join(e.ljust(w) for e in els)
        lines = [head]
        for a in els:
            row = p["implication"][a]
            lines.append(
                f"{a.ljust(w)} =>   "
                + "  ".join(row[b].ljust(w) for b in els)
            )
        return "\n".join(lines) + "\n"

    return payload, txt, None


def _closure_from_file(P, path):
    name, f = load_map(P, path)
    try:
        return name, ClosureOperator(f)
    except InputError as e:
        raise InputError(
            f"map {name!r} is not a closure operator "
            "(needs ascending, increasing, idempotent)"
        ) from e


@_command("nuclear-core", _MAP)
def cmd_nuclear_core(P, map_file, cap):
    """Greatest nucleus below a closure operator on a frame."""
    name, gamma = _closure_from_file(P, map_file)
    nu = nuclear_core(P, gamma, cap)
    payload = {
        "map": name,
        "closure": gamma.as_labels(),
        "nuclear_core": nu.as_labels(),
        "fixpoints": list(nu.fix.labels),
    }
    return payload, _table_view("nuclear core", "nuclear_core"), None


@_command("least-nucleus", _MAP)
def cmd_least_nucleus(P, map_file, cap):
    """Least nucleus above a closure operator on a frame."""
    name, gamma = _closure_from_file(P, map_file)
    nu = least_nucleus_above(P, gamma, cap)
    payload = {
        "map": name,
        "closure": gamma.as_labels(),
        "least_nucleus": nu.as_labels(),
        "fixpoints": list(nu.fix.labels),
    }
    return payload, _table_view("least nucleus above", "least_nucleus"), None


@_command("hmj")
def cmd_hmj(P, cap):
    """Match Scott-open filters with compact fitted quotients of a frame."""
    rep = hmj_correspondence(P, cap)
    payload = {
        "count": rep["count"],
        "scott_open_filters": [list(t) for t in rep["scott_open_filters"]],
        "compact_fitted_quotients": [
            list(t) for t in rep["compact_fitted_quotients"]
        ],
        "pairs": [
            {"filter": list(F.labels), "quotient": list(nu.fix.labels)}
            for F, nu in rep["pairs"]
        ],
        "antiisomorphism_verified": rep["antiisomorphism_verified"],
    }

    def txt(p):
        lines = [f"{p['count']} Scott-open filters <-> compact fitted quotients"]
        for pair in p["pairs"]:
            lines.append(
                f"  {_set_str(pair['filter'])} <-> {_set_str(pair['quotient'])}"
            )
        lines.append(
            f"order reversal verified: {p['antiisomorphism_verified']}"
        )
        return "\n".join(lines) + "\n"

    return payload, txt, None


def _rules_report(R):
    P = R.poset
    payload = {
        "count": len(R),
        "rules": [
            {"body": list(P.labels_of(b)), "head": P.label(h)} for b, h in R.pairs
        ],
    }

    def txt(p):
        lines = [f"{p['count']} rules"]
        for r in p["rules"]:
            lines.append(f"  {_set_str(r['body'])} |- {r['head']}")
        return "\n".join(lines) + "\n"

    return payload, txt, None


@_command("default", group=_RULES)
def cmd_rules_default(P, cap):
    """The default closure rules of a poset: each subset concludes its
    maximal lower bounds."""
    return _rules_report(default_rules(P, cap))


@_command("nuclear", group=_RULES, capped=False)
def cmd_rules_nuclear(P):
    """The nuclear closure rules of a meet-semilattice."""
    return _rules_report(nuclear_rules(P))


@_command(
    "close",
    _Arg("rule_file", "RULES"),
    _Opt(
        ("--start",), "start",
        "Comma-separated labels to close under the rules (default: empty).",
        default="",
    ),
    group=_RULES,
    capped=False,
)
def cmd_rules_close(P, rule_file, start):
    """Close a subset under a rule file's deductions."""
    R = load_rules(P, rule_file)
    labels = [s for s in (t.strip() for t in start.split(",")) if s]
    X = Subset.of(P, labels)
    payload = {
        "start": list(X.labels),
        "closure": list(rule_closure(R, X).labels),
        "reflexive": R.is_reflexive(),
        "transitive": R.is_transitive(),
    }

    def txt(p):
        return (
            f"closure of {_set_str(p['start'])}: {_set_str(p['closure'])}\n"
            f"rule set reflexive: {p['reflexive']}, "
            f"transitive: {p['transitive']}\n"
        )

    return payload, txt, None


@_command(
    "convexity",
    _Opt(
        ("--operator",), "which",
        "Which powerset closure operator of the poset to analyse.",
        default="clsys", type=_choice("clsys", "dcclsys"), show_default=True,
    ),
)
def cmd_convexity(P, which, cap):
    """Anti-exchange, funnel, and acyclicity analysis of a poset's
    closure-system operator."""
    check_cap("convexity analysis", P.n, cap, CONVEXITY_CAP)  # before the 2^n table
    op = clsys_operator(P, cap) if which == "clsys" else dcclsys_operator(P, cap)
    conv = convexity_checks(op, cap)
    acy = acyclicity(op, "poset_order", cap)
    fun = acy["funnel_report"]
    payload = {
        "operator": which,
        "anti_exchange": conv["anti_exchange"],
        "anti_exchange_witness": conv["anti_exchange_witness"],
        "closed_set_form": conv["closed_set_form"],
        "closed_set_witness": conv["closed_set_witness"],
        "is_convex_geometry": conv["is_convex_geometry"],
        "poset_order_is_funnel": fun["is_funnel"],
        "funnel_witness": fun["witness"],
        "acyclic": acy["acyclic"],
    }

    def txt(p):
        lines = [
            f"operator: {p['operator']}",
            f"anti-exchange: {p['anti_exchange']}",
            f"closed-set form: {p['closed_set_form']}",
            f"convex geometry: {p['is_convex_geometry']}",
            f"poset order is a funnel: {p['poset_order_is_funnel']}",
            f"acyclic: {p['acyclic']}",
        ]
        if p["anti_exchange_witness"]:
            base, x, y = p["anti_exchange_witness"]
            lines.insert(
                2,
                f"  witness: base {_set_str(base)}, x={x}, y={y}",
            )
        return "\n".join(lines) + "\n"

    return payload, txt, None


@_command("sccore", _MAP)
def cmd_sccore(P, map_file, cap):
    """Greatest Scott-continuous closure operator below a closure
    operator, by formula and by scan, compared."""
    name, gamma = _closure_from_file(P, map_file)
    core = agree(
        "Scott-continuous core",
        gamma,
        way_below_formula=sccore(gamma, cap),
        candidate_scan=sccore_bruteforce(gamma, cap),
    )
    payload = {
        "map": name,
        "sccore": core.as_labels(),
        "fixpoints": list(core.fix.labels),
    }
    return payload, _table_view("Scott-continuous core", "sccore"), None
