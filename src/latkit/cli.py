"""Command-line surface.

Reads poset, map, and rule files (JSON), runs the analyses, and prints
reports as JSON (machine format), text (human tables), or DOT (Hasse
diagrams of the poset, the closure-system lattice, or the nucleus
lattice).

Exit codes: 0 success; 1 bad input; 2 enumeration cap exceeded (re-run
with --force or a larger --cap); 3 internal invariant violation, which
means a bug in this package and is reported loudly.

Output is byte-deterministic for fixed inputs and flags: element order
is input order everywhere, no timestamps, fixed JSON indentation.
"""

import errno
import functools
import json
import os
import pathlib
import stat
import sys
from collections import namedtuple
from json.encoder import encode_basestring

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
from .errors import CapExceeded, InputError, ParseError, TheoremBreach, agree
from .heyting import (
    enumerate_nuclei,
    implication_table,
    least_nucleus_above,
    nuclear_core,
    validate_structure,
)
from .hmj import hmj_correspondence
from .maps import EndoMap, value_rows
from .order import (
    FinitePoset,
    Subset,
    bottom_index,
    build_poset,
    check_cap,
    covers,
    is_meet_semilattice,
    top_index,
)
from .rules import RuleSet, default_rules, nuclear_rules, rule_closure


# ---------------------------------------------------------------------------
# input files


def _read_json(path: str):
    """The JSON document in a file of UTF-8 text.

    The bytes are decoded once and newlines translated as text mode
    does, and json.loads reads the str: an error's line and column are
    those of the text, and a byte order mark or a UTF-16 file is a
    parse error, not a document."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason} at offset {e.start}") from e
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError(f"{path}: JSON nested too deeply") from e


def _encodable(path: str, what: str, text: str) -> None:
    """A lone surrogate (JSON's "\\ud800") is no Unicode character, and
    no UTF-8 report can hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(
            f"{path}: {what} {text!r} holds a lone surrogate"
        ) from None


def load_poset(path: str) -> FinitePoset:
    """Poset file: {"elements": [labels], "le": [[lesser, greater], ...]}.

    The listed pairs are order assertions; reflexive-transitive closure
    is taken automatically, and cycles are rejected.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: poset file must be a JSON object")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(
        isinstance(x, str) for x in elements
    ):
        raise ParseError(f"{path}: field 'elements' must be a list of strings")
    for x in elements:
        _encodable(path, "label", x)
    le = doc.get("le", [])
    if not isinstance(le, list):
        raise ParseError(
            f"{path}: field 'le' must be a list of [lesser, greater] pairs"
        )
    pairs = []
    for k, item in enumerate(le):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise ParseError(
                f"{path}: 'le' entry {k} is not a pair of labels"
            )
        pairs.append((item[0], item[1]))
    return build_poset(elements, pairs)


def load_map(P: FinitePoset, path: str):
    """Map file: {"name": string, "table": {label: label, ...}}.

    The table must be total over the poset's elements.  Returns
    (name, EndoMap); the name defaults to the file stem.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or "table" not in doc:
        raise ParseError(
            f"{path}: map file must be an object with a 'table' field"
        )
    table = doc["table"]
    if not isinstance(table, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in table.items()
    ):
        raise ParseError(f"{path}: 'table' must map labels to labels")
    if "name" not in doc:
        # a stem the file system gave undecodable bytes carries them as
        # surrogate escapes, which the report writes back as those bytes
        return pathlib.Path(path).stem, EndoMap.from_labels(P, table)
    name = doc["name"]
    if not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    _encodable(path, "map name", name)
    return name, EndoMap.from_labels(P, table)


def load_rules(P: FinitePoset, path: str) -> RuleSet:
    """Rule file: JSON list of {"body": [labels], "head": label}."""
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: rule file must be a JSON list")
    items = []
    for k, item in enumerate(doc):
        if not isinstance(item, dict) or not isinstance(item.get("head"), str):
            raise ParseError(
                f"{path}: rule {k} must be an object with 'body' and 'head'"
            )
        body = item.get("body", [])
        if not isinstance(body, list) or not all(
            isinstance(x, str) for x in body
        ):
            raise ParseError(f"{path}: rule {k} 'body' must be a list of labels")
        items.append((body, item["head"]))
    return RuleSet.of(P, items)


# ---------------------------------------------------------------------------
# reports


def _report_json(obj, nl="\n") -> str:
    """json.dumps(obj, indent=2, ensure_ascii=False), byte for byte,
    for the types a payload holds: dicts with str keys, lists, tuples,
    str, int, bool and None.  Any other type raises TypeError.  `nl` is
    a newline and the indent of obj's own line.

    json.dumps with an indent encodes through a generator per level in
    pure Python; here each container is one call, and each string one
    call of json's C string encoder."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(encode_basestring(k) + ": " + (
                encode_basestring(v) if type(v) is str else _report_json(v, inner)
            ))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            encode_basestring(v) if type(v) is str else _report_json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_report(report: str, output) -> None:
    """Write the report to the --output file, or else to stdout: the
    same UTF-8 bytes either way.  Surrogate escapes, which only a file
    name the file system could not decode puts in a report, go back to
    their bytes."""
    data = report.encode("utf-8", "surrogateescape")
    if output:
        try:
            with open(output, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise InputError(f"{output}: {e.strerror or e}") from e
        return
    try:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        raise
    except OSError as e:
        # a full disk or another write error: stdout goes to the null
        # device, so that the bytes left in its buffer do not fail again
        # in the interpreter's last flush
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise InputError(f"{sys.stdout.name}: {e.strerror or e}") from e


def _check_destination(output) -> None:
    """Raise, before any work, the error that opening a new --output
    file would raise in a directory that is missing or not writable;
    an existing file was checked by _writable_file.  Nothing is
    created, so a command that fails leaves no file behind."""
    if os.path.exists(output):
        return
    parent = os.path.dirname(output) or "."
    try:
        st = os.stat(parent)
    except OSError as e:
        raise InputError(f"{output}: {e.strerror or e}") from e
    if not stat.S_ISDIR(st.st_mode):
        raise InputError(f"{output}: {os.strerror(errno.ENOTDIR)}")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise InputError(f"{output}: {os.strerror(errno.EACCES)}")


def _err(*lines) -> None:
    sys.stderr.write("".join(line + "\n" for line in lines))
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# caps and text views


def _cap_value(cap, force, size):
    """Resolve the effective cap: --force lifts it to the input's size,
    --cap wins otherwise, then LATKIT_CAP, then library defaults."""
    if force:
        return max(size, 1)
    if cap is not None:
        return cap
    env = os.environ.get("LATKIT_CAP")
    if env is not None and env != "":
        try:
            v = int(env)
        except ValueError:
            raise ParseError(f"LATKIT_CAP must be an integer, got {env!r}")
        if v < 1:
            raise ParseError(f"LATKIT_CAP must be at least 1, got {env!r}")
        return v
    return None


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
# function, whose docstring is its help.  latkit reads a request over
# these records (`_read`, `_values`); click's command tree is built
# from them only for a help page or a usage error (`_click_tree`).

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


# ---------------------------------------------------------------------------
# entry point
#
# latkit reads a request itself, over the declaration table, the way
# click's parser reads it, and writes the report itself.  It runs no
# click code unless the request asks for a help page or holds a usage
# error: then click's command tree is built from the table and click
# writes the page or the message.  A cold process (a shell's request,
# or a forked server's) pays neither click's import nor its parameter
# objects: in a child forked after `import latkit.cli` on a shared
# 2-vCPU VM, `validate` on a 4-element poset took 3.4-4.2 ms and about
# 620 minor page faults with the declarations in click and the report
# written by click.echo, and 2.5-2.7 ms and about 480 faults here.


class _Usage(Exception):
    """A usage error, found without click.  `make(click, ctx)` builds
    click's own exception for it, given the Context of the command it
    names."""

    def __init__(self, make):
        self.make = make


def _read(cmd, args):
    """Read args over cmd's options as click's parser does: `--opt v`,
    `--opt=v`, `-xv`, `-x v`, flags, `--`, and options between
    arguments where cmd allows them (a group stops at its first
    argument).  A repeated option keeps its last value and its first
    place.  Returns the given values by option, in the order first
    given, and the positional tokens.

    The commands declare flags and one-value options only.  The one
    short name, tarski's -x/--start, takes a value, so no token bundles
    short flags (-ab), which this reader does not split; an argument
    that takes many values comes last."""
    given, plain = {}, []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            return given, plain + args[i:]
        if arg[:1] != "-" or len(arg) == 1:
            if not cmd.interspersed:
                return given, args[i - 1:]
            plain.append(arg)
            continue
        name, eq, value = arg.partition("=")
        p = cmd.long.get(name)
        if p is None:
            if arg[1] == "-":
                raise _Usage(
                    lambda click, ctx: click.NoSuchOption(name, possibilities=cmd.long)
                )
            # a short option takes the rest of its token: -x1 is -x 1
            name, eq, value = arg[:2], len(arg) > 2, arg[2:]
            p = cmd.short.get(name)
            if p is None:
                raise _Usage(lambda click, ctx: click.NoSuchOption(name))
        if p is _HELP or p.is_flag:
            if eq:
                raise _Usage(lambda click, ctx: click.BadOptionUsage(
                    name, f"Option {name!r} does not take a value."
                ))
            value = True
        elif not eq:
            if i == len(args):
                raise _Usage(lambda click, ctx: click.BadOptionUsage(
                    name, f"Option {name!r} requires an argument."
                ))
            value = args[i]
            i += 1
        given[p] = value
    return given, plain


def _values(cmd, given, plain):
    """The command's keyword arguments: the given values converted in
    the order given, then the positionals bound in order, then the
    defaults; the first fault raises, as click orders them."""
    params = {}
    for p, value in given.items():
        if p.type is not None:
            read = p.type.read(value)
            if read is _BAD:
                raise _Usage(lambda click, ctx: _refused(click, ctx, p.name, value))
            value = read
        params[p.name] = value
    k = 0
    for a in cmd.args:
        if a.nargs == -1:
            value = tuple(plain[k:])
            k = len(plain)
        elif k < len(plain):
            value = plain[k]
            k += 1
        else:
            value = None
        if a.required and value in (None, ()):
            raise _Usage(
                lambda click, ctx: click.MissingParameter(param=_param(ctx, a.name))
            )
        params[a.name] = value
    extra = plain[k:]
    if extra:
        many = "s" if len(extra) > 1 else ""
        raise _Usage(lambda click, ctx: click.UsageError(
            f"Got unexpected extra argument{many} ({' '.join(extra)})"
        ))
    for p in cmd.opts:
        params.setdefault(p.name, p.default)
    return params


def _run(cmd, poset_file, fmt, output, **kw):
    """Load the poset, run the command's body and write its report."""
    P = load_poset(poset_file)
    if cmd.capped:
        kw["cap"] = _cap_value(kw["cap"], kw.pop("force"), P.n)
    if output:
        _check_destination(output)
    payload, text, dot = cmd.body(P, **kw)
    if fmt == "json":
        report = _report_json(payload) + "\n"
    elif fmt == "text":
        report = text(payload)
    elif dot is None:
        raise InputError(
            f"'{cmd.path}' has no dot view; use --format json or text"
        )
    else:
        report = dot()
    _write_report(report, output)


# ---------------------------------------------------------------------------
# click, for help pages and usage errors


def _click_tree():
    """The click command tree the table declares: the help pages, the
    Contexts a usage error names, and (in the tests) click's own
    parser."""
    import click

    def param(p):
        if isinstance(p, _Arg):
            return click.Argument(
                (p.name,), metavar=p.metavar, nargs=p.nargs, required=p.required
            )
        return click.Option(
            (*p.flags, p.name),
            is_flag=p.is_flag,
            default=p.default,
            type=p.type and p.type.click_type(click),
            help=p.help,
            show_default=p.show_default,
        )

    def group(g):
        commands = {
            sub: group(c) if isinstance(c, _Group) else click.Command(
                sub,
                callback=functools.partial(_run, c),
                params=[param(p) for p in c.params],
                help=c.help,
            )
            for sub, c in g.commands.items()
        }
        return click.Group(g.name, commands=commands, help=g.help)

    return group(_CLI)


def _context(path):
    """The click.Context chain of a command path."""
    import click

    ctx = None
    cmd = _click_tree()
    for name in path:
        if ctx is not None:
            cmd = cmd.commands[name]
        ctx = click.Context(cmd, info_name=name, parent=ctx)
    return ctx


def _param(ctx, name):
    return next(p for p in ctx.command.params if p.name == name)


def _refused(click, ctx, name, value):
    """click's BadParameter for a value latkit's converter refused,
    raised by the click type the table declares."""
    param = _param(ctx, name)
    try:
        param.type.convert(value, param, None)
    except click.BadParameter as e:
        return e
    raise TheoremBreach(
        f"latkit refused {value!r} for {param.opts[0]}, which click accepts"
    )


def _help(path) -> int:
    import click

    ctx = _context(path)
    click.echo(ctx.get_help(), color=ctx.color)
    return 0


def _usage(path, make) -> int:
    """Write a usage error as click writes it, on the Context of the
    command it names.  Exit 1: click's 2 would collide with the
    cap-exceeded code, so bad usage maps to 1 like bad input."""
    import click

    ctx = _context(path)
    e = make(click, ctx)
    if e.ctx is None:
        e.ctx = ctx
    click.echo(f"error: {e.format_message()}", err=True)
    return 1


def _dispatch(args) -> int:
    """Resolve the command path, read its parameters and run it."""
    path = ["latkit"]
    cmd = _CLI
    try:
        while True:
            if not args and isinstance(cmd, _Group):
                raise _Usage(lambda click, ctx: click.exceptions.NoArgsIsHelpError(ctx))
            given, plain = _read(cmd, args)
            if _HELP in given:
                return _help(path)
            if not isinstance(cmd, _Group):
                break
            if not plain:
                raise _Usage(lambda click, ctx: click.UsageError("Missing command."))
            name, args = plain[0], plain[1:]
            sub = cmd.commands.get(name)
            if sub is None:
                # a name that looks like an option is read as the
                # group's own again, as click does: `latkit -- --help`
                if name[:1] == "-" and _HELP in _read(cmd, plain)[0]:
                    return _help(path)
                names = list(cmd.commands)
                raise _Usage(lambda click, ctx: click.exceptions.NoSuchCommand(
                    name, possibilities=names
                ))
            path.append(name)
            cmd = sub
        params = _values(cmd, given, plain)
    except _Usage as e:
        return _usage(path, e.make)
    _run(cmd, **params)
    return 0


def main(argv=None) -> int:
    """Run the CLI, mapping error families to stable exit codes."""
    try:
        return _dispatch(sys.argv[1:] if argv is None else list(argv))
    except (EOFError, KeyboardInterrupt):
        _err("", "aborted")
        return 1
    except BrokenPipeError:
        # the reader of the report went away (`latkit ... | head`); the
        # interpreter's last flush must not fail again
        from click.utils import PacifyFlushWrapper

        sys.stdout = PacifyFlushWrapper(sys.stdout)
        sys.stderr = PacifyFlushWrapper(sys.stderr)
        return 1
    except ParseError as e:
        _err(f"parse error: {e}")
        return 1
    except InputError as e:
        _err(f"input error: {e}")
        return 1
    except CapExceeded as e:
        _err(
            f"cap exceeded: {e}",
            "re-run with --force or a larger --cap to proceed "
            "(may be very slow, never unsound)",
        )
        return 2
    except TheoremBreach as e:
        bar = "=" * 64
        _err(
            bar,
            "THEOREM BREACH: an internal invariant failed.",
            f"  {e}",
            "This is a bug in latkit, not a problem with your input. "
            "Please report it with the command you ran.",
            bar,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
