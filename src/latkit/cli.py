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

import json
import os
import pathlib
import sys

import click

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
    acyclicity,
    clsys_operator,
    convexity_checks,
    dcclsys_operator,
)
from .errors import CapExceeded, InputError, ParseError, TheoremBreach
from .heyting import (
    enumerate_nuclei,
    implication_table,
    least_nucleus_above,
    nuclear_core,
    require_frame,
    validate_structure,
)
from .hmj import hmj_correspondence
from .maps import EndoMap, is_closure_map
from .order import (
    FinitePoset,
    Subset,
    bottom_index,
    build_poset,
    covers,
    is_meet_semilattice,
    top_index,
)
from .rules import RuleSet, default_rules, nuclear_rules, rule_closure


# ---------------------------------------------------------------------------
# input files


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


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
    name = doc.get("name", pathlib.Path(path).stem)
    if not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
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
# caps and output plumbing


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


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _render(payload, fmt, text_fn, dot_fn=None, command=""):
    if fmt == "json":
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if fmt == "text":
        return text_fn(payload)
    if dot_fn is None:
        raise InputError(
            f"'{command}' has no dot view; use --format json or text"
        )
    return dot_fn()


def _set_str(labels) -> str:
    return "{" + ", ".join(labels) + "}"


def _table_str(table: dict) -> str:
    w = max(len(k) for k in table)
    return "\n".join(f"  {k.ljust(w)} -> {v}" for k, v in table.items())


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


def _covering_edges(k: int, leq) -> list:
    """Covering pairs of an order given as a predicate on range(k)."""
    out = []
    for i in range(k):
        for j in range(k):
            if i == j or not leq(i, j):
                continue
            if not any(
                t != i and t != j and leq(i, t) and leq(t, j)
                for t in range(k)
            ):
                out.append((i, j))
    return out


def _output_options(f):
    for deco in (
        click.option(
            "--output",
            type=click.Path(dir_okay=False, writable=True),
            default=None,
            help="Write the report to this file instead of stdout.",
        ),
        click.option(
            "--format",
            "fmt",
            type=click.Choice(["json", "dot", "text"]),
            default="json",
            show_default=True,
            help="Report format.",
        ),
    ):
        f = deco(f)
    return f


def _cap_options(f):
    """Only for commands that enumerate: elsewhere the flags would be
    accepted and ignored, so they are not offered."""
    for deco in (
        click.option(
            "--force",
            is_flag=True,
            help="Lift enumeration caps to the input's size. "
            "Potentially very slow, never unsound.",
        ),
        click.option(
            "--cap",
            type=click.IntRange(min=1),
            default=None,
            help="Enumeration size cap (default: built-in limits, "
            "or the LATKIT_CAP environment variable).",
        ),
    ):
        f = deco(f)
    return f


# ---------------------------------------------------------------------------
# commands


@click.group()
def cli():
    """Finite poset and lattice computations: closure operators and
    their generation, Tarski fixpoints, nuclei and Heyting implication,
    filter/quotient correspondences, closure rules, convexity."""


@cli.command("validate")
@click.argument("poset_file", metavar="POSET")
@_cap_options
@_output_options
def cmd_validate(poset_file, cap, force, fmt, output):
    """Parse a poset file and report its order-theoretic shape."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    view = validate_structure(P, c)
    bot = bottom_index(P)
    top = top_index(P)
    cov = covers(P)
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

    def dot():
        return _dot_digraph(P.elements, cov)

    _emit(_render(payload, fmt, txt, dot, "validate"), output)


@cli.command("closure-systems")
@click.argument("poset_file", metavar="POSET")
@_cap_options
@_output_options
def cmd_closure_systems(poset_file, cap, force, fmt, output):
    """Enumerate every closure system and its closure operator."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    rep = enumerate_cl_lattice(P, c)
    systems = rep["closure_systems"]
    ops = rep["closure_operators"]
    payload = {
        "count": len(systems),
        "systems": [list(S.labels) for S in systems],
        "operators": [op.map.as_labels() for op in ops],
    }

    def txt(p):
        lines = [f"{p['count']} closure systems"]
        for s in p["systems"]:
            lines.append("  " + _set_str(s))
        return "\n".join(lines) + "\n"

    def dot():
        masks = [S.mask for S in systems]
        names = [_set_str(S.labels) for S in systems]
        edges = _covering_edges(
            len(masks), lambda i, j: masks[i] & ~masks[j] == 0
        )
        return _dot_digraph(names, edges)

    _emit(_render(payload, fmt, txt, dot, "closure-systems"), output)


@cli.command("generate")
@click.argument("poset_file", metavar="POSET")
@click.argument("map_files", metavar="MAP...", nargs=-1, required=True)
@_output_options
def cmd_generate(poset_file, map_files, fmt, output):
    """Least closure operator above the given preclosure maps.

    Runs the fixpoint-intersection route and the iteration route and
    checks they agree."""
    P = load_poset(poset_file)
    named = [load_map(P, path) for path in map_files]
    maps = [m for _, m in named]
    gamma = generate_closure(maps, P)
    other = kleene_generate(maps, P)
    if gamma.table != other.table:
        raise TheoremBreach(
            "fixpoint-intersection and iteration routes disagree on the "
            "generated closure operator"
        )
    payload = {
        "generators": [nm for nm, _ in named],
        "closure": gamma.map.as_labels(),
        "fixpoints": list(gamma.fix.labels),
    }

    def txt(p):
        return (
            "generated closure operator:\n"
            + _table_str(p["closure"])
            + "\nfixpoints: "
            + _set_str(p["fixpoints"])
            + "\n"
        )

    _emit(_render(payload, fmt, txt, None, "generate"), output)


@cli.command("tarski")
@click.argument("poset_file", metavar="POSET")
@click.argument("map_file", metavar="MAP")
@click.option(
    "-x",
    "--start",
    default=None,
    help="Least fixpoint at or above this element "
    "(requires start <= f(start)); default: overall least fixpoint.",
)
@_output_options
def cmd_tarski(poset_file, map_file, start, fmt, output):
    """Least fixpoint of an increasing map."""
    P = load_poset(poset_file)
    name, f = load_map(P, map_file)
    lfp = tarski(f, start)
    payload = {
        "map": name,
        "start": start,
        "least_fixpoint": lfp,
        "fixpoints": list(Subset(P, f.fix_mask).labels),
    }

    def txt(p):
        at = f" above {p['start']}" if p["start"] is not None else ""
        return (
            f"least fixpoint{at}: {p['least_fixpoint']}\n"
            f"all fixpoints: {_set_str(p['fixpoints'])}\n"
        )

    _emit(_render(payload, fmt, txt, None, "tarski"), output)


@cli.command("nuclei")
@click.argument("poset_file", metavar="POSET")
@_cap_options
@_output_options
def cmd_nuclei(poset_file, cap, force, fmt, output):
    """Enumerate every nucleus on a preframe."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    nucs = enumerate_nuclei(P, c)
    payload = {
        "count": len(nucs),
        "nuclei": [
            {
                "table": nu.op.map.as_labels(),
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
        edges = _covering_edges(
            len(nucs), lambda i, j: nucs[i].leq(nucs[j])
        )
        return _dot_digraph(names, edges)

    _emit(_render(payload, fmt, txt, dot, "nuclei"), output)


@cli.command("heyting")
@click.argument("poset_file", metavar="POSET")
@_cap_options
@_output_options
def cmd_heyting(poset_file, cap, force, fmt, output):
    """Heyting implication table of a frame."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    require_frame(P, c)
    table = implication_table(P, c)
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

    _emit(_render(payload, fmt, txt, None, "heyting"), output)


def _closure_from_file(P, path):
    name, f = load_map(P, path)
    if not is_closure_map(f):
        raise InputError(
            f"map {name!r} is not a closure operator "
            "(needs ascending, increasing, idempotent)"
        )
    return name, ClosureOperator(f)


@cli.command("nuclear-core")
@click.argument("poset_file", metavar="POSET")
@click.argument("map_file", metavar="MAP")
@_cap_options
@_output_options
def cmd_nuclear_core(poset_file, map_file, cap, force, fmt, output):
    """Greatest nucleus below a closure operator on a frame."""
    P = load_poset(poset_file)
    name, gamma = _closure_from_file(P, map_file)
    c = _cap_value(cap, force, P.n)
    nu = nuclear_core(P, gamma, c)
    payload = {
        "map": name,
        "closure": gamma.map.as_labels(),
        "nuclear_core": nu.op.map.as_labels(),
        "fixpoints": list(nu.fix.labels),
    }

    def txt(p):
        return (
            "nuclear core:\n"
            + _table_str(p["nuclear_core"])
            + "\nfixpoints: "
            + _set_str(p["fixpoints"])
            + "\n"
        )

    _emit(_render(payload, fmt, txt, None, "nuclear-core"), output)


@cli.command("least-nucleus")
@click.argument("poset_file", metavar="POSET")
@click.argument("map_file", metavar="MAP")
@_cap_options
@_output_options
def cmd_least_nucleus(poset_file, map_file, cap, force, fmt, output):
    """Least nucleus above a closure operator on a frame."""
    P = load_poset(poset_file)
    name, gamma = _closure_from_file(P, map_file)
    c = _cap_value(cap, force, P.n)
    nu = least_nucleus_above(P, gamma, c)
    payload = {
        "map": name,
        "closure": gamma.map.as_labels(),
        "least_nucleus": nu.op.map.as_labels(),
        "fixpoints": list(nu.fix.labels),
    }

    def txt(p):
        return (
            "least nucleus above:\n"
            + _table_str(p["least_nucleus"])
            + "\nfixpoints: "
            + _set_str(p["fixpoints"])
            + "\n"
        )

    _emit(_render(payload, fmt, txt, None, "least-nucleus"), output)


@cli.command("hmj")
@click.argument("poset_file", metavar="POSET")
@_cap_options
@_output_options
def cmd_hmj(poset_file, cap, force, fmt, output):
    """Match Scott-open filters with compact fitted quotients of a frame."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    rep = hmj_correspondence(P, c)
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

    _emit(_render(payload, fmt, txt, None, "hmj"), output)


@cli.group("rules")
def cmd_rules():
    """Closure-rule systems: canonical rule sets and rule closure."""


def _rules_payload(R):
    return {
        "count": len(R),
        "rules": [
            {"body": list(r.body.labels), "head": r.head_label}
            for r in R.rules
        ],
    }


def _rules_txt(p):
    lines = [f"{p['count']} rules"]
    for r in p["rules"]:
        lines.append(f"  {_set_str(r['body'])} |- {r['head']}")
    return "\n".join(lines) + "\n"


@cmd_rules.command("default")
@click.argument("poset_file", metavar="POSET")
@_cap_options
@_output_options
def cmd_rules_default(poset_file, cap, force, fmt, output):
    """The default closure rules of a poset: each subset concludes its
    maximal lower bounds."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    R = default_rules(P, c)
    _emit(_render(_rules_payload(R), fmt, _rules_txt, None, "rules default"), output)


@cmd_rules.command("nuclear")
@click.argument("poset_file", metavar="POSET")
@_output_options
def cmd_rules_nuclear(poset_file, fmt, output):
    """The nuclear closure rules of a meet-semilattice."""
    P = load_poset(poset_file)
    R = nuclear_rules(P)
    _emit(_render(_rules_payload(R), fmt, _rules_txt, None, "rules nuclear"), output)


@cmd_rules.command("close")
@click.argument("poset_file", metavar="POSET")
@click.argument("rule_file", metavar="RULES")
@click.option(
    "--start",
    default="",
    help="Comma-separated labels to close under the rules (default: empty).",
)
@_cap_options
@_output_options
def cmd_rules_close(poset_file, rule_file, start, cap, force, fmt, output):
    """Close a subset under a rule file's deductions."""
    P = load_poset(poset_file)
    R = load_rules(P, rule_file)
    c = _cap_value(cap, force, P.n)
    labels = [s for s in (t.strip() for t in start.split(",")) if s]
    X = Subset.of(P, labels)
    closed = rule_closure(R, X)
    payload = {
        "start": list(X.labels),
        "closure": list(closed.labels),
        "reflexive": R.is_reflexive(c),
        "transitive": R.is_transitive(c),
    }

    def txt(p):
        return (
            f"closure of {_set_str(p['start'])}: {_set_str(p['closure'])}\n"
            f"rule set reflexive: {p['reflexive']}, "
            f"transitive: {p['transitive']}\n"
        )

    _emit(_render(payload, fmt, txt, None, "rules close"), output)


@cli.command("convexity")
@click.argument("poset_file", metavar="POSET")
@click.option(
    "--operator",
    "which",
    type=click.Choice(["clsys", "dcclsys"]),
    default="clsys",
    show_default=True,
    help="Which powerset closure operator of the poset to analyse.",
)
@_cap_options
@_output_options
def cmd_convexity(poset_file, which, cap, force, fmt, output):
    """Anti-exchange, funnel, and acyclicity analysis of a poset's
    closure-system operator."""
    P = load_poset(poset_file)
    c = _cap_value(cap, force, P.n)
    op = clsys_operator(P, c) if which == "clsys" else dcclsys_operator(P, c)
    conv = convexity_checks(op, c)
    acy = acyclicity(op, "poset_order", c)
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

    _emit(_render(payload, fmt, txt, None, "convexity"), output)


@cli.command("sccore")
@click.argument("poset_file", metavar="POSET")
@click.argument("map_file", metavar="MAP")
@_cap_options
@_output_options
def cmd_sccore(poset_file, map_file, cap, force, fmt, output):
    """Greatest Scott-continuous closure operator below a closure
    operator, by formula and by scan, compared."""
    P = load_poset(poset_file)
    name, gamma = _closure_from_file(P, map_file)
    c = _cap_value(cap, force, P.n)
    s1 = sccore(gamma, c)
    s2 = sccore_bruteforce(gamma, c)
    if s1.table != s2.table:
        raise TheoremBreach(
            "way-below formula and candidate scan disagree on the "
            "Scott-continuous core"
        )
    payload = {
        "map": name,
        "sccore": s1.map.as_labels(),
        "fixpoints": list(s1.fix.labels),
    }

    def txt(p):
        return (
            "Scott-continuous core:\n"
            + _table_str(p["sccore"])
            + "\nfixpoints: "
            + _set_str(p["fixpoints"])
            + "\n"
        )

    _emit(_render(payload, fmt, txt, None, "sccore"), output)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    """Run the CLI, mapping error families to stable exit codes."""
    try:
        cli.main(args=argv, prog_name="latkit", standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as e:
        # click's own usage errors; its exit code 2 would collide with
        # the cap-exceeded code, so bad usage maps to 1 like bad input
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    except ParseError as e:
        click.echo(f"parse error: {e}", err=True)
        return 1
    except InputError as e:
        click.echo(f"input error: {e}", err=True)
        return 1
    except CapExceeded as e:
        click.echo(f"cap exceeded: {e}", err=True)
        click.echo(
            "re-run with --force or a larger --cap to proceed "
            "(may be very slow, never unsound)",
            err=True,
        )
        return 2
    except TheoremBreach as e:
        bar = "=" * 64
        click.echo(bar, err=True)
        click.echo("THEOREM BREACH: an internal invariant failed.", err=True)
        click.echo(f"  {e}", err=True)
        click.echo(
            "This is a bug in latkit, not a problem with your input. "
            "Please report it with the command you ran.",
            err=True,
        )
        click.echo(bar, err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
