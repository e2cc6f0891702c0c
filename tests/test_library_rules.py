"""The library's design rules, read from src/latkit as text.

Each rule keeps latkit on one form of something the paper's machinery
computes, and says why.  A rule holds one or more probes: a regular
expression, the files it reads (with their exemptions), an optional
scope and a witness.  A file entry is a name under src/latkit or a glob;
a glob starting with "**/" reads every depth, another glob only the top
level.  An exemption is a file, or a file and one exact line of it
("__init__.py:    directed_columns,").  A probe matches each line on its
own, so no \\s, . or [^...] crosses a newline, unless it is marked whole,
when it matches the whole text it reads.

A scope is a top-level "def name" or "class name" found with ast, and
runs from that line through the next top-level def line, or to the end
of the file.  A probe whose scope is missing, or which reads no file,
fails, so a rename cannot make a rule pass by reading nothing.  Every
probe must find its witness, so a pattern that can match nothing fails
on its own.  This module imports nothing from latkit.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatchcase
from pathlib import Path
from typing import NamedTuple

import pytest

LATKIT = Path(__file__).resolve().parents[1] / "src" / "latkit"


class Probe(NamedTuple):
    pattern: str
    witness: str
    files: tuple[str, ...] = ("**/*.py",)
    exempt: tuple[str, ...] = ()
    scope: str = ""
    whole: bool = False


class Rule(NamedTuple):
    name: str
    reason: str
    probes: tuple[Probe, ...]


RULES = (
    Rule(
        "No random sampling in the library",
        """every check in src/latkit is exact; an import of random there
        would bring a fixed-seed sample back""",
        (
            Probe(
                r"^\s*(from\s+random\s|import\s+([^#]*,\s*)?random\b)",
                "import os, random",
                files=("**/*",),
            ),
        ),
    ),
    Rule(
        "No directed-subset list walks in the library",
        """every quantifier over directed subsets reads the bit columns of
        order.directed_columns; only order.py may call the sorted list""",
        (
            Probe(
                r"directed_subsets\(",
                "for D in directed_subsets(P):",
                exempt=("order.py",),
            ),
        ),
    ),
    Rule(
        "No pairwise pointwise scans in the library",
        """a question about the pointwise order on a family of maps reads
        the family's fixpoint masks when the maps are closure operators
        asked once (the rule below), or the value rows of maps.value_rows
        when many questions share one build; never a scan over pairs or a
        filter that compares each member with one map""",
        (
            Probe(
                r"all\(pointwise_leq\(|if pointwise_leq\(",
                "[g for g in G if pointwise_leq(f, g)]",
            ),
        ),
    ),
    Rule(
        "One-query order picks read fixpoint masks",
        """closure operators c <= d iff fix d is a subset of fix c, so
        least_nucleus_above, nuclear_core, the membership lemma of
        hmj.fitting and sccore_bruteforce pick their member with one scan
        of the fixpoint masks carried with the tables; value rows built
        for one question would pay n preimages and 2n spreads again""",
        (Probe(r"_open_rows|rows\.least\(|rows\.greatest\(", "i = rows.least(keep)"),),
    ),
    Rule(
        "No relation search in the library",
        """acyclicity searches linear orders, which decides it exactly; the
        search over every relation, 3 ** (pairs), lives in the tests""",
        (Probe(r"3 \*\*", "for code in range(3 ** len(pairs)):"),),
    ),
    Rule(
        "One top-down descent in the library",
        """closure systems are listed by order.closure_masks as masks, and
        by order.closure_tables with their tables, which lists the nuclei
        too, given the meet table; all from the one descent
        (order._descend), which decides the elements in top_down order.
        Another reader of top_down would be a second descent""",
        (Probe(r"top_down", "for z in top_down(P):", exempt=("order.py",)),),
    ),
    Rule(
        "Closure tables are carried, not replayed",
        """the descent carries the closure systems' tables on the branches
        it keeps, as it carries the nuclei's, and builds none for the
        masks-only readers; a record of its steps, replayed into tables
        later, would be a second output format of the one descent""",
        (
            Probe(
                r"recorded_tables|\brecord(\.append\(|\s*(:[^=]*)?=\s*\[)",
                "    record = []",
                files=("order.py", "closure.py"),
            ),
        ),
    ),
    Rule(
        "The nuclei prune reads its pair meets",
        """order._pruned decides each element that is the meet of an
        incomparable pair from the pair meets alone: their one value, when
        it is not z, is the least kept element above z.  A least_of there,
        or a belows list handed in, would compute that element again on
        every branch""",
        (
            Probe(
                r"least_of\(|belows",
                "def _pruned(states, tables, z):\n    v = least_of(P, z)\n",
                files=("order.py",),
                scope="def _pruned",
            ),
        ),
    ),
    Rule(
        "Directed subsets are read through order.py",
        """every quantifier over directed subsets is one call of a column
        primitive in order.py, which checks it against the finite collapse
        under the one subset cap; a read of the columns, or a cap of its
        own, elsewhere would skip both.  Any name ending in
        directed_columns counts (order._directed_columns read through
        derived has no parenthesis); only the package's re-export line is
        let through""",
        (
            Probe(
                r"directed_columns\b|DIRECTED_CAP",
                "cols = derived(P, _directed_columns)",
                exempt=("order.py", "__init__.py:    directed_columns,"),
            ),
        ),
    ),
    Rule(
        "Second routes read no rule index or closure-system list",
        """clsys's default-rule route reads only the principal bodies
        (rules.default_closure_mask), and nucsys's formula route is
        order.meet_closure; a call of the 2^n-entry rule index, or of clsys
        and its closure-system list, there would be paid again""",
        (
            Probe(
                r"default_rules\(|rule_closure\(",
                "R = _rules.default_rules(P)",
                files=("closure.py", "heyting.py"),
            ),
            Probe(r"clsys\(", "fam = clsys(X)", files=("heyting.py",)),
        ),
    ),
    Rule(
        "Library-built families are checked in batch",
        """every closure operator or nucleus the library builds from a
        table, listed or by a formula, has its laws decided by
        closure.trusted_operators (one pass of maps.closure_table_fault)
        under its route's name and is built trusted, and the kernels of the
        listed nuclei are one per-poset table (hmj._kernels) that checks
        each distinct kernel once; a constructor per built table, or a
        filter check per nucleus, would be a second check path, and a
        kernel the library computed is checked by hmj._kernel_filter and
        built trusted, not by FilterSet""",
        (
            Probe(
                r"(Nucleus|ClosureOperator)\(EndoMap\(P, t\)\) for"
                r"|oneker\(nu, cap\)\.mask (==|for)|FilterSet\(Subset\(P"
                r"|(Nucleus|ClosureOperator)\((EndoMap\(|gen\)|below\[)",
                "return Nucleus(EndoMap(P, tuple(table)))",
            ),
        ),
    ),
    Rule(
        "Subset tables are built by doubling",
        """the join and meet of every subset, and the join of every
        subset's image, are 2^n byte tables built by doubling, one
        bytes.translate per element (poset.join_meet_tables and
        poset.image_joins); a lookup per subset, or an image mask per
        subset, would pay n 2^n Python-level steps again""",
        (
            Probe(
                r"map\(join\.__getitem__|image_masks",
                "out = bytes(map(join.__getitem__, masks))",
            ),
        ),
    ),
    Rule(
        "Frame joins and meets are read from the subset tables",
        """a frame's joins and meets are two 2^n byte tables, kept with the
        binary-join columns of image_joins (poset.subset_tables): the frame
        check, the quotient check, the implication table and the
        double-implication nucleus all read them.  A join_of or meet_of
        scan per solution set or value set in heyting.py, or a
        join_meet_tables call outside poset.py, would scan or build them
        again""",
        (
            Probe(
                r"join_of\(P, s\) for s in|meet_of\(P, vals\)",
                "v = meet_of(P, vals)",
                files=("heyting.py",),
            ),
            Probe(
                r"join_meet_tables\(",
                "join, meet = join_meet_tables(P)",
                exempt=("poset.py",),
            ),
        ),
    ),
    Rule(
        "Scott continuity is unioned per value",
        """order.directed_join_faults unions the member and top columns
        over the table's preimage rows in one pass, and each value of the
        table reads those unions; a loop over the table inside a loop over
        the table would make 2n^2 column ORs per map again""",
        (
            Probe(
                r"(?m)^( +)for [^\n]*\btable\b[^\n]*:\n(?:\1 [^\n]*\n|\n)*?"
                r"\1 +for [^\n]*\btable\b",
                "def directed_join_faults(P, table):\n"
                "    for t in range(len(table)):\n"
                "        for x, v in enumerate(table):\n"
                "            pass\n",
                files=("order.py",),
                scope="def directed_join_faults",
                whole=True,
            ),
        ),
    ),
    Rule(
        "Set bits are read through bitset.bits",
        """bitset.bits answers masks below 2^16 from two byte tables and
        walks wider ones lazily, and bitset.least_closed_table holds the
        other low-bit loop; a low-bit loop of its own elsewhere would pay a
        Python step per bit again.  A lowest-bit read is bitset.lowest,
        which is no loop""",
        (Probe(r"low = .* & -", "        low = m & -m", exempt=("bitset.py",)),),
    ),
    Rule(
        "The bit kernels import nothing from latkit",
        """latkit.bitset holds the encoding of subsets as masks and of
        families as bit columns, poset-free; a relative or latkit import
        there would tie the kernels to the modules that read them""",
        (
            Probe(
                r"^\s*(from\s+(\.|latkit\b)|import\s+([^#]*,\s*)?latkit\b)",
                "from .order import FinitePoset",
                files=("bitset.py",),
            ),
        ),
    ),
    Rule(
        "The poset layer imports nothing above it",
        """latkit.poset holds the value base, the two value classes and the
        tables read from them, and latkit.order builds on it and re-exports
        it; an import of order, or of any module but the bit kernels and
        the errors, there would be a cycle, and the layer would no longer
        load alone""",
        (
            Probe(
                r"^\s*(from\s+(\.|latkit\.)(?!(bitset|errors)\b)"
                r"|import\s+([^#]*,\s*)?latkit\b)",
                "from .order import SUBSET_CAP",
                files=("poset.py",),
            ),
        ),
    ),
    Rule(
        "Requests are parsed by latkit, not by click's parser",
        """latkit.cli.main reads argv over its declaration table and runs
        the command; click builds a Context only for a help page or an
        error.  A call of click's main or make_context would bring click's
        per-request parse back into every cold CLI process""",
        (
            Probe(
                r"\.main\(args=|make_context\(",
                "return group.main(args=argv, standalone_mode=False)",
                files=("cli.py", "commands.py", "loaders.py"),
            ),
        ),
    ),
    Rule(
        "The request path imports no click",
        """latkit.cli imports click inside the functions that write a help
        page or a usage error; a module-level import would load click into
        every cold CLI process again""",
        (Probe(r"^(import click|from click)", "import click", files=("*.py",)),),
    ),
    Rule(
        "Powerset sweeps read the bit columns",
        """anti-exchange and funnel conditions (1) and (2) read a powerset
        operator's n bit columns, all masks at once; a read of the table at
        each mask's trace on each upper set, or a loop over the upper sets
        inside a loop over every mask, would pay 2^n |U| Python steps
        again.  The literal scans live in tests/test_convexity.py as the
        reference""",
        (
            Probe(r"cl\[m & u\]", "if cl[m & u] != c:"),
            Probe(
                r"for \w+ in range\(P\.full_mask \+ 1\):\n(?:[ \t][^\n]*\n|\n)*?"
                r"[ \t]+for u in uppers\b",
                "for m in range(P.full_mask + 1):\n"
                "    c = cl[m]\n"
                "    for u in uppers:\n",
                whole=True,
            ),
        ),
    ),
    Rule(
        "Rule laws read the body index",
        """RuleSet.is_reflexive and is_transitive read the entries of the
        body-to-heads index, and rules.rul reads the operator's table; a
        loop over all 2^n masks there, or an apply_mask per mask, would
        scan every subset again.  The literal scans live in
        tests/test_rules.py as the reference""",
        tuple(
            Probe(
                r"range\(P\.full_mask \+ 1\)|apply_mask\(",
                f"{scope}(R):\n    x = [op.apply_mask(m) for m in M]\n",
                files=("rules.py",),
                scope=scope,
            )
            for scope in ("class RuleSet", "def rul")
        ),
    ),
    Rule(
        "The library keeps no module-level cache",
        """per-poset data lives in the poset's own cache (poset.derived),
        and per-class data in what each value class already holds (its
        field names); a dict assigned at module level would be a second
        cache that outlives the values it was filled for""",
        (
            Probe(
                r"^[A-Za-z_][A-Za-z0-9_]*\s*(:[^=]*)?=\s*(\{\}|dict\()",
                "_PLANS: dict[int, tuple] = {}",
            ),
        ),
    ),
    Rule(
        "The library imports no dataclasses",
        """the value classes share one immutable base (poset.Value) with
        their own constructors; dataclasses would load inspect, ast and dis
        into every process that imports latkit and exec the generated
        methods of each class on import""",
        (
            Probe(
                r"^\s*(from\s+dataclasses\b|import\s+([^#]*,\s*)?dataclasses\b)"
                r"|@dataclass",
                "from dataclasses import dataclass",
            ),
        ),
    ),
    Rule(
        "Rule listings are read as masks",
        """a rule set keeps its rules as (body mask, head) pairs, and the
        rules reports read them through P.labels_of and P.label; a
        ClosureRule and a Subset per rule there, or a ClosureRule built per
        candidate in the library, would be checked and thrown away
        again""",
        (
            Probe(
                r"R\.rules|r\.body|head_label",
                "rows = [(r.body.labels, r.head_label) for r in R.rules]",
                files=("cli.py", "commands.py", "loaders.py"),
            ),
            Probe(r"ClosureRule\((P|poset)\b", "ClosureRule(P, body, head)"),
        ),
    ),
    Rule(
        "Powerset operators take their table",
        """every library caller of PowersetOperator holds the table and
        passes it; a strategy function would be called once per mask
        again, and the anti-exchange sweep is a cached property of the
        operator, not a field written into it after construction""",
        (
            Probe(
                r"PowersetOperator\(.*(__getitem__|lambda)"
                r"|object\.__setattr__\(op\b",
                'PowersetOperator(P, "rules", lambda m: close(m))',
            ),
        ),
    ),
    Rule(
        "Operators read their meet law from their class",
        """closure.trusted_operators and checked fetch P's meet table
        themselves when the class they build preserves meets (Nucleus), so
        no caller passes one; a table handed in could be left out, and a
        nucleus would then be built without its meet law""",
        (
            Probe(
                r"\b(trusted_operators|checked)\(.*(meet_table\(|\bmt\b|\bmeets\b)",
                'checked(Nucleus, P, table, route, meet_table(P))',
            ),
        ),
    ),
)


def _reads(entry: str, name: str) -> bool:
    if entry.startswith("**/"):
        return fnmatchcase(name.rsplit("/", 1)[-1], entry[3:])
    return "/" not in name and fnmatchcase(name, entry)


def _scope_lines(text: str, scope: str) -> tuple[int, list[str]] | None:
    """(first line number, lines) of scope in text, or None."""
    kind, name = scope.split()
    node_type = ast.FunctionDef if kind == "def" else ast.ClassDef
    body = ast.parse(text).body
    starts = [n.lineno for n in body if isinstance(n, node_type) and n.name == name]
    if not starts:
        return None
    start = starts[0]
    ends = [n.lineno for n in body if isinstance(n, ast.FunctionDef) and n.lineno > start]
    lines = text.split("\n")
    return start, lines[start - 1 : ends[0] if ends else len(lines)]


def violations(probe: Probe, sources: dict[str, str]) -> list[str]:
    """The lines of sources (name -> text) at which probe fails."""
    names = [n for n in sorted(sources) if any(_reads(e, n) for e in probe.files)]
    whole_files = {e for e in probe.exempt if ":" not in e}
    exempt_lines = {tuple(e.split(":", 1)) for e in probe.exempt if ":" in e}
    names = [n for n in names if n not in whole_files]
    if not names:
        return [f"reads no file: {probe.files}"]
    rx = re.compile(probe.pattern)
    found = []
    for name in names:
        first, lines = 1, sources[name].split("\n")
        if probe.scope:
            scoped = _scope_lines(sources[name], probe.scope)
            if scoped is None:
                found.append(f"{name} has no {probe.scope}")
                continue
            first, lines = scoped
        if probe.whole:
            text = "\n".join(lines) + "\n"
            found += [
                f"{name}:{first + text.count(chr(10), 0, m.start())}: {m.group()!r}"
                for m in rx.finditer(text)
            ]
        else:
            found += [
                f"{name}:{first + i}: {line}"
                for i, line in enumerate(lines)
                if rx.search(line) and (name, line) not in exempt_lines
            ]
    return found


PROBES = [
    pytest.param(probe, id=rule.name + (f" #{i + 1}" if i else ""))
    for rule in RULES
    for i, probe in enumerate(rule.probes)
]


@pytest.fixture(scope="module")
def library() -> dict[str, str]:
    # every file, as grep -r read them
    return {
        p.relative_to(LATKIT).as_posix(): p.read_text(encoding="utf-8", errors="replace")
        for p in LATKIT.rglob("*")
        if p.is_file()
    }


@pytest.mark.parametrize("rule", RULES, ids=[r.name for r in RULES])
def test_the_library_keeps_the_rule(rule, library):
    found = [v for probe in rule.probes for v in violations(probe, library)]
    reason = " ".join(rule.reason.split())
    assert not found, f"{rule.name}: {reason}\n" + "\n".join(found)


@pytest.mark.parametrize("probe", PROBES)
def test_the_rule_fails_on_its_witness(probe, library):
    # the witness stands in for the first file the probe reads, and the
    # pattern, not a missing scope, must find it
    name = next(
        n for n in sorted(library)
        if any(_reads(e, n) for e in probe.files) and n not in probe.exempt
    )
    assert any(v.startswith(name + ":") for v in violations(probe, {name: probe.witness}))


@pytest.mark.parametrize("probe", PROBES)
def test_the_rule_fails_when_what_it_reads_is_gone(probe, library):
    # a scope renamed away, or every file the probe reads removed
    if probe.scope:
        name = probe.scope.split()[1]
        renamed = {k: re.sub(rf"\b{name}\b", name + "_renamed", v) for k, v in library.items()}
        assert any(v.endswith(" has no " + probe.scope) for v in violations(probe, renamed))
    else:
        kept = {k: v for k, v in library.items() if not any(_reads(e, k) for e in probe.files)}
        assert violations(probe, kept) == [f"reads no file: {probe.files}"]


def test_rule_names_are_distinct():
    assert len({rule.name for rule in RULES}) == len(RULES)
