"""Property tests of the command line over generated argv and files.

Four properties: latkit's report writer matches json.dumps; latkit's
reading of argv over the declaration table matches click's own parser
run on the click tree built from the same table; no argv and no input
file makes `main` raise, print a traceback or exit outside the
documented codes of bad input; and the rule reports render each rule
as its body Subset and head label do.
"""

import contextlib
import copy
import io
import json
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
import click  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from latkit import cli  # noqa: E402
from latkit.cli import _report_json, main  # noqa: E402
from latkit.order import meet_table  # noqa: E402
from latkit.rules import default_rules, nuclear_rules  # noqa: E402

# ---------------------------------------------------------------------------
# the report writer

# the characters a string encoder can get wrong: quotes, backslashes,
# control characters, the JS line separators, non-ASCII text and lone
# surrogates
AWKWARD = '"\\\x00\x08\x0c\x1b\x1f\x7f  é€😀𐃿\ude00'
texts = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=8)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    texts,
)
payloads = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(texts, kids, max_size=4),
    ),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(payloads)
def test_report_json_is_json_dumps(obj):
    assert _report_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("obj", [1.5, {1, 2}, ["a", {"b": [0.0]}], {"a": frozenset()}])
def test_report_json_refuses_other_types(obj):
    with pytest.raises(TypeError):
        _report_json(obj)


# ---------------------------------------------------------------------------
# requests

POSET = {"elements": ["0", "a", "b", "1"], "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
CHAIN = {"elements": ["0", "1", "2"], "le": [["0", "1"], ["1", "2"]]}
MAP = {"name": "gam", "table": {"0": "0", "a": "1", "b": "1", "1": "1"}}
STEP = {"name": "step", "table": {"0": "1", "1": "2", "2": "2"}}
RULES = [{"body": [], "head": "2"}, {"body": ["2"], "head": "1"}]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture paths by key; "out" and "nodir/out" name nothing yet."""
    d = tmp_path_factory.mktemp("cli")
    paths = {"dir": str(d), "missing": str(d / "missing.json"), "out": str(d / "out.txt"),
             "nodir/out": str(d / "nodir" / "out.txt"), "mutant": str(d / "mutant.json")}
    for key, doc in [("b2", POSET), ("c3", CHAIN), ("gam", MAP), ("step", STEP), ("rules", RULES)]:
        paths[key] = str(d / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(doc, fh)
    return paths


def call(argv):
    """main(argv) in this process: exit code, stdout and stderr bytes.
    stderr escapes what UTF-8 cannot encode, as the interpreter's own
    stderr does."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="", write_through=True)
    err = io.TextIOWrapper(
        io.BytesIO(), encoding="utf-8", errors="backslashreplace", newline="", write_through=True
    )
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.buffer.getvalue(), err.buffer.getvalue()


def _commands(group, path):
    for name, cmd in group.commands.items():
        if isinstance(cmd, cli._Group):
            yield path + [name], cmd
            yield from _commands(cmd, path + [name])
        else:
            yield path + [name], cmd


# every command path of the declaration table, groups included, with
# the flags and positionals it declares
COMMANDS = [([], cli._CLI)] + list(_commands(cli._CLI, []))
POSITIONAL = {"poset_file": ["@b2", "@c3"], "map_file": ["@gam", "@step"],
              "map_files": ["@step", "@gam"], "rule_file": ["@rules"]}
VALUES = ["0", "1", "2", "3", "-3", "x", "", " 4", "1_0", "json", "text", "dot", "yaml",
          "clsys", "dcclsys", "a", "0,1", "@out", "@dir", "@nodir/out", "@missing"]
JUNK = ["--", "-", "--help", "--help=1", "--zzz", "--frce", "--hlep", "--form", "-y", "-x",
        "-x1", "-xa", "--cap=", "extra", "rules", "validate", "@b2", "@missing", "\udcff.json"]
FLAGS = sorted({f for _, c in COMMANDS if not isinstance(c, cli._Group)
                for o in c.opts for f in o.flags})
# real argv holds no NUL character
tokens_text = st.text(st.characters(blacklist_characters="\x00"), max_size=5)


# the values of options in the mostly valid requests; --output also
# names a directory, or a file in a missing directory
VALID = {"cap": ["3", "9", "20"], "force": [], "fmt": ["json", "text", "dot"],
         "output": ["@out", "@out", "@dir", "@nodir/out"], "start": ["0", "1", ""],
         "which": ["clsys", "dcclsys"]}


@st.composite
def argvs(draw):
    """argv for a command path of the table.  About half are mostly
    malformed: some of its positionals, its own flags with and without
    a value, the flags of other commands, junk and random text, in any
    order.  The rest are its positionals and valid options, one in four
    with a junk token."""
    path, cmd = draw(st.sampled_from(COMMANDS + [(["frobnicate"], cli._CLI)]))
    own = sorted(f for o in getattr(cmd, "opts", ()) for f in o.flags) or ["--help"]
    args = []
    if draw(st.booleans()) and not isinstance(cmd, cli._Group):
        for a in cmd.args:
            args += draw(st.lists(st.sampled_from(POSITIONAL[a.name]), min_size=1,
                                  max_size=1 if a.nargs == 1 else 2))
        for o in draw(st.lists(st.sampled_from(cmd.opts), max_size=3)):
            flag = draw(st.sampled_from(o.flags))
            if o.is_flag:
                args.append(flag)
            elif draw(st.booleans()):
                args.append(f"{flag}={draw(st.sampled_from(VALID[o.name]))}")
            else:
                args += [flag, draw(st.sampled_from(VALID[o.name]))]
        if draw(st.integers(0, 3)) == 0:
            args.append(draw(st.sampled_from(JUNK + VALUES)))
        return path + args
    token = st.one_of(
        st.sampled_from(own),
        st.sampled_from(own).flatmap(
            lambda f: st.sampled_from(VALUES).map(lambda v: f"{f}={v}")
        ),
        st.sampled_from(own).flatmap(lambda f: st.sampled_from(VALUES).map(lambda v: f + v)),
        st.sampled_from(VALUES),
        st.sampled_from(FLAGS),
        st.sampled_from(JUNK),
        tokens_text,
    )
    if draw(st.booleans()):
        for a in getattr(cmd, "args", ()):
            args += draw(st.lists(st.sampled_from(POSITIONAL[a.name]), max_size=2))
    args += draw(st.lists(token, max_size=6))
    return path + draw(st.permutations(args)) if draw(st.booleans()) else path + args


def _paths(argv, files):
    # "@key" for a fixture path; "@key" inside "--opt=@key" as well
    out = []
    for a in argv:
        for key in sorted(files, key=len, reverse=True):
            a = a.replace("@" + key, files[key])
        out.append(a)
    return out


def click_dispatch(args):
    """click's own parser and dispatch, on the click tree built from
    the table, in place of latkit's reader; a usage error is written as
    latkit writes it."""
    tree = cli._click_tree()
    try:
        with tree.make_context("latkit", list(args)) as ctx:
            tree.invoke(ctx)
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.ClickException as e:
        click.echo(f"error: {e.format_message()}", err=True)
        return 1
    return 0


def _outcome(argv, files):
    """Exit code, stdout, stderr and the bytes written to the output
    path (None if nothing was) of one request."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(files["out"])
    rc, out, err = call(argv)
    try:
        with open(files["out"], "rb") as fh:
            written = fh.read()
    except FileNotFoundError:
        written = None
    return rc, out, err, written


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argvs())
def test_argv_reads_as_clicks_parser_reads_it(files, argv):
    argv = _paths(argv, files)
    mine = _outcome(argv, files)
    with mock.patch.object(cli, "_dispatch", click_dispatch):
        theirs = _outcome(argv, files)
    assert mine == theirs
    assert mine[0] in (0, 1, 2) and b"Traceback" not in mine[2]


# ---------------------------------------------------------------------------
# input files

SLOTS = {  # kind of file -> (document, requests with "@mutant" in its slot)
    "poset": (POSET, [["validate", "@mutant"], ["nuclei", "@mutant"],
                      ["closure-systems", "@mutant", "--format", "text"],
                      ["rules", "nuclear", "@mutant"], ["heyting", "@mutant", "--format", "dot"]]),
    "map": (MAP, [["least-nucleus", "@b2", "@mutant"], ["sccore", "@b2", "@mutant"],
                  ["tarski", "@b2", "@mutant", "--format", "text"],
                  ["generate", "@b2", "@mutant", "@gam"]]),
    "rules": (RULES, [["rules", "close", "@c3", "@mutant", "--start", "0"]]),
}
WRONG = [None, True, 0, -1, 1.5, "", "a", [], {}, [[]], {"a": "b"}, ["0", "0"], "\ud800"]


def _spots(doc, path=()):
    """Every place in a JSON document, as a path of keys and indices,
    with the value there."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _spots(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _spots(v, path + (i,))


def _put(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    at = doc
    for k in path[:-1]:
        at = at[k]
    at[path[-1]] = value
    return doc


@st.composite
def mutants(draw):
    """A request and the bytes of its mutated file, or None for a path
    that names no file."""
    kind = draw(st.sampled_from(sorted(SLOTS)))
    doc, requests = SLOTS[kind]
    argv = draw(st.sampled_from(requests))
    how = draw(st.sampled_from(["flip", "type", "duplicate", "surrogate", "nest", "encoding", "missing"]))
    data = json.dumps(doc).encode()
    spots = dict(_spots(doc))
    strings = {path: v for path, v in spots.items() if isinstance(v, str)}
    if how == "flip":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    elif how == "type":
        spot = draw(st.sampled_from(sorted(spots, key=repr)))
        data = json.dumps(_put(doc, spot, draw(st.sampled_from(WRONG)))).encode()
    elif how == "duplicate":
        a, b = (draw(st.sampled_from(sorted(strings, key=repr))) for _ in "ab")
        data = json.dumps(_put(doc, b, strings[a])).encode()
    elif how == "surrogate":
        spot = draw(st.sampled_from(sorted(strings, key=repr)))
        data = json.dumps(_put(doc, spot, draw(st.sampled_from(["\ud800", "a\udcff", "\ude00b"])))).encode()
    elif how == "nest":
        depth = draw(st.sampled_from([50, 5000, 200_000]))
        data = b"[" * depth + b"]" * draw(st.sampled_from([0, depth]))
    elif how == "encoding":
        codec = draw(st.sampled_from(["utf-8-sig", "utf-16", "utf-32", "latin-1"]))
        data = json.dumps(doc, ensure_ascii=False).replace('"a"', '"á"').encode(codec)
    else:
        data = None
    return argv, data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutants())
def test_no_input_file_makes_a_traceback(files, mutant):
    argv, data = mutant
    with contextlib.suppress(FileNotFoundError):
        os.remove(files["mutant"])
    if data is not None:
        with open(files["mutant"], "wb") as fh:
            fh.write(data)
    rc, out, err = call(_paths(argv, files))
    assert rc in (0, 1, 2), err
    assert b"Traceback" not in err
    if rc:
        assert out == b"" and err.count(b"\n") <= 2, err


# ---------------------------------------------------------------------------
# rule reports

LABEL_CHARS = "ab0 ,{}|-\"\\é€😀"


@st.composite
def labelled_posets(draw):
    """A poset file on up to 6 drawn labels: edges kept along a drawn
    linear order or, half the time, a family of sets closed under
    intersection ordered by inclusion, which has every pairwise meet."""
    if draw(st.booleans()):
        family = {15}
        for g in draw(st.lists(st.integers(0, 15), max_size=4)):
            grown = family | {g & f for f in family}
            if len(grown) > 6:
                break
            family = grown
        masks = draw(st.permutations(sorted(family)))
        n = len(masks)
        pairs = [
            (i, j)
            for i, a in enumerate(masks)
            for j, b in enumerate(masks)
            if i != j and a & ~b == 0
        ]
    else:
        n = draw(st.integers(1, 6))
        line = draw(st.permutations(range(n)))
        edges = [(line[i], line[j]) for i in range(n) for j in range(i + 1, n)]
        pairs = [e for e in edges if draw(st.booleans())]
    text = st.text(LABEL_CHARS, min_size=1, max_size=3)
    labels = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    return {"elements": labels, "le": [[labels[i], labels[j]] for i, j in pairs]}


def rendered_rules(R):
    """The JSON and text rules reports of R, each rule rendered through
    its body Subset and head label."""
    rules = [{"body": list(r.body.labels), "head": r.head_label} for r in R.rules]
    doc = {"count": len(R.rules), "rules": rules}
    lines = [f"{len(R.rules)} rules"]
    lines += [f"  {{{', '.join(r['body'])}}} |- {r['head']}" for r in rules]
    return {
        "json": json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
        "text": "\n".join(lines) + "\n",
    }


@settings(derandomize=True, max_examples=150, deadline=None)
@given(labelled_posets())
def test_rules_reports_render_each_rule_through_its_labels(files, doc):
    path = os.path.join(files["dir"], "drawn.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)
    P = cli.load_poset(path)
    requests = [("default", default_rules)]
    if meet_table(P) is not None:
        requests.append(("nuclear", nuclear_rules))
    for which, build in requests:
        for fmt, want in rendered_rules(build(P)).items():
            rc, out, err = call(["rules", which, path, "--format", fmt])
            assert (rc, err) == (0, b"")
            assert out.decode() == want
