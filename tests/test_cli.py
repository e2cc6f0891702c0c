"""End-to-end command tests: exit codes, formats, determinism, caps."""

import json
import os
import pathlib
import sys

import pytest

from latkit import cli, convexity
from latkit.cli import _cap_value, load_map, load_poset, load_rules, main
from latkit.errors import InputError, ParseError
from latkit.heyting import implication_table
from latkit.order import build_poset


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return {
        "b2": write(
            "b2.json",
            {
                "elements": ["0", "a", "b", "1"],
                "le": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
            },
        ),
        "c3": write(
            "c3.json",
            {"elements": ["0", "1", "2"], "le": [["0", "1"], ["1", "2"]]},
        ),
        "cyclic": write(
            "cyclic.json",
            {"elements": ["x", "y"], "le": [["x", "y"], ["y", "x"]]},
        ),
        "step": write(
            "step.json",
            {"name": "step", "table": {"0": "1", "1": "2", "2": "2"}},
        ),
        "gam": write(
            "gam.json",
            {"name": "gam", "table": {"0": "0", "a": "1", "b": "1", "1": "1"}},
        ),
        "partial": write("partial.json", {"table": {"0": "1"}}),
        "rules": write(
            "rules.json",
            [{"body": [], "head": "2"}, {"body": ["2"], "head": "1"}],
        ),
        "b3": write(
            "b3.json",
            {
                "elements": ["0", "a", "b", "c", "ab", "ac", "bc", "1"],
                "le": [
                    ["0", "a"], ["0", "b"], ["0", "c"],
                    ["a", "ab"], ["b", "ab"], ["a", "ac"],
                    ["c", "ac"], ["b", "bc"], ["c", "bc"],
                    ["ab", "1"], ["ac", "1"], ["bc", "1"],
                ],
            },
        ),
        "b3join_a": write(
            "b3join_a.json",
            {
                "name": "join_a",
                "table": {
                    "0": "a", "a": "a", "b": "ab", "c": "ac",
                    "ab": "ab", "ac": "ac", "bc": "1", "1": "1",
                },
            },
        ),
        "chain15": write(
            "chain15.json",
            {
                "elements": [f"e{i}" for i in range(15)],
                "le": [[f"e{i}", f"e{i+1}"] for i in range(14)],
            },
        ),
        "dir": tmp_path,
    }


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_validate_json(files, capsys):
    rc, out, _ = run(capsys, ["validate", files["b2"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["structure_level"] == "frame"
    assert doc["bottom"] == "0" and doc["top"] == "1"
    assert ["0", "a"] in doc["covers"]


def test_validate_dot(files, capsys):
    rc, out, _ = run(capsys, ["validate", files["b2"], "--format", "dot"])
    assert rc == 0
    assert out.startswith("digraph {")
    assert '"0" ' not in out  # nodes are n0..nk with label attributes
    assert 'label="0"' in out and "n0 -> n1;" in out


def test_closure_systems_spec_example(files, capsys):
    rc, out, _ = run(capsys, ["closure-systems", files["c3"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert ["2"] in doc["systems"] and ["0", "1", "2"] in doc["systems"]


def test_generate_spec_example(files, capsys):
    rc, out, _ = run(capsys, ["generate", files["c3"], files["step"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["closure"] == {"0": "2", "1": "2", "2": "2"}
    assert doc["fixpoints"] == ["2"]


def test_tarski_command(files, capsys):
    rc, out, _ = run(capsys, ["tarski", files["c3"], files["step"], "-x", "0"])
    assert rc == 0
    assert json.loads(out)["least_fixpoint"] == "2"


def test_nuclei_spec_example(files, capsys):
    rc, out, _ = run(capsys, ["nuclei", files["b2"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    fixsets = [nu["fixpoints"] for nu in doc["nuclei"]]
    assert ["a", "1"] in fixsets and ["1"] in fixsets


def test_nuclei_dot_lattice(files, capsys):
    rc, out, _ = run(capsys, ["nuclei", files["b2"], "--format", "dot"])
    assert rc == 0
    assert out.count("->") == 4  # covering relation of the 4-nucleus diamond


def test_heyting_command(files, capsys):
    rc, out, _ = run(capsys, ["heyting", files["b2"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["implication"]["a"]["0"] == "b"
    assert doc["implication"]["0"]["0"] == "1"


def test_nuclear_core_and_least_nucleus(files, capsys):
    rc, out, _ = run(capsys, ["nuclear-core", files["b2"], files["gam"]])
    assert rc == 0
    assert json.loads(out)["fixpoints"] == ["0", "a", "b", "1"]
    rc, out, _ = run(capsys, ["least-nucleus", files["b2"], files["gam"]])
    assert rc == 0
    assert json.loads(out)["fixpoints"] == ["1"]


def test_hmj_command(files, capsys):
    rc, out, _ = run(capsys, ["hmj", files["b2"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert {"filter": ["a", "1"], "quotient": ["b", "1"]} in doc["pairs"]


def test_hmj_command_on_the_5x3_grid(tmp_path, capsys):
    # 15 elements: past the default cap, answered with --force.  Every
    # filter of a finite frame is principal, and the pairs are
    # (up-set of a, fixpoints of x -> a => x).  The same check runs on
    # chain(15), the largest forced hmj: 16,384 nuclei
    labels = [f"{i}{j}" for i in range(5) for j in range(3)]
    pairs = [(f"{i}{j}", f"{i + 1}{j}") for i in range(4) for j in range(3)]
    pairs += [(f"{i}{j}", f"{i}{j + 1}") for i in range(5) for j in range(2)]
    chain = [str(i) for i in range(15)]
    for labels, pairs in [(labels, pairs), (chain, list(zip(chain, chain[1:])))]:
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"elements": labels, "le": pairs}))
        rc, _, err = run(capsys, ["hmj", str(path)])
        assert rc == 2 and "--force" in err
        rc, out, _ = run(capsys, ["hmj", str(path), "--force"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["count"] == 15 and doc["antiisomorphism_verified"]
        P = build_poset(labels, pairs)
        imp = implication_table(P, P.n)
        want = []
        for a in range(P.n):
            fix = 0
            for x in range(P.n):
                fix |= 1 << imp[a][x]
            want.append(
                {"filter": list(P.labels_of(P.le[a])), "quotient": list(P.labels_of(fix))}
            )
        key = lambda pair: (pair["filter"], pair["quotient"])  # noqa: E731
        assert sorted(doc["pairs"], key=key) == sorted(want, key=key)


def test_hmj_command_on_the_2x7_grid_at_the_default_cap(tmp_path, capsys):
    # 14 elements: the frame check and the directed quantifiers share
    # one cap, so no quantifier refuses after the frame check has run
    labels = [f"{i}{j}" for i in range(7) for j in range(2)]
    pairs = [(f"{i}{j}", f"{i + 1}{j}") for i in range(6) for j in range(2)]
    pairs += [(f"{i}0", f"{i}1") for i in range(7)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"elements": labels, "le": pairs}))
    rc, out, _ = run(capsys, ["hmj", str(path)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 14 and doc["antiisomorphism_verified"]


def test_convexity_refuses_before_it_builds(files, capsys, monkeypatch):
    # an 11-element poset is past the convexity cap; the command must
    # refuse before it builds the 2^n-entry operator
    def planted(*args):
        raise AssertionError("the powerset operator was built")

    monkeypatch.setattr(convexity, "least_closed_table", planted)
    path = files["dir"] / "chain11.json"
    chain = [str(i) for i in range(11)]
    path.write_text(json.dumps({"elements": chain, "le": list(zip(chain, chain[1:]))}))
    for operator in ("clsys", "dcclsys"):
        rc, _, err = run(capsys, ["convexity", str(path), "--operator", operator])
        assert rc == 2
        assert "convexity analysis: size 11 exceeds cap 10" in err


B2_IDENTITY = {"0": "0", "a": "a", "b": "b", "1": "1"}

# (reader, file content or LATKIT_CAP value, message); a str file
# content is written as is
BAD_INPUTS = {
    "malformed-json": (
        "poset", "{", "{path}:1:2: Expecting property name enclosed in double quotes"
    ),
    "poset-not-object": ("poset", [], "{path}: poset file must be a JSON object"),
    "elements": (
        "poset", {"elements": ["a", 1]}, "{path}: field 'elements' must be a list of strings"
    ),
    "le-not-list": (
        "poset", {"elements": ["a"], "le": {}},
        "{path}: field 'le' must be a list of [lesser, greater] pairs",
    ),
    "le-entry": (
        "poset", {"elements": ["a"], "le": [["a"]]}, "{path}: 'le' entry 0 is not a pair of labels"
    ),
    "map-not-object": ("map", [], "{path}: map file must be an object with a 'table' field"),
    "map-values": ("map", {"table": {"0": 0}}, "{path}: 'table' must map labels to labels"),
    "map-name": ("map", {"name": 1, "table": B2_IDENTITY}, "{path}: 'name' must be a string"),
    "rules-not-list": ("rules", {}, "{path}: rule file must be a JSON list"),
    "rule-head": (
        "rules", [{"body": []}], "{path}: rule 0 must be an object with 'body' and 'head'"
    ),
    "rule-body": (
        "rules", [{"body": "a", "head": "a"}], "{path}: rule 0 'body' must be a list of labels"
    ),
    "cap-zero": ("cap", "0", "LATKIT_CAP must be at least 1, got '0'"),
    "cap-negative": ("cap", "-3", "LATKIT_CAP must be at least 1, got '-3'"),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_is_a_parse_error(tmp_path, monkeypatch, name):
    reader, doc, message = BAD_INPUTS[name]
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    monkeypatch.setenv("LATKIT_CAP", doc if reader == "cap" else "")
    P = build_poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    read = {
        "poset": lambda: load_poset(str(path)),
        "map": lambda: load_map(P, str(path)),
        "rules": lambda: load_rules(P, str(path)),
        "cap": lambda: _cap_value(None, False, P.n),
    }[reader]
    with pytest.raises(ParseError) as info:
        read()
    assert str(info.value) == message.format(path=path)


def test_validate_text_shows_the_structure_witness(tmp_path, capsys):
    # the diamond is a lattice whose meets do not distribute over joins
    path = tmp_path / "diamond.json"
    pairs = [["0", x] for x in "abc"] + [[x, "1"] for x in "abc"]
    path.write_text(json.dumps({"elements": ["0", "a", "b", "c", "1"], "le": pairs}))
    rc, out, _ = run(capsys, ["validate", str(path), "--format", "text"])
    assert rc == 0
    assert "structure: preframe\nwitness: meet with 'a' does not distribute" in out


def test_rules_commands(files, capsys):
    rc, out, _ = run(capsys, ["rules", "default", files["c3"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 8
    assert {"body": [], "head": "2"} in doc["rules"]

    rc, out, _ = run(capsys, ["rules", "nuclear", files["b2"]])
    assert rc == 0
    assert json.loads(out)["count"] == 9

    rc, out, _ = run(
        capsys, ["rules", "close", files["c3"], files["rules"], "--start", ""]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["closure"] == ["1", "2"]


def test_rules_close_answers_past_the_subset_cap(files, capsys, monkeypatch):
    # the closure and both rule laws read the rule index's entries, so
    # nothing behind rules close walks 2^n subsets: a 15-element chain
    # answers with no --force, and a small LATKIT_CAP gates nothing
    rules = files["dir"] / "rules15.json"
    rules.write_text(
        json.dumps([{"body": [], "head": "e3"}, {"body": ["e3"], "head": "e9"}])
    )
    argv = ["rules", "close", files["chain15"], str(rules), "--start", "e1"]
    for cap in (None, "2"):
        if cap is None:
            monkeypatch.delenv("LATKIT_CAP", raising=False)
        else:
            monkeypatch.setenv("LATKIT_CAP", cap)
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        assert json.loads(out) == {
            "start": ["e1"],
            "closure": ["e1", "e3", "e9"],
            "reflexive": False,
            "transitive": False,
        }


def test_convexity_command(files, capsys):
    rc, out, _ = run(capsys, ["convexity", files["c3"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["is_convex_geometry"] and doc["acyclic"]
    rc, out, _ = run(
        capsys, ["convexity", files["b2"], "--operator", "dcclsys"]
    )
    assert rc == 0
    assert json.loads(out)["is_convex_geometry"]


def test_convexity_command_checks_the_funnel_once(files, capsys, monkeypatch):
    import latkit.commands
    import latkit.convexity

    calls = []
    real = latkit.convexity.funnel_check

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(latkit.convexity, "funnel_check", counted)
    # a direct call from the command counts as well
    monkeypatch.setattr(latkit.commands, "funnel_check", counted, raising=False)
    for argv in (
        ["convexity", files["c3"]],
        ["convexity", files["b2"], "--operator", "dcclsys"],
    ):
        calls.clear()
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert len(calls) == 1
        doc = json.loads(out)
        assert doc["acyclic"] == doc["poset_order_is_funnel"]


def test_convexity_command_sweeps_anti_exchange_once(files, capsys, monkeypatch):
    # the poset order of c3 is an antisymmetric funnel for clsys, so the
    # funnel check needs the anti-exchange verdict the command computed:
    # it reads the operator's one sweep
    import latkit.convexity

    calls = []
    real = latkit.convexity._anti_exchange_failure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(latkit.convexity, "_anti_exchange_failure", counted)
    rc, out, _ = run(capsys, ["convexity", files["c3"]])
    assert rc == 0
    assert len(calls) == 1
    doc = json.loads(out)
    assert doc["poset_order_is_funnel"] and doc["anti_exchange"]


def test_sccore_command(files, capsys):
    rc, out, _ = run(capsys, ["sccore", files["b2"], files["gam"]])
    assert rc == 0
    doc = json.loads(out)
    assert doc["sccore"] == {"0": "0", "a": "1", "b": "1", "1": "1"}


def test_sccore_rejects_non_closure(files, capsys):
    rc, _, err = run(capsys, ["sccore", files["c3"], files["step"]])
    assert rc == 1
    assert "not a closure operator" in err


def test_closure_map_file_is_checked_once(files, monkeypatch, capsys):
    import latkit.cli
    import latkit.commands
    import latkit.maps

    real = latkit.maps.is_ascending
    calls = []

    def counting(f):
        calls.append(f.table)
        return real(f)

    monkeypatch.setattr(latkit.maps, "is_ascending", counting)
    P = latkit.cli.load_poset(files["b2"])
    name, gamma = latkit.commands._closure_from_file(P, files["gam"])
    assert name == "gam" and len(calls) == 1
    rc, _, err = run(capsys, ["least-nucleus", files["c3"], files["step"]])
    assert rc == 1
    assert err == (
        "input error: map 'step' is not a closure operator "
        "(needs ascending, increasing, idempotent)\n"
    )


def test_cycle_is_input_error(files, capsys):
    rc, _, err = run(capsys, ["validate", files["cyclic"]])
    assert rc == 1
    assert "cycle" in err


def test_partial_table_is_parse_error(files, capsys):
    rc, _, err = run(capsys, ["tarski", files["c3"], files["partial"]])
    assert rc == 1
    assert "table not total" in err


def test_missing_file_is_parse_error(files, capsys):
    rc, _, err = run(capsys, ["validate", str(files["dir"] / "nope.json")])
    assert rc == 1
    assert "parse error" in err


def test_cap_exceeded_is_exit_2(files, capsys):
    rc, _, err = run(capsys, ["closure-systems", files["chain15"]])
    assert rc == 2
    assert "cap exceeded" in err and "--force" in err


def test_force_lifts_cap(files, capsys):
    rc, out, _ = run(capsys, ["closure-systems", files["chain15"], "--force"])
    assert rc == 0
    assert json.loads(out)["count"] == 2 ** 14


CAPPED = {
    "validate": [],
    "heyting": [],
    "nuclei": [],
    "hmj": [],
    "least-nucleus": ["b3join_a"],
    "nuclear-core": ["b3join_a"],
    "closure-systems": [],
    "sccore": ["b3join_a"],
    "rules default": [],
    "convexity": [],
}


def _command_id(command):
    return command.replace(" ", "-")


@pytest.mark.parametrize("command", list(CAPPED), ids=_command_id)
def test_force_reaches_every_check(files, capsys, monkeypatch, command):
    # --force must reach every internal capped call, so with the library
    # default caps lowered below the input size the report is unchanged
    argv = command.split() + [files["b3"]] + [files[k] for k in CAPPED[command]]
    rc, want, _ = run(capsys, argv)
    assert rc == 0
    for name, mod in list(sys.modules.items()):
        if name.startswith("latkit"):
            for cap in ("SUBSET_CAP", "CONVEXITY_CAP"):
                if hasattr(mod, cap):
                    monkeypatch.setattr(mod, cap, 6)
    rc, _, _ = run(capsys, argv)
    assert rc == 2
    rc, out, _ = run(capsys, argv + ["--force"])
    assert rc == 0
    assert out == want


UNCAPPED = {
    "generate": ["c3", "step"],
    "tarski": ["c3", "step"],
    "rules nuclear": ["b2"],
    "rules close": ["c3", "rules"],
}


@pytest.mark.parametrize("command", list(UNCAPPED), ids=_command_id)
@pytest.mark.parametrize("flag", [["--force"], ["--cap", "5"]], ids=["force", "cap"])
def test_uncapped_commands_reject_cap_flags(files, capsys, command, flag):
    # these commands enumerate nothing, so a cap flag is a usage error
    argv = command.split() + [files[k] for k in UNCAPPED[command]]
    rc, _, _ = run(capsys, argv)
    assert rc == 0
    rc, _, err = run(capsys, argv + flag)
    assert rc == 1
    assert "no such option" in err.lower()


def test_cap_flag_and_env(files, capsys, monkeypatch):
    rc, _, _ = run(capsys, ["closure-systems", files["c3"], "--cap", "2"])
    assert rc == 2
    monkeypatch.setenv("LATKIT_CAP", "2")
    rc, _, _ = run(capsys, ["closure-systems", files["c3"]])
    assert rc == 2
    monkeypatch.setenv("LATKIT_CAP", "7")
    rc, _, _ = run(capsys, ["closure-systems", files["c3"]])
    assert rc == 0
    monkeypatch.setenv("LATKIT_CAP", "junk")
    rc, _, err = run(capsys, ["closure-systems", files["c3"]])
    assert rc == 1 and "LATKIT_CAP" in err


def test_dot_unsupported_is_input_error(files, capsys):
    rc, _, err = run(
        capsys, ["generate", files["c3"], files["step"], "--format", "dot"]
    )
    assert rc == 1
    assert "dot" in err


def test_unknown_command_is_exit_1(files, capsys):
    rc, _, err = run(capsys, ["frobnicate", files["c3"]])
    assert rc == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_output_to_file_and_determinism(files, capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["hmj", files["b2"], "--output", str(out1)]) == 0
    assert main(["hmj", files["b2"], "--output", str(out2)]) == 0
    capsys.readouterr()
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.endswith(b"\n")


def test_text_format(files, capsys):
    rc, out, _ = run(capsys, ["closure-systems", files["c3"], "--format", "text"])
    assert rc == 0
    assert out.splitlines()[0] == "4 closure systems"


# Every command's stdout and exit code in each format, and every --help
# page, recorded byte for byte in cli_golden.json.  An argument "@key"
# stands for the file files[key]; stderr is left out because its
# messages name the temporary paths.  After an intended change of
# output, write golden_outputs() to the file again with
# json.dumps(..., indent=1, ensure_ascii=False).
GOLDEN_ARGV = [
    ["validate", "@b2"],
    ["validate", "@c3"],
    ["validate", "@b3"],
    ["validate", "@cyclic"],
    ["closure-systems", "@c3"],
    ["closure-systems", "@b2"],
    ["closure-systems", "@chain15"],
    ["generate", "@c3", "@step"],
    ["tarski", "@c3", "@step"],
    ["tarski", "@c3", "@step", "-x", "1"],
    ["tarski", "@c3", "@partial"],
    ["nuclei", "@b2"],
    ["nuclei", "@b3"],
    ["heyting", "@b2"],
    ["heyting", "@b3"],
    ["nuclear-core", "@b2", "@gam"],
    ["nuclear-core", "@b3", "@b3join_a"],
    ["least-nucleus", "@b2", "@gam"],
    ["least-nucleus", "@b3", "@b3join_a"],
    ["hmj", "@b2"],
    ["hmj", "@b3"],
    ["rules", "default", "@c3"],
    ["rules", "nuclear", "@b2"],
    ["rules", "close", "@c3", "@rules", "--start", ""],
    ["rules", "close", "@c3", "@rules", "--start", "0"],
    ["convexity", "@c3"],
    ["convexity", "@b2", "--operator", "dcclsys"],
    ["sccore", "@b2", "@gam"],
    ["sccore", "@b3", "@b3join_a"],
    ["sccore", "@c3", "@step"],
]

GOLDEN_HELP = [
    [],
    ["validate"],
    ["closure-systems"],
    ["generate"],
    ["tarski"],
    ["nuclei"],
    ["heyting"],
    ["nuclear-core"],
    ["least-nucleus"],
    ["hmj"],
    ["rules"],
    ["rules", "default"],
    ["rules", "nuclear"],
    ["rules", "close"],
    ["convexity"],
    ["sccore"],
]

GOLDEN_PATH = pathlib.Path(__file__).with_name("cli_golden.json")


def golden_outputs(files, capsys, monkeypatch) -> dict:
    """Exit code and stdout of every golden command line, keyed by the
    command line with fixture keys in place of paths."""
    monkeypatch.setenv("COLUMNS", "80")  # help pages wrap to the terminal
    monkeypatch.delenv("LATKIT_CAP", raising=False)
    out = {}
    for argv in GOLDEN_ARGV:
        for fmt in ("json", "text", "dot"):
            full = [files[a[1:]] if a.startswith("@") else a for a in argv]
            full += ["--format", fmt]
            rc, stdout, _ = run(capsys, full)
            out[" ".join(argv + ["--format", fmt])] = {
                "exit": rc, "stdout": stdout,
            }
    for argv in GOLDEN_HELP:
        rc, stdout, _ = run(capsys, argv + ["--help"])
        out[" ".join(argv + ["--help"])] = {"exit": rc, "stdout": stdout}
    return out


def test_cli_output_matches_golden(files, capsys, monkeypatch):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = golden_outputs(files, capsys, monkeypatch)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


# Usage errors and the parser's edge cases: exit code, stdout and
# stderr, recorded byte for byte in cli_usage_golden.json.  An argument
# "@key" stands for files[key], and every fixture path in the output is
# written back as its "@key".  After an intended change of a message,
# write usage_outputs() to the file again with
# json.dumps(..., indent=1, ensure_ascii=False).
USAGE_ARGV = [
    [],
    ["rules"],
    ["frobnicate", "@c3"],
    ["rules", "frobnicate", "@c3"],
    ["validate"],
    ["generate", "@c3"],
    ["closure-systems", "@c3", "--frce"],
    ["validate", "@c3", "--zzz"],
    ["validate", "@c3", "--hlep"],
    ["validate", "@c3", "--cap"],
    ["validate", "@c3", "--cap", "0"],
    ["validate", "@c3", "--cap", "x"],
    ["validate", "@c3", "--cap", "-3"],
    ["closure-systems", "@c3", "--cap=3"],
    ["closure-systems", "@c3", "--cap=2"],
    ["tarski", "@c3", "@step", "-x1"],
    ["tarski", "@c3", "@step", "-x", "1"],
    ["tarski", "@c3", "@step", "--start=1"],
    ["tarski", "@c3", "-x", "1", "@step"],
    ["tarski", "@c3", "@step", "-x"],
    ["tarski", "@c3", "@step", "-y1"],
    ["validate", "@c3", "--format", "yaml"],
    ["validate", "@c3", "--output", "@dir"],
    ["validate", "@c3", "--force=1"],
    ["validate", "@c3", "extra"],
    ["validate", "@c3", "extra", "more"],
    ["validate", "--", "@c3"],
    ["validate", "@c3", "--", "--cap"],
    ["validate", "@c3", "-"],
    ["validate", "@c3", "--zzz", "--help"],
    ["validate", "--format", "text", "--help"],
    ["validate", "--cap", "x", "--help"],
    ["validate", "--cap", "0"],
    ["validate", "@c3", "extra", "--cap", "0"],
    ["validate", "@c3", "--cap", "0", "--zzz"],
    ["validate", "@c3", "--cap", "x", "--cap", "3"],
    ["validate", "@c3", "--cap", "0", "--format", "yaml"],
    ["validate", "@c3", "--format", "yaml", "--cap", "0"],
    ["generate", "@c3", "@step", "--cap", "3"],
    ["rules", "nuclear", "@b2", "--force"],
    ["rules", "close", "@c3", "@rules", "--start=0", "--cap", "9"],
    ["rules", "close", "@c3", "@rules", "--start=0"],
    ["validate", "@c3", "--format", "text", "--format", "json"],
    ["--cap", "3", "validate", "@c3"],
    ["-x", "validate", "@c3"],
    ["--help", "validate"],
    ["rules", "--help", "close"],
    ["--", "validate", "@c3"],
    ["--"],
    ["--", "--help"],
    ["--", "--zzz"],
    ["rules", "--"],
    ["rules", "--zzz"],
    ["validate", "--help=1"],
]

USAGE_PATH = pathlib.Path(__file__).with_name("cli_usage_golden.json")


def usage_outputs(files, capsys, monkeypatch) -> dict:
    """Exit code, stdout and stderr of every usage command line, keyed
    by the command line with fixture keys in place of paths."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LATKIT_CAP", raising=False)
    # longest first: the directory is a prefix of every file path
    keys = sorted(files, key=lambda k: -len(str(files[k])))
    out = {}
    for argv in USAGE_ARGV:
        full = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
        rc, stdout, stderr = run(capsys, full)
        for k in keys:
            stdout = stdout.replace(str(files[k]), "@" + k)
            stderr = stderr.replace(str(files[k]), "@" + k)
        out[" ".join(["latkit"] + argv)] = {
            "exit": rc, "stdout": stdout, "stderr": stderr,
        }
    return out


def test_usage_errors_match_golden(files, capsys, monkeypatch):
    want = json.loads(USAGE_PATH.read_text(encoding="utf-8"))
    got = usage_outputs(files, capsys, monkeypatch)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
@pytest.mark.parametrize("command", ["generate", "nuclei", "sccore"])
def test_empty_poset_reports_in_every_format(tmp_path, capsys, command, fmt):
    # the empty poset has one map, the empty table, which is its
    # closure operator, its nucleus and its Scott core; every view of
    # it is a report or a stated refusal, never a traceback
    poset = tmp_path / "empty.json"
    poset.write_text(json.dumps({"elements": [], "le": []}))
    table = tmp_path / "nothing.json"
    table.write_text(json.dumps({"table": {}}))
    maps = [] if command == "nuclei" else [str(table)]
    rc, out, err = run(capsys, [command, str(poset), *maps, "--format", fmt])
    if fmt == "dot" and command != "nuclei":
        assert (rc, out) == (1, "")
        assert err == f"input error: '{command}' has no dot view; use --format json or text\n"
        return
    assert (rc, err) == (0, "")
    if fmt == "text":
        assert out == {
            "generate": "generated closure operator:\n\nfixpoints: {}\n",
            "nuclei": "1 nuclei\nnucleus 0: fixpoints {}\n\n",
            "sccore": "Scott-continuous core:\n\nfixpoints: {}\n",
        }[command]


def test_requests_build_no_click_context(files, capsys, monkeypatch):
    # latkit parses a request over the declared click parameters and
    # calls the command's callback; click builds a Context only for a
    # help page or an error
    import click

    real = click.Context.__init__
    made = []

    def counted(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(click.Context, "__init__", counted)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LATKIT_CAP", raising=False)
    for argv in GOLDEN_ARGV:
        full = [files[a[1:]] if a.startswith("@") else a for a in argv]
        made.clear()
        run(capsys, full + ["--format", "json"])
        assert made == [], argv
    for argv in GOLDEN_HELP:
        made.clear()
        rc, _, _ = run(capsys, argv + ["--help"])
        assert rc == 0 and len(made) >= 1, argv


def test_requests_import_no_module(files, tmp_path):
    # `import latkit.cli` loads no click, no dataclasses machinery and
    # no test fixtures, and a valid request loads nothing more: a module
    # imported per request is paid by every cold CLI process.  A help
    # page and a usage error are the requests that load click
    import subprocess

    import latkit

    child = (
        "import json, sys\n"
        "import latkit.cli\n"
        "assert 'click' not in sys.modules\n"
        "for name in ('dataclasses', 'inspect', 'ast', 'dis', 'latkit.fixtures'):\n"
        "    assert name not in sys.modules, name\n"
        "before = set(sys.modules)\n"
        "requests, help = json.loads(sys.argv[1])\n"
        "for argv in requests:\n"
        "    assert latkit.cli.main(argv) == 0, argv\n"
        "after = sorted(set(sys.modules) - before)\n"
        "assert latkit.cli.main(help) == 0\n"
        "assert latkit.cli.main(['validate', '--zzz']) == 1\n"
        "sys.stderr.write(json.dumps([after, 'click' in sys.modules]))\n"
    )
    out = str(tmp_path / "report.out")
    requests = [
        ["validate", files["b2"]],
        ["validate", files["b2"], "--format", "text", "--output", out],
        ["generate", files["c3"], files["step"]],
        ["generate", files["c3"], files["step"], "--output", out],
        ["rules", "close", files["c3"], files["rules"], "--start", "0"],
        ["tarski", files["c3"], files["step"], "-x1", "--format=text"],
        ["nuclei", files["b2"], "--format", "dot", "--output", out],
    ]
    src = str(pathlib.Path(latkit.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", child, json.dumps([requests, ["--help"]])],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == [[], True]


def test_output_into_a_missing_directory_is_one_line(files, capsys):
    out = files["dir"] / "missing" / "out.json"
    rc, stdout, err = run(capsys, ["validate", files["c3"], "--output", str(out)])
    assert (rc, stdout) == (1, "")
    assert err == f"input error: {out}: No such file or directory\n"


def test_output_directory_is_checked_before_the_work(files, monkeypatch, capsys):
    # the body of validate, planted to record its calls, never runs when
    # the --output file cannot be opened, and the message is the one
    # opening it would give
    calls = []
    cmd = cli._CLI.commands["validate"]
    real = cmd.body

    def planted(P, **kw):
        calls.append(P.n)
        return real(P, **kw)

    monkeypatch.setattr(cmd, "body", planted)
    missing = files["dir"] / "missing" / "out.json"
    through_a_file = f"{files['c3']}/out.json"
    for out, reason in (
        (missing, "No such file or directory"),
        (through_a_file, "Not a directory"),
    ):
        rc, stdout, err = run(capsys, ["validate", files["c3"], "--output", str(out)])
        assert (rc, stdout, err) == (1, "", f"input error: {out}: {reason}\n")
    assert calls == []
    assert main(["validate", files["c3"]]) == 0
    assert calls == [3]
    capsys.readouterr()


def test_failed_command_leaves_its_output_file_alone(files, monkeypatch, capsys):
    def failing(P, **kw):
        raise InputError("planted")

    monkeypatch.setattr(cli._CLI.commands["validate"], "body", failing)
    new = files["dir"] / "new.json"
    old = files["dir"] / "old.json"
    old.write_text("kept")
    for out in (new, old):
        rc, stdout, err = run(capsys, ["validate", files["c3"], "--output", str(out)])
        assert (rc, stdout, err) == (1, "", "input error: planted\n")
    assert not new.exists()
    assert old.read_text() == "kept"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_that_cannot_be_written_is_one_line(files):
    # every write to /dev/full fails with ENOSPC: the report's, and the
    # interpreter's last flush of what is left in the buffer
    import subprocess

    import latkit

    src = str(pathlib.Path(latkit.__file__).parents[1])
    with open("/dev/full", "wb") as full:
        done = subprocess.run(
            [sys.executable, "-m", "latkit.cli", "validate", files["c3"]],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60,
        )
    assert done.returncode == 1
    assert done.stderr == "input error: <stdout>: No space left on device\n"
    assert "Traceback" not in done.stderr


def test_poset_file_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"elements": []}'.encode("utf-16-le"))
    rc, stdout, err = run(capsys, ["validate", str(path)])
    assert (rc, stdout) == (1, "")
    assert err == f"parse error: {path}: not UTF-8 text: invalid start byte at offset 0\n"


def test_lone_surrogate_label_is_an_input_error(tmp_path, capsys):
    # json reads the escape "\ud800" as a lone surrogate, which no UTF-8
    # report can hold
    path = tmp_path / "surrogate.json"
    path.write_text('{"elements": ["a", "\\ud800"]}')
    rc, stdout, err = run(capsys, ["validate", str(path)])
    assert (rc, stdout) == (1, "")
    assert err == f"input error: {path}: label '\\ud800' holds a lone surrogate\n"
    gam = tmp_path / "named.json"
    gam.write_text('{"name": "\\udcff", "table": {}}')
    empty = tmp_path / "empty.json"
    empty.write_text('{"elements": []}')
    rc, stdout, err = run(capsys, ["generate", str(empty), str(gam)])
    assert (rc, stdout) == (1, "")
    assert err == f"input error: {gam}: map name '\\udcff' holds a lone surrogate\n"


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    rc, stdout, err = run(capsys, ["validate", str(path)])
    assert (rc, stdout) == (1, "")
    assert err == f"parse error: {path}: JSON nested too deeply\n"


def test_undecodable_file_name_reaches_the_report_as_its_bytes(files, tmp_path, capsysbinary):
    # the default map name is the file stem; a byte the file system
    # could not decode goes back into the report as that byte, on stdout
    # and in the --output file alike
    stem = b"\xff".decode("utf-8", "surrogateescape")
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps({"table": {"0": "2", "1": "2", "2": "2"}}))
    out = tmp_path / "report.json"
    assert main(["tarski", files["c3"], str(path)]) == 0
    assert main(["tarski", files["c3"], str(path), "--output", str(out)]) == 0
    stdout = capsysbinary.readouterr().out
    assert b'"map": "\xff",' in stdout
    assert out.read_bytes() == stdout


@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_stdout_carries_the_bytes_of_the_output_file(tmp_path, capsysbinary, fmt):
    # a label with an escape sequence is written as it is, to a pipe as
    # to a file; JSON escapes control characters itself
    path = tmp_path / "escape.json"
    path.write_text(json.dumps({"elements": ["a", "b\u001b[31mred"], "le": [["a", "b\u001b[31mred"]]}))
    out = tmp_path / "report.txt"
    assert main(["validate", str(path), "--format", fmt]) == 0
    assert main(["validate", str(path), "--format", fmt, "--output", str(out)]) == 0
    stdout = capsysbinary.readouterr().out
    assert b"b\x1b[31mred" in stdout
    assert stdout == out.read_bytes()
