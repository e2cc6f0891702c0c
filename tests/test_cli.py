"""End-to-end command tests: exit codes, formats, determinism, caps."""

import json
import pathlib
import sys

import pytest

from latkit.cli import main


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
    import latkit.cli
    import latkit.convexity

    calls = []
    real = latkit.convexity.funnel_check

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(latkit.convexity, "funnel_check", counted)
    # a direct call from the command counts as well
    monkeypatch.setattr(latkit.cli, "funnel_check", counted, raising=False)
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
    # funnel check needs the anti-exchange verdict the command computed
    import latkit.cli
    import latkit.convexity

    calls = []
    real = latkit.convexity.convexity_checks

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(latkit.convexity, "convexity_checks", counted)
    monkeypatch.setattr(latkit.cli, "convexity_checks", counted)
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
            for cap in ("SUBSET_CAP", "DIRECTED_CAP", "CONVEXITY_CAP"):
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
