"""Unit tests of the benchmark's own arithmetic and guarantees.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import signal
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402
import verify  # noqa: E402


# -- percentiles -------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile(range(1, 11), 50) == 5.5
    assert stats.percentile(range(101), 90) == 90
    assert stats.percentile([0, 10], 90) == pytest.approx(9.0)
    assert stats.percentile([7], 90) == 7


def test_p90_of_a_hundred_samples_has_ten_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(91, 90) == 9


# -- scaling to the reference speed ------------------------------------------


def test_scaled_time_follows_the_reference_loop():
    # a machine running the loop twice as slow as NOMINAL halves the time
    assert speed.scaled(4.0, 2 * speed.NOMINAL, 2 * speed.NOMINAL) == pytest.approx(2.0)
    assert speed.scaled(3.0, speed.NOMINAL, 2 * speed.NOMINAL) == pytest.approx(2.0)
    assert speed.Probe().sample() > 0


def test_failed_operations_have_no_latency():
    def ops(*times):
        return {"rss_kb": 1024, "ops": [{"time": t} for t in times]}

    passes = [ops(1.0, 2.0, 9.0), ops(3.0, 1.0, 8.0), ops(2.0, 5.0, 7.0)]
    metrics, samples = run.end_to_end([0.5, 0.25, 0.75], passes, {2})
    assert samples == 2
    assert metrics["wall_s"][0] == 4.0  # median of each op over the passes
    assert metrics["setup_s"][0] == 0.5
    assert metrics["peak_rss_mb"][0] == 1.0
    # a run where every operation failed still reports its timings
    assert run.end_to_end([0.5], passes, {0, 1, 2})[1] == 3


# -- self time ---------------------------------------------------------------


def synthetic(names, spans):
    tr = trace.Tracer()
    tr.names[:] = names
    tr.spans.extend(spans)
    return tr


def test_self_time_subtracts_children_and_sums_to_root():
    # root [0, 10] > a [1, 6] > b [2, 4];  root > c [7, 9]
    tr = synthetic(
        ["bench.op", "heyting.nuc_map", "heyting.nucsys", "order.meet_table"],
        [
            [0, 0.0, 10.0, -1, 0, 0],
            [1, 1.0, 6.0, 0, 0, 0],
            [2, 2.0, 4.0, 1, 0, 0],
            [3, 7.0, 9.0, 0, 0, 0],
        ],
    )
    red = trace.reduce_op(tr)
    assert red["root_s"] == 10.0
    assert red["fn"]["bench.op"][1] == pytest.approx(3.0)
    assert red["fn"]["heyting.nuc_map"][1] == pytest.approx(3.0)
    assert red["fn"]["heyting.nucsys"][1] == pytest.approx(2.0)
    assert red["fn"]["order.meet_table"][1] == pytest.approx(2.0)
    assert sum(a[1] for a in red["fn"].values()) == pytest.approx(red["root_s"])
    # nucsys under nuc_map is the cross-check half of that route pair
    assert red["xcheck_s"] == pytest.approx(2.0)
    values = run.layer_values(trace.merge(trace.empty(), red))
    assert values["heyting.self_s"] == pytest.approx(5.0)
    assert values["heyting.calls"] == 2
    assert values["xcheck.share"] == pytest.approx(0.2)


def test_nucsys_outside_a_cross_checking_caller_is_not_xcheck():
    tr = synthetic(
        ["bench.op", "heyting.nucsys"],
        [[0, 0.0, 4.0, -1, 0, 0], [1, 1.0, 3.0, 0, 0, 0]],
    )
    assert trace.reduce_op(tr)["xcheck_s"] == 0.0


def test_a_child_outside_its_parent_is_refused():
    # [0, 2] cannot be nested in [0, 1]; its parent's self time would
    # be negative
    tr = synthetic(
        ["bench.op", "order.meet_table", "order.covers"],
        [[0, 0.0, 3.0, -1, 0, 0], [1, 0.0, 1.0, 0, 0, 0], [2, 0.0, 2.0, 1, 0, 0]],
    )
    with pytest.raises(AssertionError):
        trace.reduce_op(tr)


# -- repeat_ratio ------------------------------------------------------------


class FakePoset:
    pass


def test_repeat_ratio_counts_arguments_seen_in_the_same_operation():
    tr = trace.Tracer()

    def key_of(a, pins):
        if isinstance(a, FakePoset):
            pins.append(a)
            return ("poset", id(a))
        return a

    calls = []
    f = tr.span(tr.fid("hmj.open_nucleus"), lambda P, a: calls.append(a), repeat=True,
                key_of=key_of)
    P, Q = FakePoset(), FakePoset()

    def op():
        f(P, "a")
        f(P, "a")  # repeat
        f(Q, "a")  # another poset, equal arguments otherwise
        f(P, "b")
        f(P, "b")  # repeat

    tr.begin_op()
    tr.root(op)
    values = run.layer_values(trace.merge(trace.empty(), trace.reduce_op(tr)))
    assert values["hmj.open_nucleus.calls"] == 5
    assert values["hmj.open_nucleus.repeat_ratio"] == pytest.approx(2 / 5)
    tr.begin_op()  # a new operation forgets what it saw
    tr.root(lambda: f(P, "a"))
    assert trace.reduce_op(tr)["fn"]["hmj.open_nucleus"][4] == 0


# -- verification ------------------------------------------------------------


def expected_bytes(checker, op):
    want = getattr(checker, "cli_" + op["cmd"].replace("-", "_"))(op, {})
    return (json.dumps(want, indent=2, ensure_ascii=False) + "\n").encode()


def fake_pass(r, outputs):
    """A pass whose operations printed `outputs`; writes them where the
    run keeps each operation's stdout."""
    ops = []
    for i, (rc, out) in enumerate(outputs):
        with open(r.out_path(i), "wb") as fh:
            fh.write(out)
        ops.append({"rc": rc, "digest": verify.digest(out), "wall": 0.01,
                    "rss_kb": 1, "trace": None})
    return {"rss_kb": 1, "ops": ops}


def test_planted_wrong_output_is_counted_as_failed(tmp_path):
    # a seed with no recorded goldens: this test keeps only some operations
    r = run.Run("cli-posets", 1000, str(tmp_path))
    r.inp = gen.build("cli-posets", 1000)
    checker = verify.Checker(r.inp)
    ops = [op for op in r.inp.ops if op["cmd"] in ("validate", "generate", "tarski")][:3]
    r.inp.ops = ops
    good = [(0, expected_bytes(checker, op)) for op in ops]
    assert r.judge([fake_pass(r, good)])[:3] == (3, 0, 0)

    planted = json.loads(good[1][1])
    key = next(iter(planted))
    planted[key] = "planted"
    bad = list(good)
    bad[1] = (0, (json.dumps(planted, indent=2) + "\n").encode())
    attempted, failed, wrong, reasons = r.judge([fake_pass(r, bad)])
    assert (attempted, failed, wrong) == (3, 1, 1)
    assert 1 in reasons

    # a refusal (cap exceeded, no output) is wrong unless the operation
    # is marked as one that refuses
    refused = list(good)
    refused[2] = (2, b"")
    assert r.judge([fake_pass(r, refused)])[:3] == (3, 1, 1)
    ops[2]["refuses"] = True
    assert r.judge([fake_pass(r, refused)])[:3] == (3, 1, 0)
    ops[2]["refuses"] = False

    # a pass whose answer differs from the last pass's fails too
    assert r.judge([fake_pass(r, bad), fake_pass(r, good)])[:3] == (6, 1, 1)


def test_golden_digest_mismatch_fails(tmp_path):
    inp = gen.build("cli-posets", 0)
    op = inp.ops[0]
    out = expected_bytes(verify.Checker(inp), op)
    assert verify.Checker(inp, [verify.digest(out)]).check_cli(0, op, 0, out) is None
    reason = verify.Checker(inp, ["0" * 16]).check_cli(0, op, 0, out)
    assert "golden" in reason


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a, b = gen.build(workload, 3), gen.build(workload, 3)
    assert a.files == b.files and a.ops == b.ops
    assert gen.build(workload, 4).files != a.files
    assert len(a.ops) >= 100


# -- cold requests and tracing -----------------------------------------------


@pytest.fixture
def server(tmp_path):
    inp = gen.build("cli-frames", 0)
    indir = tmp_path / "in"
    run.write_inputs(inp, str(indir))
    from serve import Server

    srv = Server(SRC, str(indir), str(tmp_path))
    yield srv, inp
    srv.set_trace(False)


def test_parent_makes_no_traced_calls_and_requests_repeat(server, tmp_path):
    srv, inp = server
    srv.set_trace(True)
    assert srv.tracer.is_idle()
    speed.Probe().sample()  # the reference loop calls nothing of latkit
    assert srv.tracer.is_idle()
    argv = next(op["argv"] for op in inp.ops if op["cmd"] == "hmj")
    out = str(tmp_path / "out")
    first = srv.cli_op(argv, out)
    assert srv.tracer.is_idle()
    second = srv.cli_op(argv, out)
    assert srv.tracer.is_idle()
    assert first["rc"] == second["rc"] == 0
    assert first["digest"] == second["digest"]
    calls = lambda r: ({k: a[0] for k, a in r["trace"]["fn"].items()}, r["trace"]["count"])  # noqa: E731
    assert calls(first) == calls(second)
    assert first["trace"]["fn"]["hmj.hmj_correspondence"][0] == 1


def test_untraced_requests_carry_no_wrappers(server, tmp_path):
    srv, inp = server
    import latkit.heyting

    original = latkit.heyting.enumerate_nuclei
    srv.set_trace(True)
    assert latkit.heyting.enumerate_nuclei is not original
    srv.set_trace(False)
    assert latkit.heyting.enumerate_nuclei is original
    assert srv.cli_op(inp.ops[0]["argv"], str(tmp_path / "out"))["trace"] is None


def test_a_traced_child_ended_by_a_signal_has_no_trace(server, tmp_path, monkeypatch):
    srv, inp = server

    class Killed:
        @staticmethod
        def main(argv):
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(srv, "cli", Killed)
    srv.set_trace(True)
    res = srv.cli_op(inp.ops[0]["argv"], str(tmp_path / "out"))
    assert res["rc"] == -signal.SIGKILL and res["trace"] is None


def test_a_removed_name_is_reported_absent(server, monkeypatch):
    srv, _ = server
    monkeypatch.setitem(trace.TARGETS, "order", dict(trace.TARGETS["order"], gone_fn=()))
    monkeypatch.setitem(trace.TARGETS, "nomodule", {"f": ()})
    srv.set_trace(True)
    assert "order.gone_fn" in srv.tracer.absent
    assert "nomodule.f" in srv.tracer.absent
    srv.set_trace(False)
    assert run.layer_values(trace.empty())["order.meet_table.calls"] == 0
