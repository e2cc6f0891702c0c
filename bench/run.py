#!/usr/bin/env python3
"""latkit benchmark.

    python3 bench/run.py --workload cli-frames --seed 1 --seconds 45 --trace 0

Run from the root of a latkit checkout; the library is imported from
its `src/` directory.  The seed makes the inputs (bench/gen.py), which
go to a working directory under `.bench_work/` that is removed at exit.
The operation list runs in whole passes, one client in a closed loop:
PASSES[workload] passes, fewer only where the next would end after
--seconds (at least one).  Every output is verified (bench/verify.py).
End-to-end times are scaled to the reference speed (bench/speed.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics that BENCHMARK.json
lists.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  The lines before it repeat the metrics
for people, with the failure share and sample counts.  --record-golden writes this seed's output digests
to bench/goldens/ instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402
import verify  # noqa: E402

SETUPS = 9  # set-ups per run; setup_s is their median
# Passes per run.  Each operation's time is its median over the
# passes, so the count is fixed: a faster program must not get more
# samples.  The counts leave a third of a 45 s run spare, so that a
# slow period of the machine does not cut a pass.
PASSES = {"cli-frames": 2, "cli-posets": 8, "library-corpus": 3}
REFUSED = 2  # latkit's exit code for an exceeded enumeration cap


def import_seconds() -> float:
    """`import latkit.cli` timed in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import latkit.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, SRC],
        check=True, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


def pin_fastest_cpu(cpus):
    """Pin this process, and so every child, to the one of `cpus` that
    runs a fixed Python loop fastest right now.  On a shared virtual
    machine one vCPU can run a third slower than another for minutes at
    a time, and a run that the scheduler moves between them mixes both
    speeds.  The pin also keeps the reference samples (bench/speed.py)
    on the CPU that runs the operations they scale."""
    if not cpus:
        return None
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(5))
    best = min(speed, key=speed.get)
    os.sched_setaffinity(0, {best})
    return best


def _spin() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return time.perf_counter() - t0


def write_inputs(inp, directory: str):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for rel, data in inp.files.items():
        with open(os.path.join(directory, rel), "wb") as fh:
            fh.write(data)


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, work: str):
        # the CPUs the run may use, before pin_fastest_cpu narrows them
        self.cpus = (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        )
        self.workload = workload
        self.seed = seed
        self.work = work
        self.indir = os.path.join(work, "in")
        self.outdir = os.path.join(work, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.server = None
        self.inp = None
        self.probe = speed.Probe()

    # -- set-up --------------------------------------------------------

    def setup_once(self) -> float:
        """One set-up, its time scaled to the reference speed."""
        before = self.probe.sample()
        t0 = time.perf_counter()
        self.inp = gen.build(self.workload, self.seed)
        write_inputs(self.inp, self.indir)
        t_gen = time.perf_counter() - t0
        t_import = import_seconds()
        if self.server is None:
            from serve import Server

            self.server = Server(SRC, self.indir, self.work)
        t0 = time.perf_counter()
        self.warm_up()
        took = t_gen + t_import + (time.perf_counter() - t0)
        return speed.scaled(took, before, self.probe.sample())

    def warm_up(self):
        if self.workload == "library-corpus":
            # the first poset item: the first item of the shuffled list
            # can be a 12-element frame, whose cost would depend on the seed
            first = next(i for i, it in enumerate(self.inp.ops) if it["kind"] == "poset")
            self.server.corpus_pass("corpus.json", self.probe, only=first)
        else:
            self.server.cli_op(self.inp.ops[0]["argv"], self.out_path(0))

    def out_path(self, i: int) -> str:
        """Where operation i writes its stdout; each pass overwrites it."""
        return os.path.join(self.outdir, str(i))

    def output(self, i: int) -> bytes:
        with open(self.out_path(i), "rb") as fh:
            return fh.read()

    # -- passes --------------------------------------------------------

    def run_pass(self) -> dict:
        """Every operation once; each op's "time" is its wall time scaled
        by the reference samples taken right before and after it."""
        if self.workload == "library-corpus":
            res = self.server.corpus_pass("corpus.json", self.probe)
            items = res["items"]
            if res["rc"] != 0:  # every item fails
                print(f"corpus process exited {res['rc']}: {self.server.stderr_tail()}")
                n = len(self.inp.ops)
                error = {"error": f"corpus process exited {res['rc']}"}
                items = [(res["wall"] / n, res["wall"] / n, error, None)] * n
            ops = [
                {"wall": dt, "time": st, "payload": payload, "trace": red}
                for dt, st, payload, red in items
            ]
            rss = res["rss_kb"]
        else:
            ops = []
            before = self.probe.sample()
            for i, op in enumerate(self.inp.ops):
                res = self.server.cli_op(op["argv"], self.out_path(i))
                after = self.probe.sample()
                res["time"] = speed.scaled(res["wall"], before, after)
                ops.append(res)
                before = after
            rss = max(o["rss_kb"] for o in ops)
        return {"ops": ops, "rss_kb": rss}

    def measure(self, seconds: float, traced: bool) -> tuple:
        """PASSES[workload] passes, stopping early only where the next
        would end after `seconds`; traced runs alternate an untraced and
        a traced pass."""
        plain, spanned = [], []
        t0 = time.perf_counter()
        while len(plain) < PASSES[self.workload]:
            # the fastest CPU changes over a run; each pass takes the
            # one that is fastest as it starts
            pin_fastest_cpu(self.cpus)
            self.server.set_trace(False)
            plain.append(self.run_pass())
            if traced:
                self.server.set_trace(True)
                if not self.server.tracer.is_idle():
                    raise RuntimeError("the forking parent made traced calls")
                spanned.append(self.run_pass())
                if not self.server.tracer.is_idle():
                    raise RuntimeError("the forking parent made traced calls")
                self.server.set_trace(False)
            elapsed = time.perf_counter() - t0
            per_round = elapsed / len(plain)
            if elapsed + per_round > seconds:
                break
        return plain, spanned

    # -- verification --------------------------------------------------

    def goldens(self) -> list:
        path = os.path.join(GOLDENS, f"{self.workload}.json")
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get(str(self.seed), [])

    def judge(self, passes: list) -> tuple:
        """(attempted, failed, wrong, reasons).

        Each operation's output, as the last pass left it, is checked in
        full, and every pass must have produced the same exit code and
        output.  `wrong` counts failures that are not expected
        refusals: an operation marked `refuses` (the one that latkit
        refused when the benchmark was added) that exits with the
        cap-exceeded code and prints nothing refused rather than
        answered wrongly.  Any other refusal is wrong."""
        checker = verify.Checker(self.inp, self.goldens())
        corpus = self.workload == "library-corpus"
        verdicts = []
        reasons = {}
        for i, (op, res) in enumerate(zip(self.inp.ops, passes[-1]["ops"])):
            if corpus:
                why = checker.check_corpus(i, op, res["payload"])
                refused = False
            else:
                out = self.output(i)
                why = checker.check_cli(i, op, res["rc"], out)
                refused = op.get("refuses", False) and res["rc"] == REFUSED and not out
            verdicts.append((self.result_key(res), why, refused))
            if why:
                reasons[i] = why
        attempted = failed = wrong = 0
        for p in passes:
            for i, res in enumerate(p["ops"]):
                key, why, refused = verdicts[i]
                attempted += 1
                same = self.result_key(res) == key
                if why or not same:
                    failed += 1
                    if not (refused and same):
                        wrong += 1
                    reasons.setdefault(i, "output changed between passes")
        return attempted, failed, wrong, reasons

    def result_key(self, res: dict):
        if self.workload == "library-corpus":
            return verify.digest(json.dumps(res["payload"], sort_keys=True).encode())
        return res["rc"], res["digest"]

    def record_goldens(self, passes: list):
        """Digest of every operation that passes verification."""
        checker = verify.Checker(self.inp)
        digests = []
        for i, (op, res) in enumerate(zip(self.inp.ops, passes[-1]["ops"])):
            if self.workload == "library-corpus":
                ok = checker.check_corpus(i, op, res["payload"]) is None
                digest = self.result_key(res)
            else:
                ok = checker.check_cli(i, op, res["rc"], self.output(i)) is None
                digest = res["digest"]
            digests.append(digest if ok else None)
        path = os.path.join(GOLDENS, f"{self.workload}.json")
        table = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                table = json.load(fh)
        table[str(self.seed)] = digests
        os.makedirs(GOLDENS, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")
        return digests


# ---------------------------------------------------------------------------
# metrics


def op_times(passes: list, key: str = "time") -> list:
    """Each operation's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*([o[key] for o in p["ops"]] for p in passes))]


def end_to_end(setups: list, passes: list, failed_ops) -> tuple:
    """The end-to-end metrics and the number of operation samples.

    Times are scaled to the reference speed (bench/speed.py), and the
    scaling errs both ways, so an operation's time is its median over
    the run's passes.  An operation that failed in any pass has no
    latency, only a failure: the timings cover the others, and wall_s
    is the sum of their times."""
    times = [t for i, t in enumerate(op_times(passes)) if i not in failed_ops]
    # when every operation failed, time them all, so that the result
    # line still reports the run, with correct false
    times = times or op_times(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "op_p50_s": (stats.percentile(times, 50), "s"),
        "op_p90_s": (stats.percentile(times, 90), "s"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024.0, "MB"),
    }
    return metrics, len(times)


def per_layer(plain: list, spanned: list) -> dict:
    """Per-pass totals of the traced passes, as medians over passes."""
    per_pass = []
    for p in spanned:
        total = trace.empty()
        for o in p["ops"]:
            if o["trace"] is not None:
                trace.merge(total, o["trace"])
        per_pass.append(layer_values(total))
    out = {}
    for name, unit in per_layer_units().items():
        out[name] = (statistics.median(v[name] for v in per_pass), unit)
    wall_plain = sum(op_times(plain))
    wall_traced = sum(op_times(spanned))
    out["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    return out


def per_layer_units() -> dict:
    """The per-layer metrics that BENCHMARK.json lists, with their units,
    except trace.overhead_frac, which compares whole passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer"]
    return {m["name"]: m["unit"] for m in listed if m["name"] != "trace.overhead_frac"}


def layer_values(total: dict) -> dict:
    """The per-layer metrics of per_layer_units from reduced spans."""
    fn, count = total["fn"], total["count"]

    def field(name, k):
        return fn.get(name, (0, 0.0, 0.0, 0, 0))[k]

    out = {}
    for name in per_layer_units():
        base, stat = name.rsplit(".", 1)
        if base in trace.LAYERS:
            k = 0 if stat == "calls" else 1
            out[name] = sum(a[k] for f, a in fn.items() if f.startswith(base + "."))
        elif base == "xcheck":
            x = total["xcheck_s"]
            out[name] = x if stat == "self_s" else (x / total["root_s"] if total["root_s"] else 0.0)
        elif stat == "init_calls":
            init = base + ".init"
            out[name] = count[init] if init in count else field(init, 0)
        elif stat == "init_s":
            out[name] = field(base + ".init", 2)
        elif stat == "calls":
            out[name] = count[base] if base in count else field(base, 0)
        elif stat == "self_s":
            out[name] = field(base, 1)
        elif stat == "items":
            out[name] = field(base, 3)
        elif stat == "repeat_ratio":
            calls = field(base, 0)
            out[name] = field(base, 4) / calls if calls else 0.0
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latkit", "cli.py")):
        print(f"error: no latkit sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        run = Run(args.workload, args.seed, work)
        pin_fastest_cpu(run.cpus)
        # the seed-independent shapes are searched once, before the
        # timed set-ups, which then find them in gen's caches
        gen.build(args.workload, args.seed)
        setups = [run.setup_once() for _ in range(1 if args.record_golden else SETUPS)]
        if args.record_golden:
            digests = run.record_goldens([run.run_pass()])
            print(f"recorded {sum(d is not None for d in digests)}/{len(digests)} goldens")
            return 0
        plain, spanned = run.measure(args.seconds, bool(args.trace))
        attempted, failed, wrong, reasons = run.judge(plain + spanned)
        for i, why in sorted(reasons.items()):
            label = " ".join(run.inp.ops[i].get("argv", [run.inp.ops[i].get("poset", "")]))
            print(f"failed op {i} ({label}): {why}")
        if args.trace:
            metrics = per_layer(plain, spanned)
            absent = sorted(set(run.server.absent))
            if absent:
                print("absent (reported as 0): " + ", ".join(absent))
        else:
            metrics, samples = end_to_end(setups, plain, reasons)
            print(f"workload {args.workload} seed {args.seed}: {len(plain)} of "
                  f"{PASSES[args.workload]} passes of {len(run.inp.ops)} operations; "
                  f"op_p50_s and op_p90_s from {samples} samples (the operations that "
                  f"did not fail), each the median of {len(plain)} passes, "
                  f"{stats.samples_beyond(samples, 90)} beyond p90")
            unscaled = sum(t for i, t in enumerate(op_times(plain, "wall"))
                           if i not in reasons)
            print(f"times scaled to the reference speed (bench/speed.py); "
                  f"wall_s unscaled {unscaled:.4g} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:.6g} {unit}")
        print(f"  {'failed_frac':44s} {failed / attempted:.6g} "
              f"({failed} of {attempted} attempted)")
        result = {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
