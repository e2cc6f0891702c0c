"""Serves operations cold from a forking parent.

The parent imports latkit.cli and computes nothing with it.  Each CLI
operation runs `latkit.cli.main(argv)` in a child forked for it, with
stdout captured to a file, so no cache carries from one request to the
next.  A library-corpus pass runs every item in one child, which plays
the long-lived process.  Traced children reduce their spans per
operation and hand the sums to the parent through a file when they
exit.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import signal
import sys
import time
import traceback

import speed
import trace

HARNESS_ERROR = 70  # exit code of a child whose harness code raised
# A child still running after this many seconds is ended by SIGALRM and
# counts as failed, so that a run always ends in bounded time.
CLI_TIMEOUT = 60
CORPUS_TIMEOUT = 120


class Server:
    def __init__(self, src: str, inputs: str, workdir: str):
        if src not in sys.path:
            sys.path.insert(0, src)
        import latkit.cli

        self.cli = latkit.cli
        self.inputs = inputs
        self.out = os.path.join(workdir, "stdout")
        self.err = os.path.join(workdir, "stderr")
        self.result = os.path.join(workdir, "result")
        self.tracer = None
        self.absent = []

    def set_trace(self, on: bool):
        """Install or remove the span wrappers in this (parent) process.
        The wrappers are inherited by children forked afterwards."""
        if on and self.tracer is None:
            self.tracer = trace.install()
        elif not on and self.tracer is not None:
            self.absent = self.tracer.absent
            self.tracer.uninstall()
            self.tracer = None

    def _fork(self, child, timeout: int, out_path: str):
        """Run child() in a forked process; returns (exit code, wall
        seconds, peak RSS in KiB).  The exit code is negative when a
        signal ended the child."""
        sys.stdout.flush()
        sys.stderr.flush()
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = HARNESS_ERROR
            try:
                signal.alarm(timeout)
                os.chdir(self.inputs)
                for fd, path in ((1, out_path), (2, self.err)):
                    f = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(f, fd)
                    os.close(f)
                code = child()
                sys.stdout.flush()
                sys.stderr.flush()
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                code = HARNESS_ERROR
            finally:
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss

    def _write_result(self, obj):
        with open(self.result, "wb") as fh:
            marshal.dump(obj, fh)

    def _read_result(self):
        with open(self.result, "rb") as fh:
            return marshal.load(fh)

    def cli_op(self, argv: list, out_path: str) -> dict:
        """One CLI request, its stdout written to out_path: exit code,
        wall time, stdout digest, peak RSS and, when tracing, the
        reduced spans.  Only the digest stays in this process, so the
        parent's memory, which every child inherits, does not grow with
        the outputs."""
        tr = self.tracer
        if os.path.exists(self.result):
            os.remove(self.result)

        def child():
            if tr is None:
                return self.cli.main(argv)
            tr.begin_op()
            code = tr.root(lambda: self.cli.main(argv))
            self._write_result(trace.reduce_op(tr))
            return code

        code, wall, rss = self._fork(child, CLI_TIMEOUT, out_path)
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        # a child that a signal ended, or whose harness code raised,
        # wrote no result; its operation counts as failed
        reduced = None
        if tr is not None and code >= 0 and os.path.exists(self.result):
            reduced = self._read_result()
        return {"rc": code, "wall": wall, "digest": digest, "rss_kb": rss,
                "trace": reduced}

    def corpus_pass(self, corpus_file: str, probe, only=None) -> dict:
        """One long-lived process runs the corpus items in order (only
        item `only`, if given).  Each item's result holds its wall time
        and that time scaled by `probe` samples taken right before and
        after it (bench/speed.py)."""
        import corpus

        tr = self.tracer

        def child():
            items, docs = corpus.load(corpus_file)
            if only is not None:
                items = [items[only]]
            results = []
            clock = time.perf_counter
            before = probe.sample()
            for item in items:
                doc = docs[item["poset"]]
                if tr is not None:
                    tr.begin_op()
                t0 = clock()
                try:
                    if tr is None:
                        payload = corpus.run_item(item, doc)
                    else:
                        payload = tr.root(corpus.run_item, item, doc)
                except Exception as e:  # recorded as the item's failure
                    payload = {"error": f"{type(e).__name__}: {e}"}
                dt = clock() - t0
                reduced = trace.reduce_op(tr) if tr is not None else None
                after = probe.sample()
                results.append((dt, speed.scaled(dt, before, after), payload, reduced))
                before = after
            self._write_result(results)
            return 0

        code, wall, rss = self._fork(child, CORPUS_TIMEOUT, self.out)
        results = self._read_result() if code == 0 else []
        return {"rc": code, "wall": wall, "rss_kb": rss, "items": results}

    def stderr_tail(self) -> str:
        with open(self.err, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-2000:]
