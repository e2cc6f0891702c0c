"""Judges every operation's output without using latkit.

For each command the expected report is recomputed from the generated
order with the stdlib code in orders.py, using the finite collapses the
paper proves (every filter of a finite frame is principal and
Scott-open, every closure operator on a finite poset is
Scott-continuous, every subset is directed-closed), and compared with
the parsed output.  Only `convexity` is judged by consistency and
witness checks rather than recomputed.  Where a golden digest from the
commit that added the benchmark exists for the operation, the output
bytes must match it as well.
"""

from __future__ import annotations

import hashlib
import json

from orders import Order, bits


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def popcount(m: int) -> int:
    return bin(m).count("1")


class FrameFacts:
    """Meets, implication and nuclear systems of one finite frame."""

    def __init__(self, P: Order):
        self.P = P
        self.mt = P.meet_table()
        self.imp = P.implication_table(self.mt)
        self.top = P.top()
        self._nuclear = None

    def is_nuclear_system(self, m: int) -> bool:
        P, mt, imp = self.P, self.mt, self.imp
        if not m >> self.top & 1:
            return False
        for s in bits(m):
            for t in bits(m):
                if not m >> mt[s][t] & 1:
                    return False
            for a in range(P.n):
                if not m >> imp[a][s] & 1:
                    return False
        return True

    def nuclear_systems(self) -> list:
        """All nuclear systems, larger first, then by mask."""
        if self._nuclear is None:
            found = [m for m in range(self.P.full + 1) if self.is_nuclear_system(m)]
            self._nuclear = sorted(found, key=lambda m: (-popcount(m), m))
        return self._nuclear

    def least_nuclear_system(self, m: int) -> int:
        """Close under top, binary meets and implications."""
        P, mt, imp = self.P, self.mt, self.imp
        m |= 1 << self.top
        while True:
            new = m
            for s in bits(m):
                for t in bits(m):
                    new |= 1 << mt[s][t]
                for a in range(P.n):
                    new |= 1 << imp[a][s]
            if new == m:
                return m
            m = new

    def largest_nuclear_subsystem(self, c: int) -> int:
        out = 0
        for x in range(self.P.n):
            if all(c >> self.imp[a][x] & 1 for a in range(self.P.n)):
                out |= 1 << x
        return out

    def open_fix(self, a: int) -> int:
        out = 0
        for x in range(self.P.n):
            out |= 1 << self.imp[a][x]
        return out


def table_labels(P: Order, table) -> dict:
    return {P.labels[i]: P.labels[v] for i, v in enumerate(table)}


def fix_of(table) -> int:
    out = 0
    for i, v in enumerate(table):
        if i == v:
            out |= 1 << i
    return out


def map_table(P: Order, doc: dict) -> list:
    return [P.pos[doc["table"][lab]] for lab in P.labels]


def structure(P: Order, frame: bool):
    """structure_level and witness, as the finite collapses decide them."""
    if frame:
        return "frame", None
    if P.meet_table() is None:
        return None, "some pair of elements has no meet"
    for m in range(P.full + 1):
        if P.join(m) is None or P.meet(m) is None:
            return "preframe", "{" + ", ".join(P.labels_of(m)) + "} lacks a join or meet"
    return "frame", None


class Checker:
    """Expected reports for one workload's generated inputs."""

    def __init__(self, inp, goldens=None):
        self.inp = inp
        self.goldens = goldens or []
        self._frames = {}

    def frame_facts(self, path: str) -> FrameFacts:
        if path not in self._frames:
            self._frames[path] = FrameFacts(self.inp.orders[path])
        return self._frames[path]

    def map_doc(self, path: str) -> dict:
        return json.loads(self.inp.files[path])

    # -- CLI ---------------------------------------------------------------

    def check_cli(self, index: int, op: dict, rc: int, out: bytes):
        """None when the operation succeeded with the right report, else
        the reason it failed."""
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if index < len(self.goldens) and self.goldens[index] is not None:
            if digest(out) != self.goldens[index]:
                return "stdout differs from its golden digest"
        try:
            got = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        want = getattr(self, "cli_" + op["cmd"].replace("-", "_"))(op, got)
        if want is not True and got != want:
            return want if isinstance(want, str) else "report differs from the expected one"
        return None

    def cli_validate(self, op, got):
        P = self.inp.orders[op["poset"]]
        level, witness = structure(P, op["frame"])
        bot, top = P.bottom(), P.top()
        return {
            "elements": P.labels,
            "size": P.n,
            "bottom": None if bot is None else P.labels[bot],
            "top": None if top is None else P.labels[top],
            "is_meet_semilattice": P.meet_table() is not None,
            "structure_level": level,
            "structure_witness": witness,
            "covers": [[P.labels[a], P.labels[b]] for a, b in P.covers()],
        }

    def cli_heyting(self, op, got):
        F = self.frame_facts(op["poset"])
        L = F.P.labels
        return {
            "implication": {
                L[a]: {L[b]: L[F.imp[a][b]] for b in range(F.P.n)}
                for a in range(F.P.n)
            }
        }

    def _nucleus_entry(self, P, fix):
        return {
            "table": table_labels(P, P.closure_table(fix)),
            "fixpoints": P.labels_of(fix),
        }

    def cli_nuclei(self, op, got):
        F = self.frame_facts(op["poset"])
        systems = F.nuclear_systems()
        return {
            "count": len(systems),
            "nuclei": [self._nucleus_entry(F.P, m) for m in systems],
        }

    def cli_hmj(self, op, got):
        F = self.frame_facts(op["poset"])
        P = F.P
        if got.get("count") != len(got.get("pairs", ())) or got.get(
            "antiisomorphism_verified"
        ) is not True:
            return "report breaks its own invariants"
        # filters of a finite frame are the principal ones, all
        # Scott-open; each pairs with the open nucleus at its generator
        filters = sorted(range(P.n), key=lambda a: P.up[a])
        quotients = sorted(
            (F.open_fix(a) for a in range(P.n)), key=lambda m: (-popcount(m), m)
        )
        return {
            "count": P.n,
            "scott_open_filters": [P.labels_of(P.up[a]) for a in filters],
            "compact_fitted_quotients": [P.labels_of(m) for m in quotients],
            "pairs": [
                {"filter": P.labels_of(P.up[a]), "quotient": P.labels_of(F.open_fix(a))}
                for a in filters
            ],
            "antiisomorphism_verified": True,
        }

    def _gamma(self, op):
        P = self.inp.orders[op["poset"]]
        doc = self.map_doc(op["map"])
        return P, doc, map_table(P, doc)

    def cli_least_nucleus(self, op, got):
        F = self.frame_facts(op["poset"])
        P, doc, gamma = self._gamma(op)
        fix = F.largest_nuclear_subsystem(fix_of(gamma))
        return {
            "map": doc["name"],
            "closure": doc["table"],
            "least_nucleus": table_labels(P, P.closure_table(fix)),
            "fixpoints": P.labels_of(fix),
        }

    def cli_nuclear_core(self, op, got):
        F = self.frame_facts(op["poset"])
        P, doc, gamma = self._gamma(op)
        fix = F.least_nuclear_system(fix_of(gamma))
        return {
            "map": doc["name"],
            "closure": doc["table"],
            "nuclear_core": table_labels(P, P.closure_table(fix)),
            "fixpoints": P.labels_of(fix),
        }

    def cli_closure_systems(self, op, got):
        P = self.inp.orders[op["poset"]]
        systems = [m for m in range(P.full + 1) if P.is_closure_system(m)]
        return {
            "count": len(systems),
            "systems": [P.labels_of(m) for m in systems],
            "operators": [table_labels(P, P.closure_table(m)) for m in systems],
        }

    def cli_generate(self, op, got):
        P = self.inp.orders[op["poset"]]
        docs = [self.map_doc(m) for m in op["maps"]]
        fix = P.full
        for d in docs:
            fix &= fix_of(map_table(P, d))
        return {
            "generators": [d["name"] for d in docs],
            "closure": table_labels(P, P.closure_table(fix)),
            "fixpoints": P.labels_of(fix),
        }

    def cli_tarski(self, op, got):
        P, doc, f = self._gamma(op)
        fix = fix_of(f)
        return {
            "map": doc["name"],
            "start": None,
            "least_fixpoint": P.labels[P.least_of(fix & P.up[P.bottom()])],
            "fixpoints": P.labels_of(fix),
        }

    def cli_sccore(self, op, got):
        # on a finite poset every closure operator is Scott-continuous,
        # so the core is the operator itself
        P, doc, gamma = self._gamma(op)
        return {
            "map": doc["name"],
            "sccore": doc["table"],
            "fixpoints": P.labels_of(fix_of(gamma)),
        }

    def cli_rules_default(self, op, got):
        P = self.inp.orders[op["poset"]]
        rules = []
        for body in range(P.full + 1):
            lb = P.lower_bounds(body)
            for h in bits(lb):
                if P.up[h] & lb == 1 << h:
                    rules.append({"body": P.labels_of(body), "head": P.labels[h]})
        return {"count": len(rules), "rules": rules}

    def cli_rules_close(self, op, got):
        P = self.inp.orders[op["poset"]]
        pairs = {
            (P.mask_of(r["body"]), P.pos[r["head"]])
            for r in json.loads(self.inp.files[op["rules"]])
        }
        start = P.mask_of(s for s in op["start"].split(",") if s)
        closed = start
        while True:
            new = closed
            for b, h in pairs:
                if b & ~new == 0:
                    new |= 1 << h
            if new == closed:
                break
            closed = new
        heads = {}
        for b, h in pairs:
            heads[b] = heads.get(b, 0) | 1 << h
        reflexive = all(b & ~heads.get(b, 0) == 0 for b in range(P.full + 1))
        transitive = all(
            c & ~heads.get(b, 0) != 0 or heads.get(b, 0) >> d & 1
            for b in range(P.full + 1)
            for c, d in pairs
        )
        return {
            "start": P.labels_of(start),
            "closure": P.labels_of(closed),
            "reflexive": reflexive,
            "transitive": transitive,
        }

    def cli_convexity(self, op, got):
        P = self.inp.orders[op["poset"]]
        if got.get("operator") != op["operator"]:
            return "wrong operator echoed"
        ae, ae_w = got.get("anti_exchange"), got.get("anti_exchange_witness")
        cs, cs_w = got.get("closed_set_form"), got.get("closed_set_witness")
        if not (ae == cs == got.get("is_convex_geometry")) or (ae_w is None) != ae:
            return "anti-exchange verdicts disagree"
        if (cs_w is None) != cs or not isinstance(got.get("acyclic"), bool):
            return "closed-set verdict and witness disagree"
        if (got.get("funnel_witness") is None) != got.get("poset_order_is_funnel"):
            return "funnel verdict and witness disagree"
        if ae_w is not None:
            # every subset is directed-closed on a finite poset, so both
            # operators are the least-closure-system operator
            systems = [m for m in range(P.full + 1) if P.is_closure_system(m)]

            def cl(m):
                out = P.full
                for s in systems:
                    if m & ~s == 0:
                        out &= s
                return out

            base, x, y = P.mask_of(ae_w[0]), P.pos[ae_w[1]], P.pos[ae_w[2]]
            c = cl(base)
            if (
                x == y
                or c >> x & 1
                or c >> y & 1
                or not cl(base | 1 << y) >> x & 1
                or not cl(base | 1 << x) >> y & 1
            ):
                return "anti-exchange witness does not witness"
        return True

    # -- library corpus ----------------------------------------------------

    def check_corpus(self, index: int, item: dict, payload: dict):
        data = json.dumps(payload, sort_keys=True).encode()
        if index < len(self.goldens) and self.goldens[index] is not None:
            if digest(data) != self.goldens[index]:
                return "result differs from its golden digest"
        want = (self.corpus_frame if item["kind"] == "frame" else self.corpus_poset)(item)
        if payload != want:
            diff = sorted(k for k in want if payload.get(k) != want[k])
            return f"results differ from the expected ones in {diff}"
        return None

    def corpus_poset(self, item):
        P = self.inp.orders[item["poset"]]
        pre = [[P.pos[v] for v in t] for t in item["pre"]]
        gen_fix = P.full
        for t in pre:
            gen_fix &= fix_of(t)
        generated = P.closure_table(gen_fix)
        f = [P.pos[v] for v in item["inc"]]
        A = P.mask_of(item["subset"])
        # least closure system containing A
        systems = [m for m in range(P.full + 1) if P.is_closure_system(m) and A & ~m == 0]
        least = P.full
        for s in systems:
            least &= s
        closed_gen = all(A >> t[i] & 1 for t in pre for i in bits(A))
        return {
            "generate": [P.labels[v] for v in generated],
            "kleene": [P.labels[v] for v in generated],
            "tarski": P.labels[P.least_of(fix_of(f))],
            "clsys": P.labels_of(least),
            "induction": [True, closed_gen, all(A >> generated[i] & 1 for i in bits(A))],
            "sccore": list(item["gamma"]),
        }

    def corpus_frame(self, item):
        F = self.frame_facts(item["poset"])
        P = F.P
        gamma = [P.pos[v] for v in item["gamma"]]
        systems = F.nuclear_systems()
        X = P.mask_of(item["subset"])
        j = [systems[int(r * len(systems))] for r in item["pick"]]
        kernel = 0
        nu = F.least_nuclear_system(X)
        nu_table = P.closure_table(nu)
        for a in range(P.n):
            if nu_table[a] == F.top:
                kernel |= 1 << a
        fitted = P.full
        for a in bits(kernel):
            fitted &= F.open_fix(a)
        filt = item["filter"]
        fm = P.mask_of(filt)
        g = P.least_of(fm)
        return {
            "nuclei": len(systems),
            "nuc_map": P.labels_of(nu),
            "least_above": P.labels_of(F.largest_nuclear_subsystem(fix_of(gamma))),
            "core": P.labels_of(F.least_nuclear_system(fix_of(gamma))),
            "join": P.labels_of(j[0] & j[1]),
            "fitting": P.labels_of(fitted),
            "nuclear_filter": fm != 0 and g is not None and fm == P.up[g],
        }
