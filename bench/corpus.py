"""The library-corpus pipeline, run item by item in one process.

Posets get generate_closure and kleene_generate, tarski, clsys with
both routes, induction_check and sccore.  Frames get enumerate_nuclei,
nuc_map, least_nucleus_above, nuclear_core, nucleus_join, fitting and
is_nuclear_filter.  Each item builds its own poset, so nothing but
latkit's own caches carries from one item to the next.
"""

from __future__ import annotations

import json

import latkit


def _poset(doc: dict):
    return latkit.build_poset(doc["elements"], [tuple(p) for p in doc["le"]])


def _map(P, labels):
    return latkit.EndoMap(P, tuple(P.index(v) for v in labels))


def _labels(m) -> list:
    return [m.poset.label(v) for v in m.table]


def run_poset(item: dict, doc: dict) -> dict:
    P = _poset(doc)
    G = [_map(P, t) for t in item["pre"]]
    A = latkit.Subset.of(P, item["subset"])
    ind = latkit.induction_check(A, G, P)
    gamma = latkit.ClosureOperator(_map(P, item["gamma"]))
    return {
        "generate": _labels(latkit.generate_closure(G, P)),
        "kleene": _labels(latkit.kleene_generate(G, P)),
        "tarski": latkit.tarski(_map(P, item["inc"])),
        "clsys": list(latkit.clsys(A, method="both").labels),
        "induction": [
            ind["directed_closed"],
            ind["closed_under_generators"],
            ind["closed_under_generated"],
        ],
        "sccore": _labels(latkit.sccore(gamma)),
    }


def run_frame(item: dict, doc: dict) -> dict:
    L = _poset(doc)
    nucs = latkit.enumerate_nuclei(L)
    nu = latkit.nuc_map(L, latkit.Subset.of(L, item["subset"]))
    gamma = latkit.ClosureOperator(_map(L, item["gamma"]))
    pair = [nucs[int(r * len(nucs))] for r in item["pick"]]
    return {
        "nuclei": len(nucs),
        "nuc_map": list(nu.fix.labels),
        "least_above": list(latkit.least_nucleus_above(L, gamma).fix.labels),
        "core": list(latkit.nuclear_core(L, gamma).fix.labels),
        "join": list(latkit.nucleus_join(pair, L).fix.labels),
        "fitting": list(latkit.fitting(L, nu).fix.labels),
        "nuclear_filter": latkit.is_nuclear_filter(
            L, latkit.Subset.of(L, item["filter"])
        ),
    }


def run_item(item: dict, doc: dict) -> dict:
    return (run_frame if item["kind"] == "frame" else run_poset)(item, doc)


def load(path: str) -> tuple:
    """The corpus items and their parsed poset documents."""
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)
    docs = {}
    for item in items:
        with open(item["poset"], encoding="utf-8") as fh:
            docs[item["poset"]] = json.load(fh)
    return items, docs
