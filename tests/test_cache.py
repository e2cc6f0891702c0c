"""Derived data lives on the poset: built once, freed with it, and
still behind every cap gate."""

import gc
import sys
import weakref
from collections import Counter

import pytest

import latkit.cli
from latkit import fixtures as fx
from latkit import heyting, hmj, order
from latkit.closure import (
    ClosureOperator,
    clsys,
    closure_system_masks,
    dj,
    sccore,
    sccore_bruteforce,
)
from latkit.errors import CapExceeded
from latkit.heyting import enumerate_nuclei, validate_structure
from latkit.hmj import hmj_correspondence
from latkit.maps import EndoMap, constant_map, identity_map, is_scott_continuous
from latkit.order import Subset, derived, directed_columns, directed_subsets
from latkit.rules import default_rules


def test_no_module_level_caches():
    assert latkit.cli  # with it, every latkit module is imported
    for name, mod in list(sys.modules.items()):
        if name == "latkit" or name.startswith("latkit."):
            for attr, obj in vars(mod).items():
                assert not hasattr(obj, "cache_clear"), f"{name}.{attr}"


def test_derived_data_dies_with_the_poset():
    P = fx.b2()
    hmj_correspondence(P)
    default_rules(P)
    clsys(Subset.of(P, ["a"]), method="both")
    assert P._derived
    ref = weakref.ref(P)
    del P
    gc.collect()
    assert ref() is None


def test_derived_builds_once_per_poset():
    calls = []

    def build(Q):
        calls.append(Q)
        return object()

    P, Q = fx.b2(), fx.b2()
    assert derived(P, build) is derived(P, build)
    assert derived(Q, build) is not derived(P, build)
    assert calls == [P, Q]


def test_second_enumeration_builds_no_nucleus(monkeypatch):
    # counts the leaves of the descent handed to the batched law check,
    # which builds the nuclei
    P = fx.b2()
    first = enumerate_nuclei(P)
    inits = []
    real = heyting.trusted_operators

    def counting(cls, Q, leaves, route):
        leaves = list(leaves)
        inits.extend(leaves)
        return real(cls, Q, leaves, route)

    monkeypatch.setattr(heyting, "trusted_operators", counting)
    second = enumerate_nuclei(P)
    assert inits == []
    assert [nu.table for nu in second] == [nu.table for nu in first]
    # a fresh, equal poset builds its own nuclei
    assert len(enumerate_nuclei(fx.b2())) == len(first)
    assert len(inits) == len(first)


def test_galois_check_builds_a_filter_per_kernel_not_per_subset(monkeypatch):
    # chain(6) has 32 nuclei and 64 subsets but 6 filters: the kernel
    # table, the oneker round trips and fitting all read each distinct
    # kernel through the per-poset record of checked kernels, so the
    # filter check itself runs once per kernel
    checks = Counter()
    real = hmj._require_filter

    def counting(Q, mask):
        checks[mask] += 1
        return real(Q, mask)

    monkeypatch.setattr(hmj, "_require_filter", counting)
    P = fx.chain(6)
    assert hmj.galois_identities_check(P)["identities"]
    assert len(hmj.enumerate_filters(P)) == 6
    assert sum(checks.values()) == 6
    assert set(checks) == {F.mask for F in hmj.enumerate_filters(P)}


def test_scott_core_scan_builds_no_map_per_carried_table(monkeypatch):
    # chain(10) has 512 closure operators, all below the constant top;
    # the scan reads their carried tables, and the one it picks is built
    # trusted after the batch check
    P = fx.chain(10)
    gamma = ClosureOperator(constant_map(P, "9"))
    expected = sccore(gamma)
    inits = []
    real = EndoMap.__post_init__

    def counting(self, *args):
        inits.append(self)
        return real(self, *args)

    monkeypatch.setattr(EndoMap, "__post_init__", counting)
    assert sccore_bruteforce(gamma) == expected == gamma
    assert inits == []


@pytest.mark.parametrize(
    "call",
    [enumerate_nuclei, directed_subsets, closure_system_masks, default_rules],
    ids=lambda f: f.__name__,
)
def test_warm_cache_still_enforces_caps(call):
    P = fx.b2()
    call(P)
    with pytest.raises(CapExceeded):
        call(P, cap=P.n - 1)
    call(P, cap=P.n)


def test_directed_quantifiers_build_no_subset_list():
    # they read the bit columns; the sorted list is only built on request
    P = fx.b2()
    gamma = ClosureOperator(EndoMap(P, (0, 3, 3, 3)))
    assert validate_structure(P).level == "frame"
    assert is_scott_continuous(identity_map(P))
    assert dj(Subset.of(P, ["0", "a"])).labels == ("0", "a")
    assert sccore(gamma) == sccore_bruteforce(gamma)
    assert order._directed_columns in P._derived
    assert order._directed_subsets not in P._derived
    with pytest.raises(CapExceeded, match="^directed-subset enumeration: "):
        directed_columns(fx.chain(15))
