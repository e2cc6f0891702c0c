"""Filters, open nuclei, fitting, and the filter/quotient correspondence."""

import random

import pytest

from corpus import random_frame
from latkit import (
    FilterSet,
    InputError,
    Subset,
    enumerate_filters,
    enumerate_nuclei,
    filters_report,
    fitting,
    galois_identities_check,
    hmj_correspondence,
    is_compact_quotient,
    is_filter,
    is_fitted,
    is_nuclear_filter,
    is_scott_open,
    nucfilt,
    oneker,
    open_nucleus,
    pointwise_leq,
    quotient_frame_check,
)
from latkit import fixtures as fx
from latkit.hmj import modus_ponens_check, scott_open_filter_is_nuclear_check


def test_filters_on_b2():
    P = fx.b2()
    fams = enumerate_filters(P)
    assert [F.labels for F in fams] == [
        ("1",),
        ("a", "1"),
        ("b", "1"),
        ("0", "a", "b", "1"),
    ]
    assert not is_filter(P, Subset.of(P, ["a", "b", "1"]))  # missing the meet


def test_filter_counts_on_fixtures():
    assert len(enumerate_filters(fx.point())) == 1
    assert len(enumerate_filters(fx.c3())) == 3
    assert len(enumerate_filters(fx.b2())) == 4


def test_filterset_rejects_non_filters():
    P = fx.b2()
    with pytest.raises(InputError):
        FilterSet(Subset.of(P, ["a", "b"]))


def test_open_nucleus_rows():
    P = fx.b2()
    a = open_nucleus(P, "a")
    assert a.op.map.as_labels() == {"0": "b", "a": "1", "b": "b", "1": "1"}
    top = open_nucleus(P, "1")
    assert top.table == tuple(range(P.n))  # the top's open nucleus is identity
    bot = open_nucleus(P, "0")
    assert bot.fix.labels == ("1",)


def test_oneker_and_modus_ponens():
    P = fx.b2()
    for nu in enumerate_nuclei(P):
        F = oneker(nu)
        assert is_filter(P, F.subset)
        assert modus_ponens_check(P, F)


def test_fitting_is_greatest_fitted_below():
    P = fx.b2()
    nucs = enumerate_nuclei(P)
    for nu in nucs:
        fit = fitting(P, nu)
        assert is_fitted(P, fit)
        assert pointwise_leq(fit.op.map, nu.op.map)
        for other in nucs:
            if is_fitted(P, other) and other.leq(nu):
                assert other.leq(fit)


def test_unfitted_nucleus_on_c3():
    # Fix {1, 2} on the 3-chain: a nucleus, but no join of open nuclei
    P = fx.c3()
    nucs = enumerate_nuclei(P)
    assert len(nucs) == 4
    mid = next(nu for nu in nucs if nu.fix.labels == ("1", "2"))
    assert not is_fitted(P, mid)
    assert fitting(P, mid).table == tuple(range(P.n))


def test_scott_open_collapses_to_filter():
    rng = random.Random(51)
    for _ in range(20):
        L = random_frame(rng)
        for F in enumerate_filters(L):
            assert is_scott_open(L, F.subset)
            assert is_nuclear_filter(L, F.subset)
            rep = filters_report(L, F.subset)
            assert rep["is_filter"] and rep["is_scott_open"]
            assert rep["is_nuclear_filter"] and rep["modus_ponens"]


def test_nucfilt_round_trip():
    P = fx.b2()
    for F in enumerate_filters(P):
        G = nucfilt(P, F.subset)
        assert G.mask == F.mask  # already a nuclear filter, so a fixpoint


def test_galois_identities_on_fixtures():
    for L in (fx.point(), fx.c2(), fx.c3(), fx.b2(), fx.chain(4)):
        rep = galois_identities_check(L)
        assert all(rep.values()), rep


def test_quotient_frame_checks():
    for L in (fx.b2(), fx.c3()):
        for nu in enumerate_nuclei(L):
            rep = quotient_frame_check(L, nu)
            assert all(rep.values()), rep
            assert is_compact_quotient(L, nu)  # finite quotients are compact


def test_scott_open_filters_are_nuclear():
    for L in (fx.c3(), fx.b2()):
        assert scott_open_filter_is_nuclear_check(L)


def test_hmj_counts_on_fixtures():
    assert hmj_correspondence(fx.point())["count"] == 1
    assert hmj_correspondence(fx.c3())["count"] == 3
    assert hmj_correspondence(fx.b2())["count"] == 4


def test_hmj_pairs_reverse_order_on_b2():
    rep = hmj_correspondence(fx.b2())
    assert rep["antiisomorphism_verified"]
    by_filter = {F.labels: nu.fix.labels for F, nu in rep["pairs"]}
    assert by_filter[("1",)] == ("0", "a", "b", "1")
    assert by_filter[("a", "1")] == ("b", "1")
    assert by_filter[("b", "1")] == ("a", "1")
    assert by_filter[("0", "a", "b", "1")] == ("1",)


def test_hmj_on_random_frames():
    rng = random.Random(52)
    for _ in range(20):
        L = random_frame(rng)
        rep = hmj_correspondence(L)
        assert rep["antiisomorphism_verified"]
        assert rep["count"] == len(rep["scott_open_filters"])


def test_oneker_needs_a_top():
    nu = enumerate_nuclei(fx.topfree())[0]
    with pytest.raises(InputError, match="needs a top element"):
        oneker(nu)


def test_a_set_that_is_no_upper_set_is_not_scott_open():
    P = fx.b2()
    assert not is_scott_open(P, Subset.of(P, ["a"]))
    assert is_scott_open(P, Subset.of(P, ["a", "1"]))
