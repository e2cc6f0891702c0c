"""Property tests over generated inputs.

Every finite meet-semilattice is isomorphic to a family of sets closed
under intersection (send x to its principal down-set), so the
generator draws a few sets, closes them under intersection and orders
the family by inclusion, listing its members in a drawn order.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latkit.order import build_poset  # noqa: E402
from test_enumerations import nucleus_tables, reference_nuclei  # noqa: E402


def _close_under_meets(family):
    family = set(family)
    while True:
        grown = family | {a & b for a in family for b in family}
        if grown == family:
            return family
        family = grown


@st.composite
def meet_semilattices(draw, max_n=8):
    gens = draw(st.lists(st.integers(0, 31), min_size=1, max_size=6))
    family = set()
    for g in gens:
        grown = _close_under_meets(family | {g})
        if len(grown) > max_n:
            break
        family = grown
    masks = draw(st.permutations(sorted(family)))
    labels = [f"s{m}" for m in masks]
    pairs = [
        (labels[i], labels[j])
        for i, a in enumerate(masks)
        for j, b in enumerate(masks)
        if i != j and a & ~b == 0
    ]
    return build_poset(labels, pairs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(meet_semilattices())
def test_nuclei_descent_matches_closure_system_filter(P):
    assert nucleus_tables(P) == reference_nuclei(P)
