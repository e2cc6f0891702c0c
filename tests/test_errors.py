"""The two-route contract: agree compares routes, produced guards the
validation of results the library built itself."""

import pytest

from latkit.errors import (
    CapExceeded,
    NotPreclosure,
    TheoremBreach,
    agree,
    produced,
)


class Unprintable:
    def __repr__(self):
        raise AssertionError("the subject was formatted")


def test_agree_returns_the_common_answer():
    assert agree("answer", "subject", first=(1, 2), second=(1, 2)) == (1, 2)
    assert agree("answer", "subject", only=None) is None


def test_agree_names_every_route_on_disagreement():
    routes = {"scan": 3, "formula": 3, "table": 4}
    with pytest.raises(TheoremBreach) as info:
        agree("least member", ("x", "y"), **routes)
    breach = info.value
    assert breach.routes == routes
    assert list(breach.routes) == ["scan", "formula", "table"]
    message = str(breach)
    assert "least member" in message and "('x', 'y')" in message
    assert "scan=3" in message and "table=4" in message


def test_agree_formats_nothing_when_routes_agree():
    assert agree("answer", Unprintable(), a=1, b=1, c=1) == 1


def test_produced_turns_rejection_into_breach():
    with pytest.raises(TheoremBreach) as info:
        with produced("iteration"):
            raise NotPreclosure("not ascending")
    assert "iteration" in str(info.value)
    assert isinstance(info.value.__cause__, NotPreclosure)
    assert info.value.routes == {}


@pytest.mark.parametrize(
    "error", [CapExceeded("enumeration", 20, 14), ValueError("bad table")]
)
def test_produced_lets_other_errors_through(error):
    with pytest.raises(type(error)):
        with produced("iteration"):
            raise error


def test_produced_is_silent_without_an_error():
    with produced("iteration") as scope:
        value = 7
    assert value == 7 and scope.route == "iteration"
