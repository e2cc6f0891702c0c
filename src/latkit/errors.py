"""Exception types shared across the library, and the two-route contract.

Errors fall into three families, matching how the command-line layer
reports them: invalid input (exit code 1), an enumeration that would
exceed its configured cap (exit code 2), and a breach of a law the
library is built on (exit code 3, always a bug worth reporting).

Every comparison of two or more routes to one answer goes through
agree, which returns the common answer or raises TheoremBreach naming
each route's answer.  A result the library built itself is validated
inside produced, so a validating constructor that rejects it reports a
breach, not bad input.
"""


class LatkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(LatkitError):
    """Malformed data, wrong structure, or a failed precondition."""


class InvalidValue(InputError, ValueError):
    """A value constructor was given fields it cannot hold: a table,
    mask, order or rule outside its poset.  It is a ValueError too, so
    callers that catch the plain constructor error keep working."""


class DuplicateLabel(InputError):
    pass


class UnknownLabel(InputError):
    pass


class CycleDetected(InputError):
    """The supplied order assertions force x <= y <= x for distinct x, y."""


class ParseError(InputError):
    """An input file does not match the expected schema."""


class MixedPosets(InputError):
    """Operands that must share a poset belong to different ones."""


class NotAClosureSystem(InputError):
    pass


class NotPreclosure(InputError):
    """Map is not both ascending and increasing."""


class NotIncreasing(InputError):
    pass


class NotAscendingAt(InputError):
    """A specific element sits above its image, with the witness attached."""

    def __init__(self, label, message=None):
        self.label = label
        super().__init__(message or f"map does not ascend at {label!r}")


class NoLeastElement(InputError):
    """The poset has no bottom, so a start point must be given explicitly."""


class NotMeetSemilattice(InputError):
    pass


class NotAFrame(InputError):
    pass


class NotPrenucleus(InputError):
    pass


class NotPreframe(InputError):
    pass


class NotANucleus(InputError):
    pass


class NotAPreorder(InputError):
    pass


class CapExceeded(LatkitError):
    """An exhaustive enumeration was asked to run past its configured cap.

    Raised before any work is done.  Callers may retry with a larger cap;
    nothing is ever silently approximated.
    """

    def __init__(self, operation, size, cap):
        self.operation = operation
        self.size = size
        self.cap = cap
        super().__init__(
            f"{operation}: size {size} exceeds cap {cap}; "
            f"raise the cap to force the computation"
        )


class TheoremBreach(LatkitError):
    """Two routes that must agree did not, or a guaranteed law failed.

    This never indicates bad input.  It means the implementation (or the
    mathematics it encodes) is wrong, so it is reported loudly and never
    caught internally.  `routes` maps each route's name to its answer
    when routes disagreed, and is empty otherwise.
    """

    def __init__(self, message, routes=None):
        super().__init__(message)
        self.routes = dict(routes or {})


def agree(what, subject, /, **routes):
    """The answer every route gave for `what` on `subject`.

    Raises TheoremBreach when two answers differ.  Nothing is formatted
    unless they do, so the check costs one comparison per extra route.
    """
    answers = iter(routes.values())
    first = next(answers)
    for answer in answers:
        if answer != first:
            shown = ", ".join(f"{k}={v!r}" for k, v in routes.items())
            raise TheoremBreach(
                f"routes disagree on {what} of {subject!r}: {shown}", routes
            )
    return first


class produced:
    """Context for validating a result built by `route`.

    An InputError raised inside means a validating constructor rejected
    something the library built, so it becomes a TheoremBreach naming
    the route, chained to the rejection.  Validate the caller's input
    outside this context.
    """

    def __init__(self, route):
        self.route = route

    def __enter__(self):
        return self

    def __exit__(self, kind, error, tb):
        if isinstance(error, InputError):
            raise TheoremBreach(
                f"{self.route} built a result its own class rejects: {error}"
            ) from error
        return False
