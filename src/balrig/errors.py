"""Exception hierarchy shared by the library and the CLI.

Each error class carries the CLI exit code under which it surfaces, so the
command-line front end can map failures to distinct, documented codes.
"""


class BalrigError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(BalrigError):
    """Malformed or inconsistent input (bad JSON, invalid vertex ids, ...)."""

    exit_code = 3


class SizeCapError(BalrigError):
    """Input exceeds a documented size cap: the parameters or columns of a
    rank query, the sides or candidates of a shift, the edges, facets or
    colors of a JSON document, or the vertices of an exponential-time
    check. Raised before the capped work starts."""

    exit_code = 4


def check_cap(what: str, count: int, cap: int) -> None:
    """Refuse ``count`` of ``what`` when it is over ``cap``."""
    if count > cap:
        raise SizeCapError(f"{what} capped at {cap}; got {count}")


class TrialDisagreementError(BalrigError):
    """Independent random trials disagreed even after escalation.

    A verdict is never reported from disagreeing trials; this error carries
    the observed verdicts for diagnostics.
    """

    exit_code = 5

    def __init__(self, message, verdicts=None):
        super().__init__(message)
        self.verdicts = verdicts


class InvariantError(BalrigError):
    """A certification invariant failed: rank-nullity, a rank bound, a
    re-verified equilibrium equation, the Heawood counting bound, the face
    bookkeeping of a stellar subdivision, a generator's structural counts,
    or shifting's span, edge-count or f-vector check.

    These checks guard the exact arithmetic and stay active under
    ``python -O``; reaching one means a bug, not bad input.
    """

    exit_code = 6
