"""Exception hierarchy shared by all engine modules. An error is built from
a failed clause and its item, ``()`` for a clause alone, and carries them as
its ``report``, a :class:`~dpo.graph.CheckReport`, whose text is its message,
with a lone surrogate, which a JSON ``"\\ud800"`` escape puts in a path or a
label, written as the six characters ``\\ud800`` so that the message can be
written to any UTF-8 stream."""

from .graph import failure


class RewriteError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, clause: str, item: tuple = ()):
        self.report = failure(clause, item)
        super().__init__(str(self.report).encode("utf-8", "backslashreplace").decode("utf-8"))

    def __reduce__(self):
        # pickle and copy rebuild an exception from its args, which hold the
        # message; rebuild this one from its report's clause and item instead
        return type(self), (self.report.failed_clause, self.report.counterexample)


class PreconditionError(RewriteError):
    """An operation was called with inputs that violate its contract."""


class FormatError(RewriteError):
    """A text document does not conform to one of the file schemas."""


class DanglingConditionError(RewriteError):
    """Rule application would leave edges without endpoints: the report's
    item is the offending edge identifiers of the host graph."""

    @property
    def edges(self) -> tuple[int, ...]:
        return self.report.counterexample


class DependentDerivationsError(PreconditionError):
    """A commutation was requested for a pair that is not parallel independent."""


class InternalConsistencyError(RewriteError):
    """A property the theory guarantees failed at runtime: an engine bug."""
