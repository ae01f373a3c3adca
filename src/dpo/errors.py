"""Exception hierarchy shared by all engine modules."""


class RewriteError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(RewriteError):
    """An operation was called with inputs that violate its contract."""


class FormatError(RewriteError):
    """A text document does not conform to one of the file schemas."""


class DanglingConditionError(RewriteError):
    """Rule application would leave edges without endpoints.

    Carries the offending edge identifiers of the host graph.
    """

    def __init__(self, edges):
        self.edges = tuple(edges)
        super().__init__(f"dangling edges: {sorted(self.edges)}")

    def __reduce__(self):
        # pickle and copy rebuild an exception from its args, which hold the
        # message; rebuild this one from its edges instead
        return type(self), (self.edges,)


class DependentDerivationsError(PreconditionError):
    """A commutation was requested for a pair that is not parallel independent."""


class InternalConsistencyError(RewriteError):
    """A property the theory guarantees failed at runtime: an engine bug."""
