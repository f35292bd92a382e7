"""Exception types shared across the package."""


class LeavittError(Exception):
    """Base class for errors raised by this package."""


class UnknownVertexError(LeavittError):
    """A vertex identifier is not part of the graph it was used with."""


class GraphMismatchError(LeavittError):
    """Two values built over different graphs were combined."""


class LatticeTooLargeError(LeavittError):
    """The vertex count exceeds the exhaustive-enumeration cutoff."""


class GraphDocumentError(LeavittError):
    """A graph document failed to parse or validate."""


class OracleUnsupportedError(LeavittError):
    """The matrix oracle does not cover this graph (it has a cycle)."""


class OracleDimensionError(LeavittError):
    """The oracle dimension exceeds the configured cap."""


class InvalidArgumentError(LeavittError, ValueError):
    """A caller-supplied parameter is refused: a negative bound or a bad prime."""
