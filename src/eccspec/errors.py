"""Exception types shared across the library."""


class EccspecError(Exception):
    """Base class for all library-specific errors."""


class DisconnectedGraphError(EccspecError):
    """An operation needed finite distances but the graph is disconnected."""


class PreconditionViolatedError(EccspecError):
    """The stated hypotheses of an operation do not hold for the input."""


class OrderTooLargeError(EccspecError):
    """An order exceeds a bound: graphs.MAX_ORDER vertices for a graph, or
    closed_form.MAX_CLOSED_ORDER for a closed-form spectrum."""


class InvalidSpecError(EccspecError):
    """A multipartite part list is malformed (empty, a part that is not an
    integer, or a part below 1)."""


class DisconnectedSpecError(InvalidSpecError):
    """A part list with a single class of size >= 2 describes an edgeless,
    disconnected graph."""


class NonSymmetricInputError(EccspecError):
    """The symmetric eigensolver received a non-symmetric matrix."""


class ConvergenceFailureError(EccspecError):
    """The eigensolver hit its iteration cap; signals a bug, not bad data."""


class EmptySpectrumError(EccspecError):
    """A spectral quantity was requested from an empty spectrum."""


class NotDivisibleError(PreconditionViolatedError):
    """A fibre size does not divide the graph order."""


class EdgeListFormatError(EccspecError):
    """Base class for edge-list parsing failures."""


class MalformedHeaderError(EdgeListFormatError):
    """The edge-list header or line structure is not 'n m' plus m edge lines."""


class VertexOutOfRangeError(EdgeListFormatError, ValueError):
    """An edge names a vertex outside 0..n-1."""


class SelfLoopError(EdgeListFormatError, ValueError):
    """An edge joins a vertex to itself."""


class Graph6FormatError(EccspecError):
    """Base class for graph6 parsing failures."""


class InvalidByteError(Graph6FormatError):
    """A graph6 byte falls outside the printable 63..126 window."""


class TruncatedPayloadError(Graph6FormatError):
    """The graph6 payload length does not match the declared vertex count."""
