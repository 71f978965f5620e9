"""Exception types shared across the package."""


class ParcayError(Exception):
    """Base class for all library errors."""


class UnknownGenerator(ParcayError):
    pass


class UnknownClass(ParcayError):
    pass


class WordSyntaxError(ParcayError):
    """Malformed word literal.  Carries a character position."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")
        self.pos = pos


class DslSyntaxError(ParcayError):
    """Malformed presentation text.  Carries line/column coordinates."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class GraphSyntaxError(DslSyntaxError):
    """Malformed graph text.  Carries the line number."""


class SemanticError(ParcayError):
    """Structurally valid text that does not describe a valid presentation."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class EmptyS2(ParcayError):
    pass


class NotCayleyLike(ParcayError):
    pass


class Disconnected(ParcayError):
    pass


class SearchBoundExceeded(ParcayError):
    pass


class Overflow(ParcayError):
    def __init__(self, max_rows):
        super().__init__(f"coset table exceeded {max_rows} rows without closing")
        self.max_rows = max_rows


class OddDegree(ParcayError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex} has odd degree")
        self.vertex = vertex


class NotRegular(ParcayError):
    pass


class NotEvenRegular(ParcayError):
    pass


class NoPerfectMatching(ParcayError):
    pass


class NotPartitionFriendly(ParcayError):
    pass


class BadParameters(ParcayError):
    pass


class LoopsUnsupported(ParcayError):
    pass


class NotSymmetric(ParcayError):
    pass


class InvolutionInR(ParcayError):
    pass


class SizeMismatch(ParcayError):
    pass


class InfiniteCayleyGraph(ParcayError):
    pass


class NoTransitiveSupply(ParcayError):
    pass
