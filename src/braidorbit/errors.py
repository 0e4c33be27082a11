"""Exception hierarchy shared by all modules."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(EngineError):
    pass


class PoleAtPoint(EngineError):
    pass


class UnboundSymbol(EngineError):
    pass


class ParseError(EngineError):
    pass


class ResourceLimit(EngineError):
    pass


class DimensionMismatch(EngineError):
    pass


class IndexOutOfRange(EngineError):
    pass


class SingularMatrix(EngineError):
    pass


class NotYangBaxter(EngineError):
    pass


class NotHecke(EngineError):
    pass


class NotSkewInvertible(EngineError):
    pass


class InconclusiveDepth(EngineError):
    pass


class BadDeformationParameter(EngineError):
    pass


class DegenerateProfile(EngineError):
    pass


class ShiftUnavailable(EngineError):
    pass


class RecurrenceMismatch(EngineError):
    pass


class ExceptionalProfile(EngineError):
    pass


class ProjectorAxiomFailed(EngineError):
    pass


class IdentityFailed(EngineError):
    pass
