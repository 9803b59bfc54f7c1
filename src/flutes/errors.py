"""Exception hierarchy shared across the engine."""


class FlutesError(Exception):
    """Base class for every error raised by this package."""


class TaxonomyError(FlutesError):
    pass


class LatticeCycleError(TaxonomyError):
    pass


class TermError(FlutesError):
    pass


class MalformedRecordError(TermError):
    pass


class ArityError(TermError):
    pass


class ParseError(FlutesError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class TypeCheckError(FlutesError):
    pass


class CoercionDomainError(TypeCheckError):
    pass


class StoreError(FlutesError):
    pass


class DuplicateNameError(StoreError):
    pass


class AliasCycleError(StoreError):
    pass


class StoreCorruptionError(StoreError):
    pass


class ClassifierError(FlutesError):
    pass


class UnsupportedPropError(ClassifierError):
    """Raised for proposition shapes the clause compiler does not handle."""


class EvalError(FlutesError):
    pass


class UnboundAliasError(EvalError):
    """Not yet: a verdict needs an alias that is not stored or not typed."""


class RuleFailure(FlutesError):
    """A grammar rule failed on one member (evaluation error or failed subsumption)."""
