"""Exception hierarchy for the workbench.

Mathematical verdicts (a bracket failing to be a Lie bracket, a PBW check
failing) are *results*, not exceptions.  Exceptions are reserved for bad
input, budget violations and broken internal invariants.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class DivisionByZero(WorkbenchError, ZeroDivisionError):
    pass


class FieldMismatch(WorkbenchError):
    """Operands belong to different cyclotomic fields."""


class RootOrderMismatch(WorkbenchError):
    """A requested root of unity does not exist in the configured field."""


class BadParams(WorkbenchError):
    pass


class YBENotSatisfied(WorkbenchError):
    """The candidate braiding fails the Yang-Baxter equation.

    Carries a witness basis triple (i, j, k) on which c1 c2 c1 != c2 c1 c2.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__("Yang-Baxter equation fails on basis triple %r" % (witness,))


class SingularBraiding(WorkbenchError):
    pass


class DegreeMismatch(WorkbenchError):
    pass


class DegreeBudgetExceeded(WorkbenchError):
    def __init__(self, requested, budget):
        self.requested = requested
        self.budget = budget
        super().__init__(
            "degree %d exceeds the configured budget %d" % (requested, budget)
        )


class NotACoideal(WorkbenchError):
    """User-supplied generators do not present a bialgebra quotient."""

    def __init__(self, degree, witness):
        self.degree = degree
        self.witness = witness
        super().__init__("coideal property fails in degree %d" % degree)


class NotABracket(WorkbenchError):
    def __init__(self, degree, witness, message=""):
        self.degree = degree
        self.witness = witness
        super().__init__(
            "bracket compatibility fails in degree %d%s"
            % (degree, (": " + message) if message else "")
        )


class DomainMismatch(WorkbenchError):
    """A bracket column is not an element of the primitive space it claims."""


class NotInZetaSpace(WorkbenchError):
    pass


class IrregularMark(WorkbenchError):
    pass


class ParseError(WorkbenchError):
    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__("line %d: %s" % (line, message))


class ValidationError(WorkbenchError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else "line %d: %s" % (line, message))


class InternalCheckError(WorkbenchError):
    """A theorem-guaranteed invariant failed; this is a bug, not bad input."""
