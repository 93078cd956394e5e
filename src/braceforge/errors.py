"""Exception hierarchy shared by all braceforge modules."""

from __future__ import annotations


class BraceforgeError(Exception):
    """Base class for every error raised by this package."""


class GroupValidationError(BraceforgeError):
    """A candidate Cayley table failed one of the group axioms."""


class NotClosed(GroupValidationError):
    def __init__(self, row: int, col: int, detail: str = ""):
        self.row, self.col = row, col
        super().__init__(f"table not a Latin square at ({row},{col})"
                         + (f": {detail}" if detail else ""))


class NoIdentityAtZero(GroupValidationError):
    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(f"element 0 is not a two-sided identity (witness {witness})")


class NotAssociative(GroupValidationError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"associativity fails at ({a},{b},{c})")


class NoInverse(GroupValidationError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class GroupInvalid(BraceforgeError):
    """One of the two tables handed to the brace validator is not a group."""

    def __init__(self, which: str, cause: GroupValidationError):
        self.which = which
        self.cause = cause
        super().__init__(f"{which} table is not a group: {cause}")


class BraceAxiomFailed(BraceforgeError):
    """The two group operations do not satisfy the brace compatibility law."""

    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"a(b+c) = ab - a + ac fails at ({a},{b},{c})")


class BoundExceeded(BraceforgeError):
    def __init__(self, what: str, actual: int, limit: int):
        self.what, self.actual, self.limit = what, actual, limit
        super().__init__(f"{what} = {actual} exceeds the configured bound {limit}")


class InvalidBound(BraceforgeError):
    """BRACEFORGE_BOUND is set to something other than a positive integer."""


class InvalidDocument(BraceforgeError):
    """An input file does not hold a JSON object, its tables are not square lists of
    lists, or its declared order or size is not the int table size."""


class OutputError(BraceforgeError):
    """An output file could not be written."""


class CatalogMissing(BraceforgeError):
    def __init__(self, order: int):
        self.order = order
        super().__init__(f"no built-in group catalog for order {order}")


class NotRegular(BraceforgeError):
    """A claimed regular subgroup fails regularity or closure."""


class NotSimple(BraceforgeError):
    def __init__(self, order: int, detail: str):
        super().__init__(f"group of order {order} is not simple non-abelian: {detail}")


class NotAnIdeal(BraceforgeError):
    """The given subset is not an ideal of the ambient brace."""


class NotSoluble(BraceforgeError):
    """The operation requires a soluble brace."""


class QuotientNotAbelian(BraceforgeError):
    """The coset decomposition requires an abelian quotient brace."""


class SeriesInvalid(BraceforgeError):
    """The supplied chain is not a valid abelian ideal series."""


class Degenerate(BraceforgeError):
    """A solution's tables are empty or not m x m, or one of their rows is not a bijection."""

    def __init__(self, which: str, index: int, shape: str = ""):
        self.which, self.index = which, index
        super().__init__(f"{which}: {shape}" if shape
                         else f"{which} map at index {index} is not a bijection")


class BraidFailed(BraceforgeError):
    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"braid relation fails at ({x},{y},{z})")


class EmbeddingIncompatible(BraceforgeError):
    """The solution does not agree with the brace solution on the embedded points."""

    def __init__(self, detail: str, witness=None):
        self.witness = witness
        super().__init__(detail)


class HypothesisFailed(BraceforgeError):
    """A theorem hypothesis needed by the construction does not hold."""


class TheoremViolation(BraceforgeError):
    """A machine-checked theorem failed on concrete data.

    Firing signals a bug in this package, not a disproof.  `brace`, when
    given, is the brace the statement failed on, so the check can be re-run.
    """

    def __init__(self, statement: str, counterexample=None, brace=None):
        self.counterexample = counterexample
        self.brace = brace
        super().__init__(statement)


class InternalInvariant(BraceforgeError):
    """A property guaranteed by the underlying theory failed; implementation bug."""
