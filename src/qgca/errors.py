"""Exception hierarchy, grouped by the CLI exit code each class maps to.

Exit codes: 1 = an analysis found a failure or falsification, 2 = bad input
(file or argument), 3 = a resource bound was exceeded.
"""


class QgcaError(Exception):
    """Base class for all library errors."""


class InputError(QgcaError):
    """Malformed input: files, words, names, parameters (exit code 2)."""


class BoundError(QgcaError):
    """A configured enumeration or size bound was exceeded (exit code 3)."""


class AnalysisError(QgcaError):
    """An analysis detected a structural failure in its input (exit code 1)."""


# ---------------------------------------------------------------------------
# input errors

class ParseError(InputError):
    pass


class UnknownName(InputError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown builtin name {name!r}")


class BadParams(InputError):
    pass


class WordTooShort(InputError):
    def __init__(self, length, minimum):
        self.length = length
        self.minimum = minimum
        super().__init__(f"word of length {length} given, need at least {minimum}")


class AlphabetMismatch(InputError):
    def __init__(self, symbol, alphabet_size):
        self.symbol = symbol
        self.alphabet_size = alphabet_size
        super().__init__(
            f"symbol {symbol} outside alphabet of size {alphabet_size}")


class AlphabetSizeMismatch(AlphabetMismatch):
    """Two objects that must share an alphabet have different sizes."""

    def __init__(self, what, size, other, other_size):
        self.sizes = (size, other_size)
        InputError.__init__(
            self, f"{what} of size {size} does not match {other} of size "
                  f"{other_size}")


# ---------------------------------------------------------------------------
# bound errors

class OrderTooLarge(BoundError):
    def __init__(self, order, bound):
        self.order = order
        self.bound = bound
        super().__init__(f"order {order} exceeds enumeration bound {bound}")


class DepthTooLarge(BoundError):
    def __init__(self, alphabet_size, depth, bound):
        self.alphabet_size = alphabet_size
        self.depth = depth
        self.bound = bound
        super().__init__(
            f"{alphabet_size}^{depth} cylinder words exceed bound {bound}")


class PeriodTooLarge(BoundError):
    def __init__(self, alphabet_size, period, bound):
        self.alphabet_size = alphabet_size
        self.period = period
        self.bound = bound
        super().__init__(
            f"{alphabet_size}^{period} periodic states exceed bound {bound}")


class TableTooLarge(BoundError):
    def __init__(self, entries, bound):
        self.entries = entries
        self.bound = bound
        super().__init__(f"table with {entries} entries exceeds bound {bound}")


class TooLarge(BoundError):
    """Generic bound failure for matrix/subspace enumeration."""


# ---------------------------------------------------------------------------
# analysis errors

class DuplicateInRow(AnalysisError):
    def __init__(self, row, col1, col2):
        self.row = row
        self.col1 = col1
        self.col2 = col2
        super().__init__(
            f"row {row} repeats a symbol at columns {col1} and {col2}")


class DuplicateInColumn(AnalysisError):
    def __init__(self, col, row1, row2):
        self.col = col
        self.row1 = row1
        self.row2 = row2
        super().__init__(
            f"column {col} repeats a symbol at rows {row1} and {row2}")


class BadEntry(AnalysisError):
    def __init__(self, row, col):
        self.row = row
        self.col = col
        super().__init__(f"entry at ({row}, {col}) is outside 0..N-1")


class NotBipermutative(AnalysisError):
    pass


class NotAffine(AnalysisError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"local rule is not affine; witness pair {witness}")


class NotEndomorphism(AnalysisError):
    def __init__(self, which, witness):
        self.which = which
        self.witness = witness
        super().__init__(f"{which} is not an endomorphism; witness {witness}")


class NotEndomorphicCA(AnalysisError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"rule is not an endomorphic CA; witness quadruple {witness}")


class NotASubgroup(AnalysisError):
    def __init__(self, members, reason):
        self.members = members
        self.reason = reason
        super().__init__(f"{members} is not a subgroup: {reason}")


class ZeroMassCondition(AnalysisError):
    def __init__(self, word):
        self.word = word
        super().__init__(f"conditioning word {word} has zero mass")


class NotAGroup(AnalysisError):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"table is not a group: {reason}")


def read_int(token, error: type[InputError] = BadParams) -> int:
    """token read by int(); one that does not read as an integer raises
    error, an input error that names it."""
    try:
        return int(token)
    except ValueError:
        raise error(f"expected an integer, got {token!r}") from None
