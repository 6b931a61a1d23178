"""Exception types raised across the toolkit.

Every error carries a stable machine-readable code (used by the CLI to pick
an exit status and emit a single-line diagnostic). Codes:

    E_IO       file system problems (missing/unreadable/unwritable files)
    E_SCHEMA   column/shape mismatches, unknown categories
    E_CONFIG   invalid hyperparameters, fractions, or grid files
    E_VERSION  unsupported model-bundle format version
    E_DATA     content problems inside otherwise well-formed inputs
"""


class CardioLearnError(Exception):
    code = "E_DATA"


# --- ingestion -------------------------------------------------------------

class EmptyFile(CardioLearnError):
    code = "E_DATA"


class BadEncoding(CardioLearnError):
    code = "E_DATA"


class MalformedCsv(CardioLearnError):
    code = "E_DATA"


class DuplicateHeader(CardioLearnError):
    code = "E_SCHEMA"

    def __init__(self, column):
        self.column = column
        super().__init__(f"duplicate header column {column!r}")


class MissingColumn(CardioLearnError):
    code = "E_SCHEMA"

    def __init__(self, column):
        self.column = column
        super().__init__(f"missing required column {column!r}")


class SchemaMismatch(CardioLearnError):
    code = "E_SCHEMA"


class UnparsableCell(CardioLearnError):
    code = "E_DATA"

    def __init__(self, row, column, content):
        self.row = row
        self.column = column
        self.content = content
        super().__init__(
            f"row {row}, column {column!r}: cannot parse {content!r}"
        )


# --- dataset shape / class balance ----------------------------------------

class EmptyDataset(CardioLearnError):
    code = "E_DATA"


class SingleClassDataset(CardioLearnError):
    code = "E_DATA"


class FractionOutOfRange(CardioLearnError):
    code = "E_CONFIG"


class KTooLarge(CardioLearnError):
    code = "E_CONFIG"


class BadHyperparameter(CardioLearnError):
    code = "E_CONFIG"


# --- preprocessing ----------------------------------------------------------

class UnseenCategory(CardioLearnError):
    code = "E_SCHEMA"

    def __init__(self, feature, token):
        self.feature = feature
        self.token = token
        super().__init__(f"feature {feature!r}: category {token!r} not seen during fit")


class MinorityTooSmall(CardioLearnError):
    code = "E_DATA"


class NonFiniteFeature(CardioLearnError):
    code = "E_DATA"


class UnscalableFeature(CardioLearnError):
    code = "E_DATA"


# --- models -----------------------------------------------------------------

class DimensionMismatch(CardioLearnError):
    code = "E_SCHEMA"


class EmptyNode(CardioLearnError):
    code = "E_DATA"


class EmptySequence(CardioLearnError):
    code = "E_DATA"


class EmptyPartition(CardioLearnError):
    code = "E_DATA"


# --- evaluation ---------------------------------------------------------------

class LengthMismatch(CardioLearnError):
    code = "E_DATA"


class EmptyPredictions(CardioLearnError):
    code = "E_DATA"


class EmptyGrid(CardioLearnError):
    code = "E_CONFIG"


# --- persistence ---------------------------------------------------------------

class VersionMismatch(CardioLearnError):
    code = "E_VERSION"


class CorruptBundle(CardioLearnError):
    code = "E_DATA"
