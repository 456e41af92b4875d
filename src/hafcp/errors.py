"""Exception hierarchy for the hafcp package.

Every error raised by the library derives from HafcpError so CLI code can
map library failures to exit codes without enumerating modules.
"""


class HafcpError(Exception):
    """Base class for all errors raised by this package."""


# --- dataset ---------------------------------------------------------------

class MissingLabelColumn(HafcpError):
    pass


class UnparseableCell(HafcpError):
    def __init__(self, row: int, column: str, detail: str = ""):
        self.row = row
        self.column = column
        msg = f"cell at data row {row}, column {column!r} cannot be parsed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class EmptyDataset(HafcpError):
    pass


class DatasetTooSmall(HafcpError):
    pass


class UnknownColumn(HafcpError):
    pass


class CannotDropLabel(HafcpError):
    pass


# --- gbdt ------------------------------------------------------------------

class SingleClassTraining(HafcpError):
    pass


class EmptyTrainingSet(HafcpError):
    pass


class SchemaMismatch(HafcpError):
    pass


class LengthMismatch(HafcpError):
    pass


class DegenerateAUC(HafcpError):
    """AUC is undefined when only one class is present."""


class EmptyModel(HafcpError):
    pass


class NegativeScore(HafcpError):
    pass


class ParseError(HafcpError):
    pass


class PrefixMismatch(HafcpError):
    """A baseline model given to warm-start a fit does not fit its inputs."""


# --- fuzzify ---------------------------------------------------------------

class SampleTooSmall(HafcpError):
    pass


class SampleTooLarge(HafcpError):
    pass


class ZeroVariance(HafcpError):
    pass


class DegenerateColumn(HafcpError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} is degenerate (min = max)")


class InvalidVertices(HafcpError):
    pass


class NonpositiveWidth(HafcpError):
    pass


class MissingSpec(HafcpError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"numeric column {column!r} has no membership spec")


class DuplicateItemName(HafcpError):
    def __init__(self, item: str, first: str, second: str):
        self.item = item
        super().__init__(
            f"columns {first!r} and {second!r} both yield item {item!r}; "
            f"rename one of them")


# --- miner -----------------------------------------------------------------

class NoChurnRows(HafcpError):
    pass


class MissingImportance(HafcpError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"no importance score for source column {column!r}")


class EmptyDatabase(HafcpError):
    pass


class UnknownItem(HafcpError):
    pass


class TooManyItemsForOracle(HafcpError):
    pass


# --- augment ---------------------------------------------------------------

class UnresolvableItem(HafcpError):
    pass


class LineageError(HafcpError):
    """Artifacts from different source splits / configs were combined."""


# --- cli -------------------------------------------------------------------

class ConfigError(HafcpError):
    pass


class MissingArtifact(HafcpError):
    pass
