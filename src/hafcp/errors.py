"""Exception hierarchy for the hafcp package.

Every error raised by the library derives from HafcpError so CLI code can
map library failures to exit codes without enumerating modules.
"""

import copyreg


class HafcpError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # unpickled without __init__, whose arguments need not be the
        # message: a report worker's error reaches the caller whole
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


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
    """A baseline model given to replay or train does not fit its inputs."""


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


class InvalidVertices(ParseError):
    pass


class NonpositiveWidth(ParseError):
    pass


class MissingSpec(HafcpError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"numeric column {column!r} has no membership spec")


class TooManyCategories(HafcpError):
    def __init__(self, column: str, count: int, limit: int):
        self.column = column
        super().__init__(
            f"categorical column {column!r} has {count} distinct values, over "
            f"the limit of {limit}; list an identifier in drop_columns")


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
