"""Exception hierarchy shared across the package, and the one check of a count."""
import numbers


class GnvpError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GnvpError):
    """Operands have incompatible shapes for the requested operation."""


class NumericError(GnvpError):
    """An operation produced a non-finite value (NaN or Inf)."""


class GraphError(GnvpError):
    """A graph object violates its structural invariants."""


class ChemError(GnvpError):
    """Chemistry-level failure (invalid molecule, missing valence entry, ...)."""


class SmilesParseError(ChemError):
    """Input text does not match the restricted SMILES grammar.

    ``offset`` is the 0-based byte offset of the offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DatasetError(GnvpError):
    """A dataset file could not be loaded."""


class CheckpointError(GnvpError):
    """A checkpoint file is malformed, truncated, or incompatible."""


class TrainingError(GnvpError):
    """Training aborted (non-finite loss or inconsistent optimizer state)."""


def check_count(value, name: str, low: int, error: type[GnvpError] = GnvpError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer >= ``low``.
    A Python or numpy integer passes; a bool, a float or a string does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
