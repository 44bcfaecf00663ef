"""Exception types shared across the package.

Plain I/O failures (unwritable paths, permission errors) are left to the
builtin OSError family; everything domain-specific derives from
F4SearchError so callers can catch one base class at the CLI boundary.
"""


class F4SearchError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVectorError(F4SearchError):
    """A vector with (near-)zero L2 norm where a direction is required."""


class DimensionMismatchError(F4SearchError):
    """Two vectors or a vector and an index disagree on dimensionality."""


class EmptyTextError(F4SearchError):
    """No tokens survive tokenization of an input text."""


class BadMagicError(F4SearchError):
    """File does not start with the expected magic bytes."""


class VersionUnsupportedError(F4SearchError):
    """File format version is not one this reader understands."""


class TruncatedFileError(F4SearchError):
    """File byte length does not match what its header implies."""


class CorruptFileError(F4SearchError):
    """File is complete but its content does not decode to valid records."""


class DuplicateIdError(F4SearchError):
    """An id appears more than once where uniqueness is required."""


class MixedDimsError(F4SearchError):
    """Records of different dimensionality in one batch."""


class MalformedLineError(F4SearchError):
    """A JSONL line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class UnknownKindError(F4SearchError):
    """Caption kind is neither 'dense' nor 'sparse'."""


class EmptyCorpusError(F4SearchError):
    """An index build was attempted with no captions."""


class ServiceUnreachableError(F4SearchError):
    """Remote embedding service could not be reached after all retries."""


class MalformedResponseError(F4SearchError):
    """Remote service replied with the wrong shape (count, dim or schema)."""


class RemoteError(F4SearchError):
    """Remote service reported an error (non-200 status)."""


class MissingPredictionTextError(F4SearchError):
    """A fused search needs a prediction text the query bundle lacks."""


class UnknownCandidateIdError(F4SearchError):
    """A caption id referenced by a query is not present in the index."""


class NoItemsError(F4SearchError):
    """No item phrases survive parsing of a sparse caption."""


class EmptyGroundTruthError(F4SearchError):
    """Evaluation requires at least one ground-truth caption id."""


class ConfigConflictError(F4SearchError):
    """Evaluation configuration is internally inconsistent."""
