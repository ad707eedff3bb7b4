"""Exception types raised across the package."""


class BlockMergeError(Exception):
    """Base class for all blockmerge errors."""


# -- tensor archives ---------------------------------------------------------

class MalformedHeader(BlockMergeError):
    """Archive header is structurally invalid (bad length prefix, bad JSON,
    inconsistent offsets or shapes)."""


class UnsupportedDtype(BlockMergeError):
    """Archive declares a dtype outside the supported set."""


class TruncatedData(BlockMergeError):
    """Archive data section is shorter than the header declares."""


# -- task space --------------------------------------------------------------

class AlignmentError(BlockMergeError):
    """Checkpoints do not share names/shapes/dtypes on the mergeable tensors."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EmptyPartition(BlockMergeError):
    """Every tensor was excluded; nothing left to merge."""


# -- mergers -----------------------------------------------------------------

class EmptyGroup(BlockMergeError):
    """A merge was requested for zero member vectors."""


# -- plans -------------------------------------------------------------------

class MalformedPlan(BlockMergeError):
    """Plan JSON lines or plan metadata are not valid against the plan
    format, or an event does not join two whole groups of its block."""


# -- artifacts ---------------------------------------------------------------

class ConfigMismatch(BlockMergeError):
    """Assignment and task vectors were produced under different configs
    (e.g. a different global trim state)."""


class MalformedArtifact(BlockMergeError):
    """Artifact manifest is not valid against its schema, or names tensors
    the artifact archive lacks or holds at the wrong size."""


class UnknownTask(BlockMergeError):
    """Task id not present in the artifact manifest."""
