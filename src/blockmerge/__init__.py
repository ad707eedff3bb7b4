"""blockmerge: data-free fusion of fine-tuned checkpoints at block granularity.

Aligned fine-tuned models are decomposed into per-block task vectors,
greedily merged pair-by-pair in order of cosine similarity, and materialized
as a deployable artifact of any size between one model and all of them.
"""

from .errors import (
    AlignmentError,
    BlockMergeError,
    ConfigMismatch,
    EmptyGroup,
    EmptyPartition,
    MalformedArtifact,
    MalformedHeader,
    MalformedPlan,
    TruncatedData,
    UnknownTask,
    UnsupportedDtype,
)
from .tensor_store import (
    AlignmentReport,
    Checkpoint,
    read_archive,
    validate_aligned,
    write_archive,
)
from .task_space import (
    BlockPartition,
    PartitionRule,
    TaskVectorSet,
    compute_task_vectors,
    default_transformer_rules,
    partition,
)
from .similarity import (
    SimilarityMatrix,
    pairwise_all,
    pairwise_block_similarity,
)
from .mergers import (
    MergeOutput,
    MergerConfig,
    merge_group,
    prepare_task_vectors,
    ties_trim,
)
from .scheduler import (
    GroupAssignment,
    MergeEvent,
    MergePlan,
    ModelUnits,
    SizeModel,
    block_merge_sequence,
    compute_merge_plan,
    global_merge_order,
    kmeans_baseline,
    read_plan_jsonl,
    replay_to_size,
    replay_to_sizes,
    write_assignment_json,
    write_plan_jsonl,
)
from .artifact import (
    MergedArtifact,
    ReconstructionReport,
    SizeReport,
    StoredGroup,
    build_artifact,
    export_manifest,
    export_sweep,
    load_artifact,
    reconstruct_task,
    verify_artifact,
)

__version__ = "0.1.0"
