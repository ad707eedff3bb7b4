"""Partitioning rules and task-vector computation."""

import re

import numpy as np
import pytest

from blockmerge import (
    AlignmentError,
    Checkpoint,
    EmptyPartition,
    PartitionRule,
    compute_task_vectors,
    default_transformer_rules,
    partition,
)
from blockmerge.task_space import flatten_block

from helpers import toy_layer_names, toy_model, tv_from_rows


def _ck(names, width=4, seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(tensors={n: rng.normal(size=(width,)).astype(np.float32) for n in names})


def test_no_rules_gives_singletons():
    ck = _ck([f"t{i}" for i in range(5)])
    part = partition(ck, rules=[])
    assert part.num_blocks == 5
    assert part.block_keys == [f"t{i}" for i in range(5)]
    assert all(len(b.tensor_names) == 1 for b in part.blocks)


def test_transformer_blocking_counts():
    names = toy_layer_names(layers=12)
    ck = _ck(names)
    part = partition(ck, default_transformer_rules(), exclude=["head.*"])
    keyed = [b for b in part.blocks if b.key.startswith("L")]
    singles = [b for b in part.blocks if not b.key.startswith("L")]
    assert len(keyed) == 48  # 12 layers x (attn, mlp, ln1, ln2)
    assert [b.key for b in singles] == ["embed.w"]
    assert part.excluded == ["head.w"]


def test_first_match_wins():
    ck = _ck(["blocks.0.attn.w"])
    rules = [
        PartitionRule("blocks.{L}.attn.*", "first{L}"),
        PartitionRule("blocks.*", "second"),
    ]
    part = partition(ck, rules)
    assert part.block_keys == ["first0"]


def test_capture_groups_in_key():
    ck = _ck(["enc.3.fc.w", "enc.3.fc.b"])
    part = partition(ck, [PartitionRule("enc.{layer}.fc.*", "fc{layer}")])
    assert part.block_keys == ["fc3"]
    assert part.blocks[0].tensor_names == ["enc.3.fc.w", "enc.3.fc.b"]


def test_exclude_all_raises():
    ck = _ck(["head.w"])
    with pytest.raises(EmptyPartition):
        partition(ck, [], exclude=["head.*"])


def test_regex_pattern_prefix():
    ck = _ck(["layer1.w", "layer2.w", "other"])
    part = partition(ck, [PartitionRule(r"re:layer\d+\.w", "layers")])
    assert part.block_keys == ["layers", "other"]
    for bad in ("re:layer(", "layer{L}.{L}"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            partition(ck, [PartitionRule(bad, "b")])


def test_param_count_invariant_across_rule_sets():
    rng = np.random.default_rng(3)
    pre, tasks = toy_model(rng, num_tasks=2, layers=3, width=4)
    fine = partition(pre, default_transformer_rules(), exclude=["head.*"])
    coarse = partition(pre, [PartitionRule("blocks.*", "all")], exclude=["head.*"])
    expected = sum(a.size for n, a in pre.tensors.items() if n != "head.w")
    assert fine.total_dim == coarse.total_dim == expected


def test_zero_vectors_when_finetuned_equals_pretrained():
    rng = np.random.default_rng(4)
    pre, _ = toy_model(rng, num_tasks=1, layers=1, width=4)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(pre, [pre], part)
    assert all(not v.any() for v in tv.block_vectors)


def test_difference_arithmetic():
    pre = Checkpoint(tensors={"w": np.array([1.0, 1.0], dtype=np.float32)})
    ft = Checkpoint(tensors={"w": np.array([2.0, 0.0], dtype=np.float32)})
    part = partition(pre, [])
    tv = compute_task_vectors(pre, [ft], part)
    np.testing.assert_array_equal(tv.rows(0)[0], np.array([1.0, -1.0], dtype=np.float32))


def test_float16_difference_matches_float64_oracle():
    rng = np.random.default_rng(5)
    pre_vals = rng.normal(size=32).astype(np.float16)
    ft_vals = (pre_vals.astype(np.float32) + rng.normal(scale=0.05, size=32).astype(np.float32)).astype(np.float16)
    pre = Checkpoint(tensors={"w": pre_vals})
    ft = Checkpoint(tensors={"w": ft_vals})
    tv = compute_task_vectors(pre, [ft], partition(pre, []))
    oracle = ft_vals.astype(np.float64) - pre_vals.astype(np.float64)
    assert np.max(np.abs(tv.rows(0)[0].astype(np.float64) - oracle)) < 1e-3


def test_reconstruction_identity_on_grid():
    rng = np.random.default_rng(6)
    pre, tasks = toy_model(rng, num_tasks=3, layers=2, width=4)
    part = partition(pre, default_transformer_rules(), exclude=["head.*"])
    tv = compute_task_vectors(pre, tasks, part)
    for k, ft in enumerate(tasks):
        for block in part.blocks:
            rebuilt = flatten_block(pre, block) + tv.rows(block.block_id)[k]
            np.testing.assert_array_equal(rebuilt, flatten_block(ft, block))


def test_alignment_error_raised():
    pre = Checkpoint(tensors={"w": np.zeros(2, dtype=np.float32)})
    bad = Checkpoint(tensors={"w": np.zeros(3, dtype=np.float32)})
    with pytest.raises(AlignmentError):
        compute_task_vectors(pre, [bad], partition(pre, []))


def test_vectors_flatten_in_block_order():
    pre = Checkpoint(
        tensors={
            "m.a": np.array([[1.0, 2.0]], dtype=np.float32),
            "m.b": np.array([3.0], dtype=np.float32),
        }
    )
    ft = Checkpoint(
        tensors={
            "m.a": np.array([[2.0, 4.0]], dtype=np.float32),
            "m.b": np.array([6.0], dtype=np.float32),
        }
    )
    part = partition(pre, [PartitionRule("m.*", "m")])
    tv = compute_task_vectors(pre, [ft], part)
    np.testing.assert_array_equal(tv.rows(0)[0], np.array([1.0, 2.0, 3.0], dtype=np.float32))


def test_rows_of_a_set_from_arrays_are_those_arrays_bit_for_bit():
    # -0.0, +0.0, +-inf, subnormals, quiet NaNs with non-default payloads, 1.0
    bits = np.array([0x80000000, 0x00000000, 0x7F800000, 0xFF800000, 0x00000001,
                     0x807FFFFF, 0x7FC01234, 0xFFC00001, 0x3F800000, 0x00400000], dtype=np.uint32)
    flat = bits.view(np.float32).reshape(2, 5)
    blocks = [flat[:, :3].copy(), flat[:, 3:].copy()]
    tv = tv_from_rows(blocks)
    assert [tv.rows(b).tobytes() for b in range(2)] == [v.tobytes() for v in blocks]
    # block_vectors yields rows(b) for every block, in block order
    assert [v.tobytes() for v in tv.block_vectors] == [v.tobytes() for v in blocks]
    # x - 0.0 quiets a signalling NaN, so the helper refuses one
    with pytest.raises(AssertionError, match="signalling NaN"):
        tv_from_rows([np.array([[0x7F800001]], dtype=np.uint32).view(np.float32)])
