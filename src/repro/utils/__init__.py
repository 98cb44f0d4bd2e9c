"""Shared utilities: block partitioning, chunk spans and ragged ranges."""

from repro.utils.blocking import block_merge, block_partition, chunk_spans, pad_to_blocks

__all__ = ["block_merge", "block_partition", "chunk_spans", "pad_to_blocks"]
