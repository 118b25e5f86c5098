"""Shared utilities: deterministic hashing, the sequence pool, unit conversions."""

from repro.util.fifo import SequencePool
from repro.util.rng import splitmix64, hash_tokens, unit_float
from repro.util.units import GB, GiB, MB, KiB, Gbps, us, ms

__all__ = [
    "SequencePool",
    "splitmix64",
    "hash_tokens",
    "unit_float",
    "GB",
    "GiB",
    "MB",
    "KiB",
    "Gbps",
    "us",
    "ms",
]
