"""Bloom-filter substrate for PAMA's segment membership tests."""

from repro.bloom.bloom import BloomFilter, optimal_params
from repro.bloom.hashing import (double_hashes, fnv1a64, hash_key,
                                 hash_pair, splitmix64)
from repro.bloom.removal import RemovalFilter

__all__ = [
    "BloomFilter",
    "RemovalFilter",
    "optimal_params",
    "double_hashes",
    "hash_pair",
    "fnv1a64",
    "hash_key",
    "splitmix64",
]
