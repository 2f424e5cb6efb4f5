"""Hash functions backing the Bloom filters.

Bloom filters need several independent hash values per key.  We derive
all of them from two base 64-bit hashes via the standard double-hashing
construction (Kirsch & Mitzenmacher): ``h_i = h1 + i * h2``.

Keys in the simulator are integers (interned key ids) but the cache and
server accept ``bytes``/``str`` keys too, so both paths are provided.

The hot path computes the base pair once per request
(:func:`hash_pair`) and threads it through every filter probe; the
key-based helpers remain as the reference construction the fast paths
must agree with bit-for-bit.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

#: seed offset separating the two base hashes of the double-hashing
#: pair; shared by :func:`hash_pair` and :func:`double_hashes`.
PAIR_SEED_DELTA = 0x5BD1E995

#: seed separating key partitioning (server shards) from every other
#: hash family in the repo (bloom probes, fault draws, backoff jitter).
SHARD_SEED = 0x51A8D

# splitmix64 constants (Steele, Lea, Flood — "Fast splittable PRNGs").
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB

# FNV-1a 64-bit constants.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; a strong 64-bit integer hash."""
    x = (x + _SM_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _MASK64
    return x ^ (x >> 31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash_key(key: object, seed: int = 0) -> int:
    """Hash an int / bytes / str key to a 64-bit value.

    Integers take the fast splitmix64 path; text and byte keys go through
    FNV-1a first.  ``seed`` perturbs the result so independent filters
    see independent hash families.
    """
    if isinstance(key, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a valid cache key")
    if isinstance(key, int):
        # splitmix64, inlined: this is the replay engine's innermost
        # function (twice per GET) and the nested call costs ~40% of it.
        x = ((key ^ (seed * _SM_GAMMA)) + _SM_GAMMA) & _MASK64
        x = ((x ^ (x >> 30)) * _SM_MUL1) & _MASK64
        x = ((x ^ (x >> 27)) * _SM_MUL2) & _MASK64
        return x ^ (x >> 31)
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return splitmix64(fnv1a64(bytes(key)) ^ (seed * _SM_GAMMA) & _MASK64)
    raise TypeError(f"unhashable key type for bloom filter: {type(key)!r}")


def hash_key_array(keys, seed: int = 0):
    """Vectorized :func:`hash_key` over an integer key column.

    Returns a ``uint64`` NumPy array that matches ``hash_key(k, seed)``
    element-wise for every int64/uint64 key: a signed column is viewed
    as its two's-complement uint64 bits, which is exactly the value the
    scalar path's ``& MASK64`` arithmetic reduces a negative Python int
    to.  This is the derive pass's bulk hasher (one vector op chain per
    trace window instead of two Python calls per request).
    """
    import numpy as np

    keys = np.asarray(keys)
    if keys.dtype == np.int64:
        x = keys.view(np.uint64)
    elif keys.dtype == np.uint64:
        x = keys
    else:
        x = keys.astype(np.int64).view(np.uint64)
    u = np.uint64
    x = (x ^ u((seed * _SM_GAMMA) & _MASK64)) + u(_SM_GAMMA)
    x = (x ^ (x >> u(30))) * u(_SM_MUL1)
    x = (x ^ (x >> u(27))) * u(_SM_MUL2)
    return x ^ (x >> u(31))


def hash_pair_arrays(keys):
    """Vectorized :func:`hash_pair`: ``(h1, h2)`` uint64 columns.

    ``h2`` is forced odd exactly like the scalar pair, so the arrays can
    feed every ``*_hashes`` fast path (an ``h2`` of 0 still means "pair
    absent" — a real ``h2`` is never even).
    """
    import numpy as np

    return (hash_key_array(keys, 0),
            hash_key_array(keys, PAIR_SEED_DELTA) | np.uint64(1))


def key_shard(key: object, nshards: int) -> int:
    """Deterministic partition index for any cache key (int/str/bytes).

    The async server routes connections' keys with it
    (:class:`~repro.cluster.cluster.CacheCluster` routes by its hash
    ring instead).  Uses :func:`hash_key` under the
    dedicated :data:`SHARD_SEED` so routing stays uncorrelated with
    filter probes and stable across processes and runs.
    """
    if nshards <= 1:
        return 0
    return hash_key(key, SHARD_SEED) % nshards


def hash_pair(key: object, seed: int = 0) -> tuple[int, int]:
    """Base double-hashing pair ``(h1, h2)`` for ``key``; ``h2`` is odd.

    Probe ``i`` of a ``nbits``-wide filter is
    ``((h1 + i*h2) & 2**64-1) % nbits`` — which reduces to
    ``(h1 + i*h2) & (nbits - 1)`` when ``nbits`` is a power of two.
    Computing the pair once per request and reusing it across every
    filter is what makes the replay hot path hash each key exactly once.
    """
    return (hash_key(key, seed),
            hash_key(key, seed + PAIR_SEED_DELTA) | 1)


def double_hashes(key: object, k: int, nbits: int, seed: int = 0) -> list[int]:
    """Return ``k`` bit positions in ``[0, nbits)`` for ``key``.

    Uses two base hashes combined as ``h1 + i*h2`` (with ``h2`` forced
    odd so the probe sequence covers the table when nbits is a power of
    two).  This is the reference construction; the filters' ``*_hashes``
    fast paths must produce exactly these positions.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    h1 = hash_key(key, seed)
    h2 = hash_key(key, seed + PAIR_SEED_DELTA) | 1
    if nbits & (nbits - 1) == 0:
        # optimal_params rounds nbits to a power of two expressly so the
        # reduction is a cheap mask; ((x & MASK64) & (nbits-1)) == x & (nbits-1)
        # because nbits-1 selects a subset of the low 64 bits.
        mask = nbits - 1
        return [(h1 + i * h2) & mask for i in range(k)]
    return [((h1 + i * h2) & _MASK64) % nbits for i in range(k)]
