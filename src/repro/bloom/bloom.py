"""A classic Bloom filter.

PAMA uses one Bloom filter per reference segment to answer "did this
request land in segment Sk?" in O(1) without scanning the LRU stack
(paper §III, third challenge).

The bit array is a ``bytearray`` probed byte-at-a-time: a probe costs
two shifts and an index on machine-word ints, and — unlike the earlier
single-big-int bitset — never copies the whole array (shifting an
``nbits``-wide int allocates an ``nbits``-wide temporary *per probe*,
which dominated the replay profile).  The hot paths (``add_hashes`` /
``contains_hashes``) take a precomputed
:func:`~repro.bloom.hashing.hash_pair` so a request's key is hashed
once, not once per filter.
"""

from __future__ import annotations

import math

from repro.bloom.hashing import hash_pair
from repro._util import next_pow2


def optimal_params(capacity: int, fp_rate: float) -> tuple[int, int]:
    """Return ``(nbits, nhashes)`` sized for ``capacity`` keys at ``fp_rate``.

    Standard formulas: ``m = -n ln p / (ln 2)^2``, ``k = (m/n) ln 2``.
    ``nbits`` is rounded up to a power of two, so a probe position is
    the double hash under a bitmask.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not 0.0 < fp_rate < 1.0:
        raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
    nbits = max(8, int(math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))))
    nbits = next_pow2(nbits)
    nhashes = max(1, round((nbits / capacity) * math.log(2)))
    return nbits, nhashes


class BloomFilter:
    """Fixed-size Bloom filter over int / str / bytes keys.

    Supports ``add``, membership via ``in``, and ``clear``.  Deletion is
    impossible by construction; PAMA layers a :class:`RemovalFilter` on
    top to mask members that have logically left a segment.

    ``add``/``__contains__`` hash the key themselves (using the filter's
    ``seed``); ``add_hashes``/``contains_hashes`` accept a base pair the
    caller already computed — ``hash_pair(key, self.seed)`` gives
    bit-identical behaviour to the key-based API.  The geometry is
    :func:`optimal_params`'s for ``capacity`` and ``fp_rate``.
    """

    __slots__ = ("nbits", "nhashes", "seed", "_ba", "_mask", "count")

    def __init__(self, capacity: int = 1024, fp_rate: float = 0.01,
                 *, seed: int = 0) -> None:
        nbits, nhashes = optimal_params(capacity, fp_rate)
        self.nbits = nbits
        self.nhashes = nhashes
        self.seed = seed
        #: probe mask: ``nbits`` is a power of two
        self._mask = nbits - 1
        #: the bitset: bit ``p`` of the little-endian byte array is set
        #: ⇔ some member probed position ``p``.
        self._ba = bytearray((nbits + 7) >> 3)
        #: number of ``add`` calls since the last clear (an upper bound on
        #: the number of distinct members).
        self.count = 0

    @property
    def _bits(self) -> int:
        """The bitset as one int (inspection/tests; not a hot path)."""
        return int.from_bytes(self._ba, "little")

    def add(self, key: object) -> None:
        """Insert ``key`` into the filter."""
        h1, h2 = hash_pair(key, self.seed)
        self.add_hashes(h1, h2)

    def add_hashes(self, h1: int, h2: int) -> None:
        """Insert by precomputed base pair (the hash-once fast path)."""
        ba = self._ba
        mask = self._mask
        for i in range(self.nhashes):
            p = (h1 + i * h2) & mask
            ba[p >> 3] |= 1 << (p & 7)
        self.count += 1

    def __contains__(self, key: object) -> bool:
        h1, h2 = hash_pair(key, self.seed)
        return self.contains_hashes(h1, h2)

    def contains_hashes(self, h1: int, h2: int) -> bool:
        """Membership by precomputed base pair; early-exits on the first
        clear bit instead of materialising all probe positions."""
        ba = self._ba
        mask = self._mask
        for i in range(self.nhashes):
            p = (h1 + i * h2) & mask
            if not ba[p >> 3] >> (p & 7) & 1:
                return False
        return True

    def clear(self) -> None:
        """Reset to the empty filter."""
        self._ba = bytearray(len(self._ba))
        self.count = 0

    def saturation(self) -> float:
        """Fraction of bits set — a health metric for sizing decisions."""
        return self._bits.bit_count() / self.nbits

    def estimated_fp_rate(self) -> float:
        """Estimated current false-positive probability from saturation."""
        return self.saturation() ** self.nhashes

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BloomFilter(nbits={self.nbits}, nhashes={self.nhashes}, "
                f"count={self.count})")
