"""Back-compat pins for the shared shard-routing function.

``shard_of`` moved from a server-local helper to the shared
:func:`repro.bloom.hashing.key_shard`.  These pins guarantee the move
changed nothing observable: string keys land on the same shards they
always did, and the seed is unchanged.
"""

from repro.bloom.hashing import SHARD_SEED as HASHING_SHARD_SEED
from repro.bloom.hashing import hash_key, key_shard
from repro.server.shard import SHARD_SEED, shard_of

# Captured from the pre-refactor server-local shard_of: any drift here
# would re-home live keys on a rolling upgrade.
PINNED_STR_4 = [3, 1, 1, 3, 0, 3, 2, 1, 0, 3]
PINNED_STR_8 = [3, 5, 1, 3, 0, 3, 2, 5, 0, 7]
PINNED_INT_4 = [2, 1, 3, 0, 2, 1, 3, 3, 2, 0]


class TestShardOfBackCompat:
    def test_string_keys_pinned(self):
        assert [shard_of(f"key:{i}", 4) for i in range(10)] == PINNED_STR_4
        assert [shard_of(f"key:{i}", 8) for i in range(10)] == PINNED_STR_8

    def test_int_keys_accepted(self):
        # key-type-agnostic: the simulator routes int64 trace keys
        # through the same function the server routes str keys through.
        assert [shard_of(i, 4) for i in range(10)] == PINNED_INT_4

    def test_seed_unchanged_and_reexported(self):
        assert SHARD_SEED == 0x51A8D
        assert SHARD_SEED is HASHING_SHARD_SEED

    def test_shard_of_is_seeded_hash_mod(self):
        for key in ("key:0", "a-longer-key", 12345, -7):
            for nshards in (1, 2, 4, 8, 13):
                assert (shard_of(key, nshards)
                        == hash_key(key, SHARD_SEED) % nshards)
                assert shard_of(key, nshards) == key_shard(key, nshards)
