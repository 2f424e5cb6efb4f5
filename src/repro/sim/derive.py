"""Vectorized per-window columns of a trace: hash pair, size class, bin.

No replay calls :func:`derived_rows`: a Bloom-tracked replay hands
:meth:`~repro.cache.cache.SlabCache.apply_rows` each window's hash
pairs (:func:`~repro.bloom.hashing.hash_pair_arrays`), and a size
class or a penalty bin is worked out only on a miss or a SET.  These
names are kept for ``benchmarks/e2e``, which times :func:`derived_rows`
(its ``derive`` rung) and reports ``derive.engaged`` through
:func:`derive_unsupported_reason`; the module goes once it stops
importing them.

Every array helper here agrees element-wise with its scalar reference
(``hash_key`` / ``class_for_size`` / ``PamaConfig.bin_for``), as the
property tests in ``tests/sim/test_derive.py`` pin.  Rows the vector
pass cannot prove valid carry sentinels (class ``-1`` unknown or too
large, ``-2`` invalid sizes; bin ``-1`` NaN or negative penalty).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.bloom.hashing import hash_pair_arrays
from repro.cache.cache import SlabCache
from repro.traces.record import iter_windows

__all__ = ["class_index_array", "penalty_bin_array", "derived_rows",
           "derive_unsupported_reason"]


def class_index_array(key_sizes, value_sizes, size_classes):
    """Vectorized ``class_for_size(key_size + value_size)`` per row.

    Returns an int64 array of size-class indices with the lookup path's
    sentinel conventions:

    * ``-1`` — no class is accounted: ``key_size < 0`` ("miss details
      unknown") or the item exceeds the largest class (the scalar path
      catches ``ItemTooLargeError`` and proceeds with class ``-1``);
    * ``-2`` — invalid sizes (``key_size + value_size <= 0`` with a
      known key size): the consumer must call the scalar
      ``class_for_size`` so ``InvalidItemError`` raises as before.
    """
    slots = np.asarray(size_classes.slot_sizes, dtype=np.int64)
    ks = np.asarray(key_sizes).astype(np.int64, copy=False)
    item_size = ks + np.asarray(value_sizes).astype(np.int64, copy=False)
    total = item_size + size_classes.item_overhead
    idx = np.searchsorted(slots, total, side="left").astype(np.int64)
    idx[total > slots[-1]] = -1
    idx[item_size <= 0] = -2
    idx[ks < 0] = -1  # last: unknown-size rows never raise
    return idx


def penalty_bin_array(penalties, edges):
    """Vectorized static-edge penalty binning per row.

    ``edges`` is a policy's :meth:`~repro.policies.base.AllocationPolicy.bin_edges`
    result — ascending upper edges (``bisect_left`` then clamp to the
    last bin, the ``PamaConfig.bin_for`` contract) or an empty tuple
    for single-bin policies.  Rows whose penalty is NaN or negative get
    the sentinel ``-1``: the consumer re-dispatches those to the
    policy's ``bin_for`` (or the scalar ``set``) so invalid penalties
    keep raising exactly where they used to, while NaN misses keep the
    lookup path's "bin 0, no accounting" semantics.
    """
    p = np.asarray(penalties, dtype=np.float64)
    if len(edges):
        e = np.asarray(edges, dtype=np.float64)
        idx = np.searchsorted(e, p, side="left").astype(np.int64)
        np.minimum(idx, len(edges) - 1, out=idx)
    else:
        idx = np.zeros(len(p), dtype=np.int64)
    idx[~(p >= 0.0)] = -1  # NaN and negatives
    return idx


def derived_rows(source, service, size_classes, edges, want_hashes):
    """Per-request scalars plus derived columns, one window at a time.

    Yields 10-tuples ``(op, key, key_size, value_size, penalty,
    miss_cost, h1, h2, class_idx, bin_idx)``.  The first six entries
    are exactly the scalar row stream; the last four are the derive
    pass.  ``want_hashes`` mirrors the cache's hash-once gate: policies
    that never probe filters get ``(0, 0)`` pairs (the scalar loop's
    behaviour) and skip the hashing work entirely.
    """
    for w in iter_windows(source):
        if want_hashes:
            a1, a2 = hash_pair_arrays(w.keys)
            h1, h2 = a1.tolist(), a2.tolist()
        else:
            h1 = h2 = repeat(0)
        cls = class_index_array(w.key_sizes, w.value_sizes,
                                size_classes).tolist()
        bins = penalty_bin_array(w.penalties, edges).tolist()
        yield from zip(w.ops.tolist(), w.keys.tolist(),
                       w.key_sizes.tolist(), w.value_sizes.tolist(),
                       w.penalties.tolist(), service.miss_array(w.penalties),
                       h1, h2, cls, bins)


def derive_unsupported_reason(cache, policy, *, timeline=None,
                              hist=None) -> str | None:
    """Why a replay of ``cache`` does not take vectorized hash pairs
    from its windows, or ``None`` when it would (for a ``policy`` that
    hashes keys).

    Only a :class:`SlabCache` takes the pairs (a cluster's nodes hash
    in their own ``lookup``).  ``timeline`` and ``hist`` do not change
    the answer: the kernel takes the pairs with or without telemetry or
    injected faults.
    """
    if not isinstance(cache, SlabCache):
        return f"{type(cache).__name__} does not take derived columns"
    return None
