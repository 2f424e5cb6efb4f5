"""Hypothesis stateful testing: the cache as a black-box state machine.

Models the cache as a dict plus LRU-ish capacity semantics and drives
random op sequences through every policy family, checking after each
step that (a) structural invariants hold and (b) the cache agrees with
the model on membership of recently-touched keys (eviction order is
policy-specific, but *presence after a SET* and *absence after DELETE*
are universal).
"""

from hypothesis import settings
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)
from hypothesis import strategies as st

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import make_policy

POLICY_CHOICES = ["memcached", "psa", "twemcache", "lama", "gds",
                  "pama", "pre-pama", "pama-adaptive"]

SIZES = [40, 200, 900, 3000]
PENALTIES = [0.0005, 0.005, 0.05, 0.5, 2.0]


class CacheMachine(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(POLICY_CHOICES),
                slabs=st.integers(2, 8))
    def setup(self, policy, slabs):
        classes = SizeClassConfig(slab_size=4096, base_size=64)
        kwargs = {"value_window": 500} if "pama" in policy else {}
        self.cache = SlabCache(slabs * 4096, make_policy(policy, **kwargs),
                               classes)
        self.model: dict[int, tuple[int, float]] = {}
        self.last_set: int | None = None

    @rule(key=st.integers(0, 60), size=st.sampled_from(SIZES),
          pen=st.sampled_from(PENALTIES))
    def do_set(self, key, size, pen):
        ok = self.cache.set(key, 8, size, pen)
        if ok:
            self.model[key] = (size, pen)
            self.last_set = key
        else:
            self.model.pop(key, None)
            self.last_set = None

    @rule(key=st.integers(0, 60))
    def do_get(self, key):
        entry = self.model.get(key)
        size, pen = entry if entry else (100, 0.1)
        item = self.cache.lookup(key, 8, size, pen)
        if item is not None:
            # a hit must return the stored attributes
            assert key in self.model
            size, pen = self.model[key]
            assert item.value_size == size
            assert item.penalty == pen
        else:
            # evictions may shrink the model lazily
            self.model.pop(key, None)

    @rule(key=st.integers(0, 60))
    def do_delete(self, key):
        self.cache.delete(key)
        self.model.pop(key, None)
        if self.last_set == key:
            self.last_set = None

    @invariant()
    def structural_integrity(self):
        if not hasattr(self, "cache"):
            return
        self.cache.check_invariants()

    @invariant()
    def cache_is_subset_of_model(self):
        if not hasattr(self, "cache"):
            return
        for key in self.cache.index:
            assert key in self.model, f"cache holds unknown key {key}"

    @invariant()
    def most_recent_set_is_present(self):
        if not hasattr(self, "cache"):
            return
        # the most recently stored key is the MRU of its queue; no
        # policy may have evicted it before any intervening operation
        if self.last_set is not None:
            assert self.last_set in self.cache


TestCacheStateMachine = CacheMachine.TestCase
TestCacheStateMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None)
