"""Tests for segment value accounting (Eq. 1 / Eq. 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.value import ValueAccumulator


class TestValueAccumulator:
    def test_eq1_accumulation(self):
        acc = ValueAccumulator(3)
        acc.add_outgoing(0, 0.5)
        acc.add_outgoing(0, 0.25)
        acc.add_outgoing(2, 1.0)
        assert acc.out == [0.75, 0.0, 1.0]
        assert acc.out_hits == [2, 0, 1]

    def test_eq2_weighted_sum(self):
        acc = ValueAccumulator(3)
        acc.add_outgoing(0, 1.0)
        acc.add_outgoing(1, 1.0)
        acc.add_outgoing(2, 1.0)
        # V = 1/2 + 1/4 + 1/8
        assert math.isclose(acc.outgoing_value(), 0.875)

    def test_candidate_segment_weighs_most(self):
        near = ValueAccumulator(3)
        near.add_outgoing(0, 1.0)
        far = ValueAccumulator(3)
        far.add_outgoing(2, 1.0)
        assert near.outgoing_value() > far.outgoing_value()

    def test_incoming_independent_of_outgoing(self):
        acc = ValueAccumulator(2)
        acc.add_incoming(0, 2.0)
        assert acc.incoming_value() == 1.0
        assert acc.outgoing_value() == 0.0

    def test_reset_mode(self):
        acc = ValueAccumulator(2)
        acc.add_outgoing(0, 1.0)
        acc.add_incoming(1, 1.0)
        acc.rollover("reset", 0.5)
        assert acc.outgoing_value() == 0.0
        assert acc.incoming_value() == 0.0
        assert acc.out_hits == [0, 0]

    def test_decay_mode(self):
        acc = ValueAccumulator(1)
        acc.add_outgoing(0, 2.0)
        acc.rollover("decay", 0.5)
        assert math.isclose(acc.outgoing_value(), 0.5)  # 2.0*0.5 * w0(=0.5)
        acc.add_outgoing(0, 2.0)
        assert math.isclose(acc.outgoing_value(), 1.5)

    def test_unknown_mode_rejected(self):
        acc = ValueAccumulator(1)
        with pytest.raises(ValueError):
            acc.rollover("fade", 0.5)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ValueAccumulator(0)


class TestDecayKeepsSmallCounts:
    """Regression: int-truncating decay collapsed counts of 1 to 0."""

    def test_single_hit_survives_decay(self):
        acc = ValueAccumulator(2)
        acc.add_outgoing(0, 1.0)
        acc.add_incoming(1, 1.0)
        acc.rollover("decay", 0.5)
        # pre-fix: int(1 * 0.5) == 0 — the segment forgot its only hit
        assert acc.out_hits[0] == pytest.approx(0.5)
        assert acc.inc_hits[1] == pytest.approx(0.5)

    def test_repeated_decay_fades_but_never_zeroes(self):
        acc = ValueAccumulator(1)
        acc.add_outgoing(0, 1.0)
        for _ in range(10):
            acc.rollover("decay", 0.5)
        assert 0 < acc.out_hits[0] == pytest.approx(0.5 ** 10)

    def test_counts_decay_like_values(self):
        # pre-PAMA's count-based values must fade at the same rate as
        # PAMA's penalty-based ones, not collapse to zero first.
        acc = ValueAccumulator(1)
        for _ in range(3):
            acc.add_outgoing(0, 0.25)
        for _ in range(4):
            acc.rollover("decay", 0.9)
        assert acc.out_hits[0] / 3 == pytest.approx(acc.out[0] / 0.75)

    def test_reset_still_returns_ints(self):
        acc = ValueAccumulator(1)
        acc.add_outgoing(0, 1.0)
        acc.rollover("decay", 0.5)
        acc.rollover("reset", 0.5)
        assert acc.out_hits == [0] and acc.inc_hits == [0]


def eq2(weights, masses):
    """Eq. 2 as the accumulator computed it on every call before it
    kept the result: the oracle for the cached sums."""
    return sum(w * v for w, v in zip(weights, masses))


_SEGMENTS = 3
_amounts = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
_steps = st.one_of(
    st.tuples(st.just("out"), st.integers(0, _SEGMENTS - 1), _amounts),
    st.tuples(st.just("inc"), st.integers(0, _SEGMENTS - 1), _amounts),
    st.tuples(st.just("roll"), st.sampled_from(["decay", "reset"]),
              st.floats(min_value=0.0, max_value=1.0)))


class TestCachedSums:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_steps, max_size=60))
    def test_values_equal_a_fresh_sum_after_every_step(self, steps):
        acc = ValueAccumulator(_SEGMENTS)
        for kind, a, b in steps:
            if kind == "out":
                acc.add_outgoing(a, b)
            elif kind == "inc":
                acc.add_incoming(a, b)
            else:
                acc.rollover(a, b)
            # == on purpose: a migration decision compares these floats,
            # so a stale or re-associated sum is a different decision.
            # Both are read after every step, which leaves them cached
            # for the next mutator to invalidate.
            assert acc.outgoing_value() == eq2(acc.weights, acc.out)
            assert acc.incoming_value() == eq2(acc.weights, acc.inc)

    def test_repeated_reads_return_the_same_float(self):
        acc = ValueAccumulator(3)
        for seg, amount in ((0, 0.1), (1, 0.7), (2, 0.3), (0, 1e-9)):
            acc.add_outgoing(seg, amount)
            acc.add_incoming(2 - seg, amount)
        first = (acc.outgoing_value(), acc.incoming_value())
        assert (acc.outgoing_value(), acc.incoming_value()) == first
        assert first == (eq2(acc.weights, acc.out), eq2(acc.weights, acc.inc))

    def test_one_side_does_not_go_stale_when_the_other_moves(self):
        acc = ValueAccumulator(2)
        acc.add_outgoing(0, 1.0)
        assert acc.outgoing_value() == 0.5 and acc.incoming_value() == 0.0
        acc.add_incoming(1, 2.0)
        assert acc.outgoing_value() == 0.5 and acc.incoming_value() == 0.5
        acc.add_outgoing(1, 4.0)
        assert acc.outgoing_value() == 1.5 and acc.incoming_value() == 0.5
