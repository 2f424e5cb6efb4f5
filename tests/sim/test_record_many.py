"""Property tests: the array forms of the per-request recorders.

``Histogram.record_many``, ``MetricsCollector.record_many`` and
``TimelineRecorder.record_many`` must leave exactly the state that the
per-request methods leave when fed the same values one by one — float
sums bit for bit (they accumulate left to right, ``seq_sum``), buckets
as ``bisect_left`` files them, NaN handled the scalar way.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import seq_sum
from repro.obs import TimelineRecorder
from repro.obs.registry import Histogram
from repro.sim.metrics import MetricsCollector
from tests.sim.test_kernel_differential import record_get

LO, GROWTH, NBUCKETS = 1e-6, 1.25, 24
BOUNDS = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS).bounds
EDGES = [x for b in BOUNDS
         for x in (b, math.nextafter(b, 0.0), math.nextafter(b, math.inf))]
SPECIAL = [0.0, -0.0, LO / 3, BOUNDS[-1] * 7, math.inf, math.nan, -1.0]

values = st.lists(st.one_of(st.sampled_from(EDGES + SPECIAL),
                            st.floats(min_value=0.0, max_value=1.0),
                            st.floats(allow_nan=True, allow_infinity=True)),
                  max_size=60)
finite_costs = st.floats(min_value=0.0, max_value=10.0)


def same(a, b) -> bool:
    """``==`` where NaN equals NaN (a NaN sum is a NaN sum)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def split(seq, cuts):
    """``seq`` cut into consecutive runs at the (sorted, clipped) cuts."""
    edges = [0] + sorted(min(c, len(seq)) for c in cuts) + [len(seq)]
    return [seq[a:b] for a, b in zip(edges, edges[1:])]


def hist_state(h: Histogram):
    return (h.count, h.sum, h.min, h.max, h.counts)


class TestSeqSum:
    @given(st.floats(-1e6, 1e6), st.lists(st.floats(-1e6, 1e6), max_size=300))
    def test_equals_the_python_loop(self, carry, xs):
        total = carry
        for x in xs:
            total += x
        assert seq_sum(carry, np.array(xs, dtype=np.float64)) == total

    def test_pairwise_sum_would_not(self):
        xs = np.random.default_rng(3).lognormal(size=100_000)
        total = 0.25
        for x in xs.tolist():
            total += x
        assert seq_sum(0.25, xs) == total
        assert 0.25 + xs.sum() != total

    def test_opposite_infinities_make_nan_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(seq_sum(0.0, np.array([math.inf, -math.inf])))


class TestHistogram:
    @given(values, st.lists(st.integers(0, 60), max_size=4))
    @settings(max_examples=300)
    def test_record_many_is_record_per_value(self, xs, cuts):
        one = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS)
        many = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS)
        for x in xs:
            one.record(x)
        for run in split(xs, cuts):
            many.record_many(np.array(run, dtype=np.float64))
        assert same(hist_state(many), hist_state(one))
        assert sum(many.counts) == many.count == len(xs)

    def test_every_bound_lands_where_bisect_files_it(self):
        one = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS)
        many = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS)
        finite = [x for x in EDGES + SPECIAL if x == x]
        for x in finite:
            one.record(x)
        many.record_many(np.array(finite))
        assert hist_state(many) == hist_state(one)
        assert many.counts[-1] == 3  # past the last bound, and inf

    def test_nan_goes_to_bucket_zero_and_leaves_min_max(self):
        many = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS)
        many.record_many(np.array([0.5, math.nan, 0.25]))
        assert many.counts[0] == 1 and many.count == 3
        assert (many.min, many.max) == (0.25, 0.5)
        assert math.isnan(many.sum)

    def test_empty_input_is_a_no_op(self):
        h = Histogram("h", lo=LO, growth=GROWTH, nbuckets=NBUCKETS)
        h.record(0.5)
        before = hist_state(h)
        h.record_many(np.array([]))
        h.record_many([])
        assert hist_state(h) == before


outcomes = st.lists(st.tuples(st.booleans(), finite_costs), max_size=80)


def collector_state(m: MetricsCollector):
    return (m.windows, m._gets, m._hits, m._penalty, m._service,
            m.total_gets, m.total_hits, m.total_penalty, m.total_service)


class TestMetricsCollector:
    @given(outcomes, st.integers(1, 9),
           st.lists(st.integers(0, 80), max_size=5))
    @settings(max_examples=300)
    def test_any_split_into_runs_is_the_per_request_sequence(
            self, seq, window_gets, cuts):
        def collector():
            closes = []

            def snapshot():  # what a close sees: how many came before
                closes.append(len(closes))
                return {0: len(closes)}, {}
            return MetricsCollector(window_gets, snapshot)

        one, many = collector(), collector()
        for hit, cost in seq:
            (one.record_hit if hit else one.record_miss)(cost)
        for run in split(seq, cuts):
            many.record_many(np.array([h for h, _ in run], dtype=bool),
                             np.array([c for _, c in run], dtype=np.float64))
            assert 1 <= many.gets_to_close <= window_gets
        assert collector_state(many) == collector_state(one)
        one.flush()
        many.flush()
        assert many.windows == one.windows

    def test_empty_input_is_a_no_op(self):
        m = MetricsCollector(3)
        m.record_miss(0.5)
        before = collector_state(m)
        m.record_many(np.array([], dtype=bool), np.array([]))
        assert collector_state(m) == before


penalties = st.one_of(st.just(math.nan), finite_costs)
gets = st.lists(st.tuples(st.booleans(), finite_costs, penalties),
                max_size=60)


def recorder_state(t: TimelineRecorder):
    return (t._gets, t._hits, t._service, t._penalty, hist_state(t._hist),
            t._window_start, t.rows_closed)


class TestTimelineRecorder:
    @given(gets, st.lists(st.integers(0, 60), max_size=4))
    @settings(max_examples=300)
    def test_record_many_is_record_get_inside_the_open_window(self, seq,
                                                              cuts):
        one, many = TimelineRecorder(stride=100), TimelineRecorder(stride=100)
        for recorder in (one, many):  # a closed row behind both
            record_get(recorder, 3, False, 0.5, 0.5)
            recorder.advance(100)
        assert one.next_close == many.next_close == 200
        for tick, (hit, cost, penalty) in enumerate(seq, start=110):
            record_get(one, tick, hit, cost, penalty)
        for run in split(seq, cuts):
            many.record_many(
                np.array([h for h, _, _ in run], dtype=bool),
                np.array([c for _, c, _ in run], dtype=np.float64),
                np.array([p for _, _, p in run], dtype=np.float64))
        assert recorder_state(many) == recorder_state(one)
        assert not math.isnan(many._penalty)  # NaN penalties are skipped
        one.finish()
        many.finish()
        assert many.rows == one.rows

    def test_empty_input_is_a_no_op(self):
        t = TimelineRecorder(stride=100)
        record_get(t, 1, True, 0.5)
        before = recorder_state(t)
        empty = np.array([])
        t.record_many(empty.astype(bool), empty, empty)
        assert recorder_state(t) == before
