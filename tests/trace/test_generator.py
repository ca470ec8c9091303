"""Tests for the synthetic trace generator."""

import hashlib
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import kernel_columns
from repro.trace.diurnal import FLAT_PROFILE, UK_TV_PROFILE, DiurnalProfile
from repro.trace.events import SECONDS_PER_DAY
from repro.trace.generator import (
    GeneratorConfig,
    TraceGenerator,
    _compiled_replay,
    _item_columns,
    generate_trace,
    sample_poisson,
)


SMALL = GeneratorConfig(
    num_users=800,
    num_items=100,
    days=3,
    expected_sessions=4_000,
    seed=11,
)


@pytest.fixture(scope="module")
def small_trace():
    return TraceGenerator(config=SMALL).generate()


class TestSamplePoisson:
    def test_zero_lambda(self):
        assert sample_poisson(random.Random(1), 0.0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_poisson(random.Random(1), -1.0)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 25.0, 100.0, 5_000.0])
    def test_mean_and_variance(self, lam):
        rng = random.Random(42)
        n = 4_000
        draws = [sample_poisson(rng, lam) for _ in range(n)]
        mean = sum(draws) / n
        var = sum((d - mean) ** 2 for d in draws) / n
        assert mean == pytest.approx(lam, rel=0.1)
        assert var == pytest.approx(lam, rel=0.25)

    @given(lam=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=50)
    def test_nonnegative_int(self, lam):
        value = sample_poisson(random.Random(0), lam)
        assert isinstance(value, int)
        assert value >= 0


class TestGeneratorConfig:
    def test_horizon(self):
        assert SMALL.horizon == 3 * SECONDS_PER_DAY

    def test_scaled(self):
        big = GeneratorConfig(pinned_views={"hit": 100.0})
        half = big.scaled(0.5)
        assert half.num_users == big.num_users // 2
        assert half.expected_sessions == pytest.approx(big.expected_sessions / 2)
        assert half.pinned_views["hit"] == pytest.approx(50.0)
        assert half.days == big.days  # time axis untouched

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            SMALL.scaled(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_users": 0},
            {"num_items": 0},
            {"days": 0},
            {"expected_sessions": -1.0},
            {"completion_alpha": 0.0},
            {"min_session_seconds": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)


class TestGeneratedTrace:
    def test_session_count_near_expectation(self, small_trace):
        # Poisson totals plus the min-duration filter: within ~10 %.
        assert len(small_trace) == pytest.approx(4_000, rel=0.1)

    def test_sessions_within_horizon(self, small_trace):
        assert all(s.start >= 0 for s in small_trace)
        assert all(s.end <= small_trace.horizon + 1e-6 for s in small_trace)

    def test_durations_respect_minimum(self, small_trace):
        assert all(s.duration >= SMALL.min_session_seconds for s in small_trace)

    def test_durations_bounded_by_longest_programme(self, small_trace):
        assert all(s.duration <= 5_400.0 + 1e-6 for s in small_trace)

    def test_bitrates_from_device_mix(self, small_trace):
        bitrates = {s.bitrate for s in small_trace}
        assert bitrates <= {0.8e6, 1.5e6, 3.0e6, 5.0e6}

    def test_users_come_from_population(self, small_trace):
        assert all(0 <= s.user_id < SMALL.num_users for s in small_trace)

    def test_user_attachment_consistent(self, small_trace):
        """A user keeps one attachment point across all their sessions."""
        seen = {}
        for s in small_trace:
            if s.user_id in seen:
                assert seen[s.user_id] == s.attachment
            else:
                seen[s.user_id] = s.attachment

    def test_popularity_skew_realised(self, small_trace):
        views = Counter(s.content_id for s in small_trace)
        top = views.most_common(1)[0][1]
        median = sorted(views.values())[len(views) // 2]
        assert top > 5 * median

    def test_deterministic(self):
        a = TraceGenerator(config=SMALL).generate()
        b = TraceGenerator(config=SMALL).generate()
        assert len(a) == len(b)
        assert a.sessions[:50] == b.sessions[:50]
        assert a.sessions[-1] == b.sessions[-1]

    def test_seed_changes_trace(self):
        other = TraceGenerator(config=GeneratorConfig(
            num_users=SMALL.num_users,
            num_items=SMALL.num_items,
            days=SMALL.days,
            expected_sessions=SMALL.expected_sessions,
            seed=99,
        )).generate()
        base = TraceGenerator(config=SMALL).generate()
        assert base.sessions[:20] != other.sessions[:20]

    def test_pinned_item_views(self):
        config = GeneratorConfig(
            num_users=500,
            num_items=20,
            days=2,
            expected_sessions=3_000,
            pinned_views={"exemplar": 1_000.0},
            seed=5,
        )
        trace = TraceGenerator(config=config).generate()
        views = Counter(s.content_id for s in trace)
        assert views["exemplar"] == pytest.approx(1_000, rel=0.15)

    def test_diurnal_shape_respected(self):
        trace = TraceGenerator(config=SMALL).generate()
        hours = Counter(int((s.start % SECONDS_PER_DAY) // 3600) for s in trace)
        assert hours[21] > 3 * max(hours[3], 1)

    def test_flat_profile_option(self):
        trace = TraceGenerator(config=SMALL, profile=FLAT_PROFILE).generate()
        hours = Counter(int((s.start % SECONDS_PER_DAY) // 3600) for s in trace)
        assert max(hours.values()) < 3 * min(hours.values())


class TestGenerateTraceHelper:
    def test_defaults_smoke(self):
        config = GeneratorConfig(
            num_users=200, num_items=20, days=1, expected_sessions=500, seed=1
        )
        trace = generate_trace(config)
        assert len(trace) > 300
        assert trace.num_days == 1


class TestIterSessions:
    def test_stream_equals_generated_trace(self):
        """iter_sessions is the lazy twin of generate(): identical
        sessions, identical order of RNG consumption."""
        gen = TraceGenerator(config=SMALL)
        streamed = list(gen.iter_sessions())
        materialized = TraceGenerator(config=SMALL).generate()
        assert sorted(streamed, key=lambda s: (s.start, s.session_id)) == list(
            materialized.sessions
        )

    def test_stream_is_lazy(self):
        gen = TraceGenerator(config=SMALL)
        iterator = gen.iter_sessions()
        first = next(iterator)
        assert first.session_id == 0

    def test_stream_is_restartable(self):
        gen = TraceGenerator(config=SMALL)
        assert list(gen.iter_sessions()) == list(gen.iter_sessions())


class TestAttachmentInterning:
    """The flyweight satellite: per-session attachments share identity.

    Attachment points are interned per (ISP, PoP, exchange) triple
    (repro.topology.nodes.intern_attachment), so a month-scale trace
    holds thousands of shared attachment objects instead of millions of
    duplicates -- without consuming any randomness (the RNG streams,
    and hence every generated session, are unchanged; the golden
    fixtures in tests/golden/ pin that down to the bit).
    """

    def test_generated_attachments_share_identity(self):
        trace = TraceGenerator(config=SMALL).generate()
        by_triple = {}
        for session in trace:
            a = session.attachment
            assert by_triple.setdefault((a.isp, a.pop, a.exchange), a) is a
        # Far fewer distinct objects than sessions: the point of the
        # flyweight.
        assert len({id(s.attachment) for s in trace}) == len(by_triple)
        assert len(by_triple) < len(trace)

    def test_interning_is_identity_stable(self):
        from repro.topology.nodes import AttachmentPoint, intern_attachment

        a = intern_attachment("ISP-1", 2, 30)
        b = intern_attachment("ISP-1", 2, 30)
        assert a is b
        assert a == AttachmentPoint(isp="ISP-1", pop=2, exchange=30)
        assert intern_attachment("ISP-2", 2, 30) is not a

    def test_rng_streams_unchanged_by_interning(self):
        """Interning consumes no randomness: two generators with the
        same seed still produce identical traces (the regression this
        satellite guards -- a cache that drew from an RNG would skew
        every downstream stream)."""
        first = TraceGenerator(config=SMALL).generate()
        second = TraceGenerator(config=SMALL).generate()
        assert first.sessions == second.sessions


# ----------------------------------------------------------------------
# The compiled replay law: _ckernel.replay_item == the python loop
# ----------------------------------------------------------------------

needs_compiled = pytest.mark.skipif(
    not kernel_columns.HAVE_COMPILED, reason="compiled kernel not built"
)


@contextmanager
def _python_loop():
    """Mask the compiled module, as an install without it sees it."""
    saved = kernel_columns._ckernel, kernel_columns.HAVE_COMPILED
    kernel_columns._ckernel, kernel_columns.HAVE_COMPILED = None, False
    try:
        yield
    finally:
        kernel_columns._ckernel, kernel_columns.HAVE_COMPILED = saved


def _sessions_digest(sessions):
    """Hash of every session field, floats by exact repr."""
    hasher = hashlib.sha256()
    for session in sessions:
        hasher.update(repr(session).encode())
    return hasher.hexdigest()


#: Beta shapes below, at and above 1 reach all three gammavariate
#: branches (GS, exponential, Cheng).
shapes = st.one_of(
    st.sampled_from([0.3, 0.5, 1.0, 2.0, 6.0]),
    st.floats(min_value=0.05, max_value=12.0),
)

#: Hourly weights with zero-weight hours (at least one positive).
hourly_weights = st.lists(
    st.sampled_from([0.0, 0.0, 0.05, 1.0, 2.4]), min_size=24, max_size=24
).filter(lambda weights: sum(weights) > 0)

profiles = st.one_of(
    st.sampled_from([UK_TV_PROFILE, FLAT_PROFILE]),
    st.builds(
        DiurnalProfile,
        hourly=hourly_weights.map(tuple),
        weekend_multiplier=st.sampled_from([1.0, 0.5, 1.15]),
    ),
)

configs = st.builds(
    GeneratorConfig,
    num_users=st.integers(min_value=1, max_value=120),
    num_items=st.integers(min_value=1, max_value=30),
    days=st.integers(min_value=1, max_value=3),
    # Few items with many expected views reach sample_poisson's gauss
    # branch (lam >= 30); many items with few views its product branch.
    expected_sessions=st.floats(min_value=0.0, max_value=2_500.0),
    zipf_exponent=st.floats(min_value=0.0, max_value=2.0),
    completion_alpha=shapes,
    completion_beta=shapes,
    min_session_seconds=st.floats(min_value=0.5, max_value=6_000.0),
    activity_sigma=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


class _Scripted(random.Random):
    """A seeded stream whose first uniforms are given."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def random(self):
        return self.script.pop(0) if self.script else super().random()


@needs_compiled
class TestCompiledReplay:
    """The C replay of each item's draws is the python loop, bit for bit.

    ``_ckernel.replay_item`` pulls every uniform from the generator's
    own ``random.Random`` and repeats :func:`_item_columns`' float
    operations; any divergence -- a swapped gamma draw, a missed
    rejection, a ``min``/``max`` tie broken the other way -- desyncs
    the stream and changes every later session.
    """

    @given(config=configs, profile=profiles)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_compiled_stream_equals_python_loop(self, config, profile):
        generator = TraceGenerator(config=config, profile=profile)
        compiled = list(generator.iter_sessions())
        with _python_loop():
            reference = list(generator.iter_sessions())
        assert compiled == reference
        assert _sessions_digest(compiled) == _sessions_digest(reference)

    def test_compiled_path_is_taken(self):
        assert _compiled_replay() is not None
        with _python_loop():
            assert _compiled_replay() is None

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.7), (1.0, 1.0), (6.0, 2.0)])
    def test_zero_mass_hour_draws_a_second_uniform(self, alpha, beta):
        """A point at the table's end lands in a zero-weight last hour.

        ``random() * total`` never reaches ``total`` for a real stream,
        so the scripted first uniform 1.0 forces ``mass == 0``: the
        hour's offset is then a second uniform, and both paths must
        consume it (equal generator states afterwards).
        """
        hourly = [0.0, 1.0, 3.0, 3.0]  # hours 0-2, the last weight 0
        horizon, cum_weights = 3 * 3600.0, [0.5, 1.5, 1.75]
        draws = (alpha, beta, 60.0, 40, 1800.0)
        python_rng = _Scripted(3, [1.0])
        reference = _item_columns(python_rng, hourly, horizon, cum_weights, *draws)
        compiled_rng = _Scripted(3, [1.0])
        compiled = _compiled_replay()(
            compiled_rng.random,
            array("d", hourly),
            horizon,
            array("d", cum_weights),
            *draws,
        )
        assert [list(column) for column in compiled] == list(reference)
        assert compiled_rng.getstate() == python_rng.getstate()
        assert not python_rng.script and not compiled_rng.script
        assert reference[0][0] >= 2 * 3600.0  # the zero-mass hour

    def test_returns_typed_columns(self):
        rng = random.Random(1)
        starts, durations, viewers = _compiled_replay()(
            rng.random, array("d", [0.0, 1.0]), 3600.0, array("d", [1.0]),
            6.0, 2.0, 60.0, 5, 1800.0,
        )
        assert (starts.typecode, durations.typecode, viewers.typecode) == (
            "d", "d", "q",
        )

    def test_invalid_inputs_raise(self):
        replay = _compiled_replay()
        hourly, weights = array("d", [0.0, 1.0]), array("d", [1.0])
        rng = random.Random(1)
        with pytest.raises(ValueError):
            replay(rng.random, hourly, 3600.0, weights, 6.0, 2.0, 60.0, -1, 1800.0)
        with pytest.raises(ValueError):
            replay(rng.random, hourly, 3600.0, weights, 0.0, 2.0, 60.0, 1, 1800.0)
        with pytest.raises(ValueError):
            zero = array("d", [0.0])
            replay(rng.random, hourly, 3600.0, zero, 6.0, 2.0, 60.0, 1, 1800.0)
        with pytest.raises(ZeroDivisionError):
            replay(lambda: 1 / 0, hourly, 3600.0, weights, 6.0, 2.0, 60.0, 1, 1800.0)

    def test_compiled_stream_matches_no_ckernel_subprocess(self):
        """A compiled install and a ``REPRO_NO_CKERNEL=1`` interpreter,
        separated by a process boundary, generate the same trace."""
        config = GeneratorConfig(
            num_users=400, num_items=60, days=2, expected_sessions=3_000, seed=7
        )
        expected = _sessions_digest(TraceGenerator(config=config).iter_sessions())
        code = (
            "import hashlib\n"
            "from repro.sim.kernel_columns import HAVE_COMPILED\n"
            "from repro.trace.generator import GeneratorConfig, TraceGenerator\n"
            "assert not HAVE_COMPILED\n"
            "config = GeneratorConfig(num_users=400, num_items=60, days=2, "
            "expected_sessions=3_000, seed=7)\n"
            "hasher = hashlib.sha256()\n"
            "for session in TraceGenerator(config=config).iter_sessions():\n"
            "    hasher.update(repr(session).encode())\n"
            "print(hasher.hexdigest())\n"
        )
        env = dict(os.environ, REPRO_NO_CKERNEL="1")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected
