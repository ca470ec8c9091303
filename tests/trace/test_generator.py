"""Tests for the synthetic trace generator."""

import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import kernel_columns
from repro.topology.city import CityNetwork, default_london
from repro.topology.isp import ISPNetwork
from repro.trace.diurnal import FLAT_PROFILE, UK_TV_PROFILE, DiurnalProfile
from repro.trace.events import SECONDS_PER_DAY, Session
from repro.trace.generator import (
    GeneratorConfig,
    TraceGenerator,
    _compiled,
    _item_columns,
    generate_trace,
    sample_poisson,
)
from repro.trace.population import (
    DEFAULT_DEVICE_MIX,
    DeviceProfile,
    Population,
    User,
    _draw_population,
    _population_columns,
    _population_tables,
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


#: Exchange counts around powers of two: randrange(2**k) draws
#: k + 1 bits and rejects about half of them, randrange(2**k + 1)
#: nearly half too.
exchange_counts = st.one_of(
    st.integers(min_value=1, max_value=700),
    st.integers(min_value=0, max_value=9).flatmap(
        lambda k: st.sampled_from([2**k, 2**k + 1])
    ),
)


@st.composite
def isps(draw, index):
    exchanges = draw(exchange_counts)
    pops = draw(st.integers(min_value=1, max_value=min(exchanges, 9)))
    return ISPNetwork(f"ISP-{index}", num_exchanges=exchanges, num_pops=pops)


#: Cities of 1-6 ISPs with uneven shares and exchange counts.
cities = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.builds(
        CityNetwork,
        name=st.just("City"),
        isps=st.tuples(*(isps(i) for i in range(n))),
        shares=st.tuples(
            *(st.floats(min_value=0.01, max_value=5.0) for _ in range(n))
        ),
    )
)

#: Device mixes of 1-6 profiles; an int bitrate reaches the sessions
#: as the int object itself.
device_mixes = st.lists(
    st.builds(
        DeviceProfile,
        name=st.sampled_from(["tv", "desktop", "mobile", "tablet", "hd-tv"]),
        bitrate=st.one_of(
            st.floats(min_value=1e5, max_value=1e7),
            st.integers(min_value=100_000, max_value=10_000_000),
        ),
        share=st.floats(min_value=0.01, max_value=1.0),
    ),
    min_size=1,
    max_size=6,
).map(tuple)


def _assert_sessions_alike(compiled, reference):
    """Equal sessions whose fields are the same types, the table
    objects shared by identity, that pickle and hash alike."""
    assert compiled == reference
    assert _sessions_digest(compiled) == _sessions_digest(reference)
    for built, made in zip(compiled, reference):
        for name in Session.__dataclass_fields__:
            assert type(getattr(built, name)) is type(getattr(made, name)), name
        assert built.attachment is made.attachment
        assert built.bitrate is made.bitrate
        assert built.device is made.device
        assert hash(built) == hash(made)
        assert pickle.loads(pickle.dumps(built)) == built


def _until_error(sessions):
    """The sessions before the stream raises, and the error's type and
    message (None when it ends cleanly)."""
    seen = []
    try:
        for session in sessions:
            seen.append(session)
    except Exception as exc:  # noqa: BLE001 - the error is the subject
        return seen, (type(exc), str(exc))
    return seen, None


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

    @given(config=configs, profile=profiles, city=cities, device_mix=device_mixes)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_compiled_stream_equals_python_loop(
        self, config, profile, city, device_mix
    ):
        generator = TraceGenerator(
            config=config, profile=profile, city=city, device_mix=device_mix
        )
        compiled = list(generator.iter_sessions())
        with _python_loop():
            reference = list(generator.iter_sessions())
        _assert_sessions_alike(compiled, reference)

    @pytest.mark.parametrize("fault", ["infinite bitrate", "empty content id"])
    def test_invalid_session_fails_alike(self, fault):
        """A device streaming at an infinite bitrate, or an item with an
        empty content id, fails Session's checks at the same session,
        with the same error, on both paths."""
        devices = DEFAULT_DEVICE_MIX
        pinned = {}
        if fault == "infinite bitrate":
            devices = (DeviceProfile("tv", math.inf, 0.1),) + devices
        else:
            pinned = {"": 30.0}
        config = GeneratorConfig(
            num_users=200,
            num_items=20,
            days=2,
            expected_sessions=1_000,
            pinned_views=pinned,
            seed=3,
        )
        generator = TraceGenerator(config=config, device_mix=devices)
        compiled, error = _until_error(generator.iter_sessions())
        with _python_loop():
            reference, expected = _until_error(generator.iter_sessions())
        assert error is not None and error == expected
        assert compiled == reference
        assert error[0] is ValueError

    def test_builds_no_session_init_and_no_user(self, monkeypatch):
        """The compiled front end runs no ``Session.__init__`` and builds
        no ``User``; the masked python loop runs one ``__init__`` per
        session.  A compiled build that quietly stays on the python loop
        fails here."""
        counts = Counter()

        def spy(cls):
            post_init = cls.__post_init__

            def counted(self):
                counts[cls.__name__] += 1
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)

        spy(Session)
        spy(User)
        sessions = list(TraceGenerator(config=SMALL).iter_sessions())
        assert sessions and counts == Counter()
        with _python_loop():
            assert list(TraceGenerator(config=SMALL).iter_sessions()) == sessions
        assert counts == Counter({"Session": len(sessions)})

    def test_session_maker_declines_without_slots(self):
        """A session type whose fields are not plain slots gets None:
        the generator then runs its python loop."""

        class Loose:
            pass

        codes = array("I", [0])
        maker = _compiled().session_maker(
            Loose, ("a",), codes, (1.0,), ("tv",), codes
        )
        assert maker is None

    @pytest.mark.parametrize(
        "start, duration",
        [
            (math.inf, 60.0),
            (-1.0, 60.0),
            (math.nan, 60.0),
            (10.0, math.inf),
            (10.0, 0.0),
            (10.0, math.nan),
        ],
    )
    def test_session_maker_applies_session_checks(self, start, duration):
        """An infinite start or duration (or a negative or NaN one)
        fails with the ValueError ``Session(...)`` raises."""
        attachment = default_london().isps[0].attachment(0)
        codes = array("I", [0])
        maker = _compiled().session_maker(
            Session, (attachment,), codes, (1.0,), ("tv",), codes
        )
        with pytest.raises(ValueError) as expected:
            Session(0, 0, "item", start, duration, 1.0, attachment, "tv")
        sessions = maker(
            0, "item", 1, array("d", [start]), array("d", [duration]), array("q", [0])
        )
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            next(sessions)

    def test_session_maker_rejects_mistyped_columns(self):
        ckernel = _compiled()
        attachment = default_london().isps[0].attachment(0)
        codes = array("I", [0])
        maker = ckernel.session_maker(
            Session, (attachment,), codes, (1.0,), ("tv",), codes
        )
        starts, viewers = array("d", [1.0]), array("q", [0])
        assert list(maker(5, "item", 1, starts, starts, viewers)) == [
            Session(5, 0, "item", 1.0, 1.0, 1.0, attachment, "tv")
        ]
        assert list(maker(5, "item", 0, starts, starts, viewers)) == []
        with pytest.raises(TypeError):
            maker(0, "item", 1, starts, starts, array("i", [0]))
        with pytest.raises(ValueError):
            maker(0, "item", 1, starts, array("d"), viewers)
        with pytest.raises(ValueError):
            maker(0, "item", -1, starts, starts, viewers)
        with pytest.raises(IndexError):
            list(maker(0, "item", 1, starts, starts, array("q", [1])))

    def test_compiled_path_is_taken(self):
        assert _compiled() is not None
        with _python_loop():
            assert _compiled() is None

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
        kept, *compiled = _compiled().replay_item(
            compiled_rng.random,
            array("d", hourly),
            horizon,
            array("d", cum_weights),
            *draws,
        )
        assert [list(column[:kept]) for column in compiled] == list(reference)
        assert compiled_rng.getstate() == python_rng.getstate()
        assert not python_rng.script and not compiled_rng.script
        assert reference[0][0] >= 2 * 3600.0  # the zero-mass hour

    def test_returns_typed_columns(self):
        """The kept count and the columns at their drawn length: a
        replay never resizes its arrays."""
        rng = random.Random(1)
        kept, starts, durations, viewers = _compiled().replay_item(
            rng.random, array("d", [0.0, 1.0]), 3600.0, array("d", [1.0]),
            6.0, 2.0, 60.0, 5, 1800.0,
        )
        assert (starts.typecode, durations.typecode, viewers.typecode) == (
            "d", "d", "q",
        )
        assert len(starts) == len(durations) == len(viewers) == 5
        assert 0 <= kept <= 5

    def test_invalid_inputs_raise(self):
        replay = _compiled().replay_item
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


@needs_compiled
class TestCompiledPopulation:
    """The C population replay is the python columns, draw for draw.

    ``_ckernel.replay_population`` takes every uniform from the
    generator's bound ``random()`` and every exchange from its
    ``getrandbits()``, and repeats random.py's ``bisect``, ``choices``
    and ``normalvariate`` arithmetic; ``Population.generate`` builds its
    users from the python columns.  All three must agree field by field
    and leave the generator in the same state.
    """

    @given(
        num_users=st.integers(min_value=1, max_value=300),
        city=cities,
        devices=device_mixes,
        activity_sigma=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replay_equals_python_columns_and_users(
        self, num_users, city, devices, activity_sigma, seed
    ):
        draws = (num_users, city, devices, activity_sigma)
        compiled_rng, python_rng, users_rng = (random.Random(seed) for _ in range(3))
        compiled = _draw_population(*draws, compiled_rng)
        python = _population_columns(*draws, python_rng)
        population = Population.generate(
            num_users,
            city=city,
            device_mix=devices,
            activity_sigma=activity_sigma,
            rng=users_rng,
        )
        assert compiled_rng.getstate() == python_rng.getstate()
        assert users_rng.getstate() == python_rng.getstate()
        attachments, codes, device_codes, activity = python
        assert all(a is b for a, b in zip(compiled[0], attachments))
        assert len(compiled[0]) == len(attachments)
        for built, reference in zip(compiled[1:], python[1:]):
            assert built.typecode == reference.typecode
            assert built.tobytes() == reference.tobytes()
        for user_id, user in enumerate(population):
            assert user.user_id == user_id
            assert user.attachment is attachments[codes[user_id]]
            assert user.device is devices[device_codes[user_id]]
            assert user.activity.hex() == activity[user_id].hex()

    def test_generator_takes_the_replay(self, monkeypatch):
        real = _compiled()
        calls = []

        class Spy:
            def __getattr__(self, name):
                return getattr(real, name)

            def replay_population(self, *args):
                calls.append(args[-1])
                return real.replay_population(*args)

        monkeypatch.setattr(kernel_columns, "_ckernel", Spy())
        next(TraceGenerator(config=SMALL).iter_sessions())
        assert calls == [SMALL.num_users]

    def test_randrange_rejections_consume_getrandbits(self):
        """At 2**k exchanges randrange draws k + 1 bits and rejects
        about half of them; states agree after every rejection."""
        city = CityNetwork(
            name="City", isps=(ISPNetwork("ISP-1", 256, 4),), shares=(1.0,)
        )
        compiled_rng, python_rng = random.Random(5), random.Random(5)
        compiled = _draw_population(500, city, DEFAULT_DEVICE_MIX, 1.0, compiled_rng)
        python = _population_columns(500, city, DEFAULT_DEVICE_MIX, 1.0, python_rng)
        assert compiled[1] == python[1]
        assert compiled_rng.getstate() == python_rng.getstate()

    def test_top_uniform_picks_the_last_device(self):
        """``choices`` bisects below ``hi = n - 1``: a uniform of 1.0,
        which ``random()`` never returns but a scripted stream can,
        picks the last device rather than running past the table."""

        class Scripted(_Scripted):
            def getrandbits(self, k):  # keeps randrange on getrandbits
                return super().getrandbits(k)

        city = default_london(2, (0.5, 0.5), num_exchanges=9, num_pops=3)
        script = [0.25, 1.0]  # the ISP draw, then the device draw
        compiled_rng, python_rng = Scripted(2, script), Scripted(2, script)
        _, offsets, sizes, cumulative, cum_shares = _population_tables(
            3, city, DEFAULT_DEVICE_MIX, 1.0
        )
        compiled = _compiled().replay_population(
            compiled_rng.random,
            compiled_rng.getrandbits,
            array("d", cumulative),
            array("q", offsets),
            array("q", sizes),
            array("d", cum_shares),
            1.0,
            3,
        )
        python = _population_columns(3, city, DEFAULT_DEVICE_MIX, 1.0, python_rng)
        assert python[2][0] == len(DEFAULT_DEVICE_MIX) - 1
        assert [c.tobytes() for c in compiled] == [c.tobytes() for c in python[1:]]
        assert compiled_rng.getstate() == python_rng.getstate()

    def test_invalid_inputs_raise(self):
        replay = _compiled().replay_population
        rng = random.Random(1)
        one, zero, shares = array("q", [1]), array("q", [0]), array("d", [1.0])
        bits = rng.getrandbits
        with pytest.raises(ValueError):  # no ISP
            replay(rng.random, bits, array("d"), one, one, shares, 1.0, 1)
        with pytest.raises(ValueError):  # an ISP without exchanges
            replay(rng.random, bits, shares, one, zero, shares, 1.0, 1)
        with pytest.raises(ZeroDivisionError):
            replay(lambda: 1 / 0, bits, shares, one, one, shares, 1.0, 1)
        overflow, underflow = random.Random(0), random.Random(1)
        with pytest.raises(OverflowError, match="^math range error$"):
            replay(overflow.random, overflow.getrandbits, shares, one, one,
                   shares, 1e300, 5)
        with pytest.raises(ValueError, match=r"^activity must be > 0, got 0\.0$"):
            replay(underflow.random, underflow.getrandbits, shares, one, one,
                   shares, 1e300, 5)


class TestPopulationInputs:
    """The generator checks its population's inputs as
    ``Population.generate`` does, compiled and on the python loop, and
    fails with the same error."""

    @staticmethod
    def _errors(generator):
        def error(call):
            with pytest.raises((ValueError, OverflowError)) as raised:
                call()
            return type(raised.value), str(raised.value)

        expected = error(generator.build_population)
        compiled = error(lambda: next(generator.iter_sessions()))
        with _python_loop():
            python = error(lambda: next(generator.iter_sessions()))
        return expected, compiled, python

    @pytest.mark.parametrize(
        "device_mix, sigma, message",
        [
            ((), 1.0, "device_mix must be non-empty"),
            (DEFAULT_DEVICE_MIX, -1.0, "activity_sigma must be >= 0, got -1.0"),
        ],
    )
    def test_invalid_inputs_fail_before_any_draw(self, device_mix, sigma, message):
        config = GeneratorConfig(
            num_users=50, num_items=5, days=1, expected_sessions=100,
            activity_sigma=sigma,
        )
        generator = TraceGenerator(config=config, device_mix=device_mix)
        assert self._errors(generator) == ((ValueError, message),) * 3

    @pytest.mark.parametrize(
        "seed, error",
        [
            (0, (ValueError, "activity must be > 0, got 0.0")),
            (3, (OverflowError, "math range error")),
        ],
    )
    def test_out_of_range_activity_fails_alike(self, seed, error):
        """At sigma 1e4 an activity's ``exp`` underflows to 0.0 (which
        ``User`` refuses) or overflows, whichever comes first."""
        config = GeneratorConfig(
            num_users=50, num_items=5, days=1, expected_sessions=100,
            activity_sigma=1e4, seed=seed,
        )
        assert self._errors(TraceGenerator(config=config)) == (error,) * 3


class TestPopulationColumns:
    """The python columns are the per-user draws ``Population.generate``
    made before it drew columns: ``city.sample_attachment``, then
    ``choices`` over the devices, then ``lognormvariate``, user by user.
    """

    @given(
        num_users=st.integers(min_value=1, max_value=200),
        city=cities,
        devices=device_mixes,
        activity_sigma=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_are_the_per_user_draws(
        self, num_users, city, devices, activity_sigma, seed
    ):
        python_rng, loop_rng = random.Random(seed), random.Random(seed)
        attachments, codes, device_codes, activity = _population_columns(
            num_users, city, devices, activity_sigma, python_rng
        )
        cum_shares = list(accumulate(d.share for d in devices))
        for user in range(num_users):
            assert attachments[codes[user]] == city.sample_attachment(loop_rng)
            device = loop_rng.choices(devices, cum_weights=cum_shares)[0]
            assert devices[device_codes[user]] is device
            weight = loop_rng.lognormvariate(0.0, activity_sigma)
            assert activity[user].hex() == weight.hex()
        assert python_rng.getstate() == loop_rng.getstate()
