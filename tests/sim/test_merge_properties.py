"""Property-based tests of the merge algebra behind the parallel runtime.

The runtime's reduction (the streaming fold of packed swarm outputs)
rests on a small algebra: ByteLedger / UserTraffic / SwarmResult merge
pairwise.  These tests state the laws directly and let `hypothesis`
hunt for counterexamples:

* merge associativity and commutativity (ByteLedger, UserTraffic),
* SwarmResult.combine associativity,
* ``StreamingReducer`` equals the batched ``merge_outputs`` for every
  completion order,
* the compiled fold equals the python fold, result and pickled state.

Byte quantities are drawn as integer-valued floats (exact in binary
floating point, and closed under the sums these laws take), so the
exact-equality laws genuinely hold bit for bit; the one place the
algebra itself rounds (session-weighted mean durations divide) is
checked with a relative tolerance.  ``hypothesis`` is an optional
dependency: the whole module skips when it is missing.
"""

import math
import pickle
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import kernel_columns, reduce
from repro.sim.accounting import ByteLedger
from repro.sim.kernel import SwarmOutput, merge_outputs
from repro.sim.policies import SwarmKey
from repro.sim.profiling import PROFILE
from repro.sim.reduce import FootprintAccumulator, StreamingReducer
from repro.sim.results import SwarmResult, UserTraffic
from repro.topology.layers import NetworkLayer

#: Acceptance criterion: >= 200 examples per law.
LAW = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HORIZON = 86_400.0
DELTA_TAU = 10.0
UPLOAD_RATIO = 1.0

#: Integer-valued floats: exactly representable, sums of thousands of
#: them stay < 2**53, so float addition over them is associative and
#: commutative *exactly* -- the laws below assert bitwise equality.
exact_bits = st.integers(min_value=0, max_value=2**40).map(float)

#: Any finite float of moderate size, signed zeros and subnormals
#: included: the two folds must agree on every rounding, not only on
#: exact sums.
any_bits = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


def ledgers_over(bits, sessions=st.integers(min_value=0, max_value=10_000)):
    return st.builds(
        ByteLedger,
        server_bits=bits,
        peer_bits=st.dictionaries(
            st.sampled_from(sorted(NetworkLayer, key=lambda l: l.value)),
            bits,
            max_size=3,
        ),
        demanded_bits=bits,
        watch_seconds=bits,
        sessions=sessions,
    )


ledgers = ledgers_over(exact_bits)

user_traffic = st.builds(
    UserTraffic, watched_bits=exact_bits, uploaded_bits=exact_bits
)

swarm_keys = st.builds(
    SwarmKey,
    content_id=st.sampled_from([f"content-{i}" for i in range(6)]),
    isp=st.sampled_from([None, "ISP-1", "ISP-2"]),
    bitrate_class=st.sampled_from([None, "1.50Mbps"]),
)

swarm_results = st.builds(
    SwarmResult,
    key=swarm_keys,
    ledger=ledgers,
    capacity=exact_bits,
    arrival_rate=exact_bits,
    mean_duration=st.integers(min_value=0, max_value=10_000).map(float),
)


def outputs_over(results, bits):
    """Outputs packed by the block writer.  Day ledgers carry no session
    count, and their rows take the ISP of the swarm key."""
    return st.builds(
        SwarmOutput.pack,
        results,
        st.dictionaries(
            st.integers(0, 3), ledgers_over(bits, st.just(0)), max_size=3
        ),
        st.dictionaries(
            st.integers(min_value=0, max_value=40),
            st.builds(UserTraffic, watched_bits=bits, uploaded_bits=bits),
            max_size=4,
        ),
    )


swarm_outputs = outputs_over(swarm_results, exact_bits)

output_lists = st.lists(swarm_outputs, min_size=1, max_size=6)

any_output_lists = st.lists(
    outputs_over(
        st.builds(
            SwarmResult,
            key=swarm_keys,
            ledger=ledgers_over(any_bits),
            capacity=any_bits,
            arrival_rate=any_bits,
            mean_duration=any_bits,
        ),
        any_bits,
    ),
    min_size=1,
    max_size=6,
)


def make_partial(outputs):
    """A self-consistent SimulationResult from generated swarm outputs."""
    return merge_outputs(
        outputs, delta_tau=DELTA_TAU, horizon=HORIZON, upload_ratio=UPLOAD_RATIO
    )


def assert_ledgers_equal(a: ByteLedger, b: ByteLedger):
    assert a.server_bits == b.server_bits
    assert a.peer_bits == b.peer_bits
    assert a.demanded_bits == b.demanded_bits
    assert a.watch_seconds == b.watch_seconds
    assert a.sessions == b.sessions


class TestByteLedgerLaws:
    @LAW
    @given(a=ledgers, b=ledgers, c=ledgers)
    def test_merge_associative(self, a, b, c):
        left = ByteLedger.merged([ByteLedger.merged([a, b]), c])
        right = ByteLedger.merged([a, ByteLedger.merged([b, c])])
        assert_ledgers_equal(left, right)

    @LAW
    @given(a=ledgers, b=ledgers)
    def test_merge_commutative(self, a, b):
        assert_ledgers_equal(ByteLedger.merged([a, b]), ByteLedger.merged([b, a]))

    @LAW
    @given(a=ledgers)
    def test_empty_ledger_is_identity(self, a):
        assert_ledgers_equal(ByteLedger.merged([a, ByteLedger()]), a.copy())
        assert_ledgers_equal(ByteLedger.merged([ByteLedger(), a]), a.copy())

    @LAW
    @given(a=ledgers, b=ledgers)
    def test_merge_never_mutates_source(self, a, b):
        snapshot = b.copy()
        a.copy().merge(b)
        assert_ledgers_equal(b, snapshot)


class TestUserTrafficLaws:
    @LAW
    @given(a=user_traffic, b=user_traffic, c=user_traffic)
    def test_merge_associative(self, a, b, c):
        left = a.copy()
        left.merge(b)
        left.merge(c)
        bc = b.copy()
        bc.merge(c)
        right = a.copy()
        right.merge(bc)
        assert left.watched_bits == right.watched_bits
        assert left.uploaded_bits == right.uploaded_bits

    @LAW
    @given(a=user_traffic, b=user_traffic)
    def test_merge_commutative(self, a, b):
        ab = a.copy()
        ab.merge(b)
        ba = b.copy()
        ba.merge(a)
        assert ab.watched_bits == ba.watched_bits
        assert ab.uploaded_bits == ba.uploaded_bits


class TestSwarmResultLaws:
    @LAW
    @given(a=swarm_results, b=swarm_results, c=swarm_results)
    def test_combine_associative(self, a, b, c):
        key = SwarmKey(content_id="combined")
        left = SwarmResult.combine(key, [SwarmResult.combine(key, [a, b]), c])
        right = SwarmResult.combine(key, [a, SwarmResult.combine(key, [b, c])])
        assert_ledgers_equal(left.ledger, right.ledger)
        assert left.capacity == right.capacity
        assert left.arrival_rate == right.arrival_rate
        # The one genuinely rounding step in the algebra: the
        # session-weighted mean divides, so regrouping may differ in
        # the last ulp.
        assert math.isclose(
            left.mean_duration, right.mean_duration, rel_tol=1e-9, abs_tol=1e-9
        )


class TestStreamingReducerLaws:
    @LAW
    @given(outputs=output_lists, rng=st.randoms())
    def test_any_completion_order_equals_batched(self, outputs, rng):
        """The tentpole law: StreamingReducer(outputs) == from-batched
        merge for *every* permutation of completion order."""
        reference = make_partial(outputs)
        order = list(range(len(outputs)))
        rng.shuffle(order)
        reducer = StreamingReducer(
            delta_tau=DELTA_TAU, horizon=HORIZON, upload_ratio=UPLOAD_RATIO
        )
        for index in order:
            reducer.add(index, [outputs[index]])
        assert reducer.result().identical_to(reference)

    @LAW
    @given(outputs=output_lists, rng=st.randoms())
    def test_footprint_accumulator_matches_dict_fold(self, outputs, rng):
        reference = make_partial(outputs)
        order = list(range(len(outputs)))
        rng.shuffle(order)
        reducer = StreamingReducer(
            delta_tau=DELTA_TAU,
            horizon=HORIZON,
            upload_ratio=UPLOAD_RATIO,
            users=FootprintAccumulator(),
        )
        for index in order:
            reducer.add(index, [outputs[index]])
        result = reducer.result()
        assert result.identical_to(reference)
        assert result.per_user.keys() == reference.per_user.keys()
        for uid, traffic in reference.per_user.items():
            assert result.per_user[uid].watched_bits == traffic.watched_bits
            assert result.per_user[uid].uploaded_bits == traffic.uploaded_bits

    @pytest.mark.skipif(
        not kernel_columns.HAVE_COMPILED, reason="compiled kernel not built"
    )
    @LAW
    @given(outputs=any_output_lists, rng=st.randoms())
    def test_compiled_fold_equals_python_fold(self, outputs, rng):
        """``_ckernel.fold`` replays the python fold: the same result and
        the same pickled reducer state, for any split into contiguous
        blocks and any completion order."""
        size = len(outputs)
        cuts = sorted(rng.sample(range(1, size), rng.randint(0, size - 1)))
        bounds = [0, *cuts, size]
        blocks = [(lo, outputs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(blocks)

        def fold():
            reducer = StreamingReducer(
                delta_tau=DELTA_TAU, horizon=HORIZON, upload_ratio=UPLOAD_RATIO
            )
            for index, block in blocks:
                reducer.add(index, block)
            return reducer

        PROFILE.reset()
        PROFILE.enabled = True
        try:
            compiled = fold()
        finally:
            PROFILE.enabled = False
        assert PROFILE.compiled_folds == len(outputs)
        PROFILE.reset()
        with mock.patch.object(reduce, "_CKERNEL", None):
            python = fold()
        assert pickle.dumps(compiled) == pickle.dumps(python)
        assert compiled.result().identical_to(python.result())
