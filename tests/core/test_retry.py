"""Tests for the retry policy, circuit breaker, and retry executor."""

import random

import pytest

from repro.core.retry import CircuitBreaker, RetryExecutor, RetryPolicy, RetryStats
from repro.net.ipv4 import IPv4Address
from repro.util.clock import SimClock
from repro.util.errors import (
    CircuitOpen,
    ConnectionTimeout,
    PoisonError,
    QuarantineSkip,
)

IP = IPv4Address.parse("203.0.113.7")
SIBLING = IPv4Address(IP.value + 1)
OTHER_BLOCK = IPv4Address.parse("203.0.114.7")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=5.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(exponential_base=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(per_host_budget=-1)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=60.0, jitter=False)
        rng = random.Random(0)
        delays = [policy.backoff_delay(a, rng) for a in range(4)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=5.0, jitter=False)
        rng = random.Random(0)
        assert policy.backoff_delay(10, rng) == 5.0

    def test_jitter_stays_in_half_open_interval(self):
        policy = RetryPolicy(base_delay=4.0, max_delay=60.0, jitter=True)
        rng = random.Random(1)
        for _ in range(200):
            delay = policy.backoff_delay(0, rng)
            assert 2.0 <= delay <= 4.0

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy()
        first = [policy.backoff_delay(a, random.Random(9)) for a in range(5)]
        second = [policy.backoff_delay(a, random.Random(9)) for a in range(5)]
        assert first == second


class FailNTimes:
    """Raises ConnectionTimeout on the first ``n`` calls, then succeeds."""

    def __init__(self, n, result="ok"):
        self.n = n
        self.result = result
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n:
            raise ConnectionTimeout("injected")
        return self.result


class TestRetryExecutorCall:
    def _executor(self, policy=None, **kwargs):
        policy = policy or RetryPolicy(max_attempts=3, jitter=False)
        return RetryExecutor(policy, rng=random.Random(0), **kwargs)

    def test_success_first_try(self):
        executor = self._executor()
        assert executor.call(IP, FailNTimes(0)) == "ok"
        assert executor.stats.operations == 1
        assert executor.stats.attempts == 1
        assert executor.stats.retries == 0
        assert executor.stats.recovered == 0

    def test_recovery_after_failures(self):
        executor = self._executor()
        operation = FailNTimes(2)
        assert executor.call(IP, operation) == "ok"
        assert operation.calls == 3
        assert executor.stats.attempts == 3
        assert executor.stats.retries == 2
        assert executor.stats.recovered == 1
        assert executor.stats.exhausted == 0

    def test_exhaustion_reraises_last_error(self):
        executor = self._executor()
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, FailNTimes(99))
        assert executor.stats.exhausted == 1
        assert executor.stats.attempts == 3
        assert executor.stats.recovered == 0

    def test_backoff_charged_to_clock(self):
        clock = SimClock()
        executor = self._executor(clock=clock)
        executor.call(IP, FailNTimes(2))
        # no jitter: 1.0 + 2.0 simulated seconds of backoff
        assert clock.now == pytest.approx(3.0)
        assert executor.stats.backoff_seconds == pytest.approx(3.0)

    def test_per_host_budget_denies_further_retries(self):
        policy = RetryPolicy(max_attempts=3, jitter=False, per_host_budget=2)
        executor = self._executor(policy)
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, FailNTimes(99))  # burns the 2-retry budget
        operation = FailNTimes(1)
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, operation)  # would recover, but no budget left
        assert operation.calls == 1
        assert executor.stats.budget_denials == 1
        # other hosts have their own budget
        assert executor.call(OTHER_BLOCK, FailNTimes(1)) == "ok"

    def test_deadline_denies_slow_retries(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=10.0, max_delay=60.0, jitter=False,
            deadline=15.0,
        )
        executor = self._executor(policy)
        operation = FailNTimes(99)
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, operation)
        # first retry costs 10s (allowed), second would make 30s > 15s
        assert operation.calls == 2
        assert executor.stats.deadline_denials == 1

    def test_single_attempt_policy_never_retries(self):
        executor = self._executor(RetryPolicy(max_attempts=1))
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, FailNTimes(1))
        assert executor.stats.retries == 0


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=300.0)
        for _ in range(3):
            breaker.record_failure(IP)
        assert not breaker.allow(IP)
        assert breaker.opened == 1
        assert breaker.open_circuits() == 1
        # an unrelated host is unaffected
        assert breaker.allow(OTHER_BLOCK)

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(IP)
        breaker.record_failure(IP)
        breaker.record_success(IP)
        breaker.record_failure(IP)
        breaker.record_failure(IP)
        assert breaker.allow(IP)

    def test_half_open_trial_success_closes(self):
        clock = SimClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=100.0, clock=clock)
        breaker.record_failure(IP)
        breaker.record_failure(IP)
        assert not breaker.allow(IP)
        clock.advance(101.0)
        assert breaker.allow(IP)  # half-open: one trial admitted
        breaker.record_success(IP)
        assert breaker.allow(IP)
        assert breaker.open_circuits() == 0

    def test_half_open_trial_failure_reopens_at_once(self):
        clock = SimClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=100.0, clock=clock)
        breaker.record_failure(IP)
        breaker.record_failure(IP)
        clock.advance(101.0)
        assert breaker.allow(IP)
        breaker.record_failure(IP)  # the single trial fails
        assert not breaker.allow(IP)

    def test_slash24_circuit_covers_sibling_hosts(self):
        breaker = CircuitBreaker(failure_threshold=100, slash24_threshold=4)
        block = [IPv4Address(IP.value & 0xFFFFFF00 | i) for i in range(4)]
        for ip in block:
            breaker.record_failure(ip)
        assert not breaker.allow(SIBLING)  # never touched individually
        assert breaker.allow(OTHER_BLOCK)

    def test_clockless_breaker_recovers_via_event_ticks(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3.0)
        breaker.record_failure(IP)
        breaker.record_failure(IP)
        assert not breaker.allow(IP)
        for _ in range(5):  # unrelated activity moves the tick clock
            breaker.record_success(OTHER_BLOCK)
        assert breaker.allow(IP)

    def test_snapshot_restore_round_trip(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(IP)
        breaker.record_failure(IP)
        state = breaker.snapshot_state()
        fresh = CircuitBreaker(failure_threshold=2)
        fresh.restore_state(state)
        assert not fresh.allow(IP)
        assert fresh.opened == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


class TestExecutorWithBreaker:
    def test_open_circuit_raises_circuit_open(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1e9)
        executor = RetryExecutor(
            RetryPolicy(max_attempts=1), rng=random.Random(0), breaker=breaker
        )
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, FailNTimes(9))
        with pytest.raises(CircuitOpen):
            executor.call(IP, FailNTimes(0))
        assert executor.stats.breaker_skips == 1

    def test_breaker_stops_mid_operation_retries(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1e9)
        executor = RetryExecutor(
            RetryPolicy(max_attempts=5, jitter=False),
            rng=random.Random(0), breaker=breaker,
        )
        operation = FailNTimes(99)
        with pytest.raises(ConnectionTimeout):
            executor.call(IP, operation)
        # the second failure opened the circuit, so no third attempt
        assert operation.calls == 2
        assert executor.stats.breaker_skips == 1


class TestRetryStats:
    def test_merge_and_copy(self):
        a = RetryStats(operations=2, retries=1, backoff_seconds=1.5)
        b = RetryStats(operations=3, recovered=1, backoff_seconds=0.5)
        c = a.copy()
        c.merge(b)
        assert c.operations == 5
        assert c.retries == 1
        assert c.recovered == 1
        assert c.backoff_seconds == pytest.approx(2.0)
        assert a.operations == 2  # copy detached from the original

    def test_dict_round_trip(self):
        stats = RetryStats(operations=4, exhausted=2, breaker_skips=1)
        assert RetryStats.from_dict(stats.to_dict()) == stats

    def test_from_dict_ignores_unknown_keys(self):
        assert RetryStats.from_dict({"operations": 1, "future_field": 9}) == RetryStats(
            operations=1
        )

    def test_executor_snapshot_restore(self):
        """A snapshot carries the jitter stream and each host's spent
        retries; the stats ride in the report rows, not here."""
        policy = RetryPolicy(max_attempts=3, jitter=True, per_host_budget=1)
        executor = RetryExecutor(policy, rng=random.Random(5))
        executor.call(IP, FailNTimes(1))
        state = executor.snapshot_state()
        assert "stats" not in state
        tail = [executor._rng.random() for _ in range(10)]

        fresh = RetryExecutor(policy, rng=random.Random(5))
        fresh.restore_state(state)
        assert [fresh._rng.random() for _ in range(10)] == tail
        # IP's one retry is spent: its next failure is not retried
        with pytest.raises(ConnectionTimeout):
            fresh.call(IP, FailNTimes(1))
        assert fresh.stats.budget_denials == 1


class FakeSupervision:
    """Duck-typed stand-in for ShardSupervision."""

    def __init__(self, quarantined=()):
        self.quarantined = {ip.value for ip in quarantined}
        self.poisons = []
        self.activity = []

    def is_quarantined(self, ip):
        return ip.value in self.quarantined

    def note_poison(self, ip):
        self.poisons.append(ip.value)

    def note_activity(self, ip):
        self.activity.append(ip.value)


class CrashingParser:
    """An operation whose *response* deterministically crashes the caller."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        raise RuntimeError("poison body")


class TestPoisonClassification:
    def _executor(self, **kwargs):
        return RetryExecutor(
            RetryPolicy(max_attempts=3, jitter=False),
            rng=random.Random(0), **kwargs,
        )

    def test_non_transport_error_is_poison_not_retried(self):
        """A deterministic crash must not burn retry budget: the same
        response would crash the same way on every attempt."""
        executor = self._executor()
        operation = CrashingParser()
        with pytest.raises(PoisonError):
            executor.call(IP, operation)
        assert operation.calls == 1  # never retried
        assert executor.stats.poisoned == 1
        assert executor.stats.retries == 0
        assert executor.stats.exhausted == 0

    def test_poison_error_is_a_transport_error(self):
        """Stage-level TransportError handling must degrade gracefully."""
        from repro.util.errors import TransportError

        assert issubclass(PoisonError, TransportError)

    def test_poison_chains_the_original_exception(self):
        executor = self._executor()
        with pytest.raises(PoisonError) as excinfo:
            executor.call(IP, CrashingParser())
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_poison_reported_to_supervision(self):
        supervision = FakeSupervision()
        executor = self._executor(supervision=supervision)
        with pytest.raises(PoisonError):
            executor.call(IP, CrashingParser())
        assert supervision.poisons == [IP.value]

    def test_nested_poison_not_double_counted(self):
        """A PoisonError from a nested executor call passes through the
        outer call without being classified (and counted) again."""
        supervision = FakeSupervision()
        inner = self._executor(supervision=supervision)
        outer = self._executor(supervision=supervision)

        def nested():
            return inner.call(IP, CrashingParser())

        with pytest.raises(PoisonError):
            outer.call(IP, nested)
        assert inner.stats.poisoned == 1
        assert outer.stats.poisoned == 0
        assert supervision.poisons == [IP.value]

    def test_transport_errors_still_retry(self):
        executor = self._executor(supervision=FakeSupervision())
        operation = FailNTimes(2)
        assert executor.call(IP, operation) == "ok"
        assert executor.stats.poisoned == 0
        assert executor.stats.retries == 2


class TestQuarantineGate:
    def _executor(self, supervision):
        return RetryExecutor(
            RetryPolicy(max_attempts=3, jitter=False),
            rng=random.Random(0), supervision=supervision,
        )

    def test_call_refuses_quarantined_target(self):
        executor = self._executor(FakeSupervision(quarantined=(IP,)))
        operation = FailNTimes(0)
        with pytest.raises(QuarantineSkip):
            executor.call(IP, operation)
        assert operation.calls == 0  # never touched the wire
        assert executor.stats.quarantine_skips == 1
        assert executor.stats.operations == 0

    def test_quarantine_skip_is_a_transport_error(self):
        from repro.util.errors import TransportError

        assert issubclass(QuarantineSkip, TransportError)

    def test_other_hosts_unaffected(self):
        executor = self._executor(FakeSupervision(quarantined=(IP,)))
        assert executor.call(OTHER_BLOCK, FailNTimes(0)) == "ok"

    def test_stats_roundtrip_includes_new_fields(self):
        stats = RetryStats(poisoned=3, quarantine_skips=2)
        back = RetryStats.from_dict(stats.to_dict())
        assert back == stats
        merged = RetryStats(poisoned=1)
        merged.merge(stats)
        assert merged.poisoned == 4
        assert merged.quarantine_skips == 2
