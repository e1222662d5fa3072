"""Breaker edge states and retry-loop timing.

Pins the half-open single-probe contract, transition counting for the
half-open → open re-open, the no-sleep-after-final-attempt rule
(asserted through a FakeClock), retry-after floors, and RetryPolicy
degenerate configurations (``max_delay < base_delay``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import OverloadedError, TransportError, WorkloadError
from repro.net import (
    CircuitBreaker,
    FakeClock,
    LoopbackTransport,
    ResilientClient,
    RetryPolicy,
    Transport,
)
from repro.obs.metrics import registry

from .conftest import run_query


@pytest.fixture
def obs_on():
    """Force the gate on so breaker-transition counters actually move."""
    previous = obs.set_enabled(True)
    try:
        yield
    finally:
        obs.set_enabled(previous)


def transitions_delta(window, to: str) -> float:
    return window.delta().get(
        f"repro_client_breaker_transitions_total|{to}", 0
    )


# -- half-open single probe --------------------------------------------------

def test_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(10.0)
    assert breaker.state == "half-open"
    assert breaker.allow()          # the one trial
    assert not breaker.allow()      # every further caller is rejected
    assert not breaker.allow()
    assert breaker.state == "half-open"  # still half-open while probing


def test_half_open_probe_success_closes_and_readmits():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    clock.advance(10.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed"
    # Closed again: everyone is admitted, no probe bookkeeping left over.
    assert breaker.allow() and breaker.allow()


def test_half_open_probe_failure_reopens_and_rearms_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    clock.advance(10.0)
    assert breaker.allow()
    breaker.record_failure()        # probe failed
    assert breaker.state == "open"
    assert not breaker.allow()
    clock.advance(10.0)             # a fresh window ends in a fresh probe
    assert breaker.state == "half-open"
    assert breaker.allow()
    assert not breaker.allow()


def test_release_probe_frees_the_half_open_slot():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    clock.advance(10.0)
    assert breaker.allow()
    breaker.release_probe()              # outcome said nothing about the SP
    assert breaker.state == "half-open"  # no transition in either direction
    assert breaker.allow()               # the slot is free for a re-probe
    breaker.record_success()
    assert breaker.state == "closed"


def test_workload_rejection_releases_half_open_probe(env):
    clock = FakeClock()
    client = ResilientClient(
        env.user, LoopbackTransport(env.hardened.handle_frame, clock=clock),
        policy=RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
        failure_threshold=1, reset_timeout=10.0, clock=clock,
        rng=random.Random(7),
    )
    breaker = client.endpoints["sp"].breaker
    breaker.record_failure()  # open ...
    clock.advance(10.0)       # ... then half-open: the next call is the probe
    with pytest.raises(WorkloadError):
        client.query_range("no-such-table", (0,), (1,))
    # The deterministic rejection resolved the claimed probe: the breaker
    # is not stuck half-open with the slot taken forever.
    assert breaker.state == "half-open"
    assert breaker.allow()
    breaker.release_probe()
    assert run_query(client, "range") == env.truth["range"]
    assert breaker.state == "closed"


def test_reopen_transition_is_counted(obs_on):
    clock = FakeClock()
    window = registry().window()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()                       # closed -> open
    assert transitions_delta(window, "open") == 1
    clock.advance(10.0)
    assert breaker.allow()                         # -> half-open (counted)
    assert transitions_delta(window, "half-open") == 1
    breaker.record_failure()                       # half-open -> open AGAIN
    assert transitions_delta(window, "open") == 2  # the re-open is counted
    clock.advance(10.0)
    assert breaker.allow()
    breaker.record_success()                       # half-open -> closed
    assert transitions_delta(window, "closed") == 1
    assert transitions_delta(window, "open") == 2  # unchanged by the close


def test_half_open_counts_once_per_open_window(obs_on):
    clock = FakeClock()
    window = registry().window()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
    breaker.record_failure()
    clock.advance(10.0)
    for _ in range(3):             # claim, release, claim again ...
        assert breaker.allow()
        breaker.release_probe()
    assert transitions_delta(window, "half-open") == 1
    breaker.record_failure()       # re-open: a fresh window counts again
    clock.advance(10.0)
    assert breaker.allow()
    assert transitions_delta(window, "half-open") == 2


def test_refreshing_an_open_window_is_not_a_transition(obs_on):
    clock = FakeClock()
    window = registry().window()
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=30.0, clock=clock)
    breaker.record_failure()
    breaker.record_failure()                       # closed -> open
    breaker.record_failure()                       # still open: window refresh
    assert transitions_delta(window, "open") == 1


# -- retry-loop timing -------------------------------------------------------

class AlwaysFail(Transport):
    def __init__(self):
        self.calls = 0

    def round_trip(self, request_frame):
        self.calls += 1
        raise TransportError("synthetic outage")


def make_failing_client(env, policy, clock):
    return ResilientClient(
        env.user, AlwaysFail(), policy=policy,
        failure_threshold=10**6,
        clock=clock, rng=random.Random(7),
    )


def test_no_sleep_after_final_attempt(env):
    clock = FakeClock()
    policy = RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=1.0, jitter=0.0)
    client = make_failing_client(env, policy, clock)
    with pytest.raises(TransportError):
        run_query(client, "range")
    assert client.counters.attempts == 3
    # Jitter is zero, so slept time is exactly backoff(0) + backoff(1):
    # the loop must NOT sleep backoff(2) after the last failure.
    assert clock.now() == pytest.approx(0.1 + 0.2)


def test_single_attempt_policy_never_sleeps(env):
    clock = FakeClock()
    policy = RetryPolicy(max_attempts=1, base_delay=5.0)
    client = make_failing_client(env, policy, clock)
    with pytest.raises(TransportError):
        run_query(client, "range")
    assert clock.now() == 0.0


def test_no_sleep_once_deadline_is_gone(env):
    clock = FakeClock()

    class SlowFail(Transport):
        def round_trip(self, request_frame):
            clock.advance(10.0)  # the exchange itself eats the deadline
            raise TransportError("slow outage")

    policy = RetryPolicy(max_attempts=5, base_delay=3.0, jitter=0.0, deadline=8.0)
    client = ResilientClient(
        env.user, SlowFail(), policy=policy,
        failure_threshold=10**6,
        clock=clock, rng=random.Random(7),
    )
    with pytest.raises(TransportError):
        run_query(client, "range")
    # One attempt blew the deadline; no backoff sleep was added on top.
    assert client.counters.attempts == 1
    assert clock.now() == pytest.approx(10.0)


def test_retry_after_hint_floors_the_backoff(env):
    clock = FakeClock()

    class OverloadedTwice(Transport):
        def __init__(self):
            self.calls = 0

        def round_trip(self, request_frame):
            self.calls += 1
            raise OverloadedError("busy", retry_after=2.5)

    policy = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)
    client = ResilientClient(
        env.user, OverloadedTwice(), policy=policy,
        failure_threshold=10**6,
        clock=clock, rng=random.Random(7),
    )
    with pytest.raises(OverloadedError):
        run_query(client, "range")
    # One sleep between the two attempts, floored by the 2.5s hint
    # (backoff(0) alone would be 0.01), none after the final attempt.
    assert clock.now() == pytest.approx(2.5)
    assert client.counters.overload_rejections == 2


# -- RetryPolicy degenerate configurations -----------------------------------

def test_max_delay_below_base_delay_caps_every_backoff():
    policy = RetryPolicy(max_attempts=6, base_delay=1.0, max_delay=0.25, jitter=0.5)
    rng = random.Random(3)
    delays = [policy.backoff(i, rng) for i in range(6)]
    assert all(d <= 0.25 * 1.5 for d in delays)
    assert all(d >= 0.0 for d in delays)


@settings(max_examples=60, deadline=None)
@given(
    attempt=st.integers(min_value=0, max_value=20),
    base=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    cap=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_backoff_is_bounded_for_any_policy(attempt, base, cap, jitter, seed):
    policy = RetryPolicy(
        max_attempts=1, base_delay=base, max_delay=cap, jitter=jitter,
    )
    delay = policy.backoff(attempt, random.Random(seed))
    assert 0.0 <= delay <= cap * (1.0 + jitter) + 1e-9
