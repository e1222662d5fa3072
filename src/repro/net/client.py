"""The verified query client: retries, deadlines, failover, quarantine.

The paper's SP is *untrusted*, so VO verification is a cryptographic
misbehaviour detector.  :class:`ReplicatedClient` is the one client that
drives it over the wire: it speaks the three queries (equality / range /
join) to one or more SP endpoints through :class:`~repro.net.transport.
Transport` objects that are allowed to fail, and turns the detector into
a router.  :class:`ResilientClient` is the same client over a single
endpoint named ``"sp"``.  Per logical query the client:

1. ranks the endpoints in rotation (healthiest first, least recently
   attempted on ties) and tries them in order — one *pass* per
   :class:`RetryPolicy` attempt, with exponential backoff plus jitter
   between passes, bounded by ``max_attempts`` and the per-query
   ``deadline``; an ``overloaded`` error frame's ``retry-after`` hint
   floors the backoff, and no backoff is slept after the final pass;
2. frames every wire attempt under a fresh random 16-byte id, so a
   duplicated or replayed response (stale id) is detected, counted, and
   retried rather than trusted;
3. consults each endpoint's :class:`CircuitBreaker` once per query; a
   half-open trial first sends a cheap liveness probe
   (:func:`probe_endpoint`), so a server that is merely *draining*
   defers the trial instead of burning it on a real query;
4. re-raises the last typed error when the budget runs out — so every
   outcome is either a **verified** result or a
   :class:`~repro.errors.ReproError` subclass.

How a failed attempt is judged:

* **tamper** — a :class:`~repro.errors.VerificationError`-class failure
  (forged proof, forged sealed envelope) proves the *content* was
  wrong.  With two or more endpoints the endpoint is quarantined for
  ``quarantine_window`` seconds, its health zeroed, and
  ``repro_client_evicted_total{endpoint=...,reason="tamper"}``
  increments.
* **transport** — drops, timeouts, undecodable frames, and server error
  frames lower the endpoint's health and count against its breaker;
  when the breaker opens the endpoint leaves the rotation for the reset
  window (``...{reason="transport"}``).  The replica may just be behind
  a bad link.
* **overloaded** — the endpoint rests for exactly the server's
  ``retry-after`` hint: no breaker penalty, no eviction.
* **deterministic rejections are corroborated** — ``workload`` error
  frames and CP-ABE policy denials look like properties of the query,
  but they are unauthenticated: a Byzantine replica could forge them to
  abort queries it never has to prove anything about.  A lone rejection
  counts against the endpoint and the query fails over; it is surfaced
  only once a second endpoint — or the only endpoint there is — rejects
  the same way.  A suspected endpoint sorts behind clean ones until
  ``suspicion_decay`` consecutive verified successes clear it.

Five rules hold for any number of endpoints, or depend only on that
number:

1. **Breakers count failed queries, not failed attempts.**  An
   endpoint's breaker gets at most one ``record_failure`` per logical
   query, settled when the query ends (a later verified answer from the
   same endpoint in that query clears it).  Health drops on every failed
   attempt.
2. **A lone endpoint is never quarantined.**  A tamper-class failure
   there is retried with a fresh response and counts against its
   breaker; every response is still verified, so soundness is
   unaffected.
3. **A lone endpoint never waits out its own open breaker inside a
   query**: with no attempt possible it fails at once with
   :class:`~repro.errors.CircuitOpenError`.  Replica sets sleep until
   the earliest endpoint re-enters the rotation.
4. **A resting endpoint is still tried when nothing else is eligible**,
   earliest ``retry-after`` first, rather than failing the query.
5. **A pass in which every endpoint deferred on a draining probe**
   raises :class:`~repro.errors.OverloadedError`.

**Hedging.**  With ``hedge_percentile`` set, once a verified primary
response comes back slower than that percentile of recent attempt
latencies, a second request is sent to the next-ranked endpoint.  The
primary's result is secured before the hedge runs, and nothing the
backup does can surface past it; the hedge keeps the backup's health
and latency estimates warm (``repro_client_hedges_total``).

Retrying never weakens soundness: every result returned went through
:func:`wire_exchange` → ``verify`` on a fresh response, so **no
unverified result is ever returned**, no matter which endpoint
answered.  See ``docs/OPERATIONS.md`` and ``benchmarks/chaos_soak.py``.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.messages import (
    ErrorResponse,
    QueryRequest,
    decode_response,
    is_error_frame,
)
from repro.errors import (
    AccessDeniedError,
    CircuitOpenError,
    CryptoError,
    DeadlineExceededError,
    DeserializationError,
    OverloadedError,
    ReproError,
    StaleEpochError,
    TransportError,
    VerificationError,
    WorkloadError,
)
from repro.net.transport import (
    REQUEST_ID_BYTES,
    Clock,
    Transport,
    embed_trace_id,
    frame,
    unframe,
)
from repro.obs import ledger as _ledger
from repro.obs import logging as _obslog
from repro.obs import metrics as _metrics
from repro.obs import relay as _relay
from repro.obs import trace as _trace

#: Server-side ledger stages a loopback round trip may charge inline;
#: wire_exchange subtracts their delta so "wire" stays exclusive.
_SERVER_STAGES = ("traverse", "materialize")

_REG = _metrics.registry()
_M_REQUESTS = _REG.counter(
    "repro_client_requests_total", "Logical queries issued.",
    labelnames=("kind",),
)
_M_ATTEMPTS = _REG.counter(
    "repro_client_attempts_total",
    "Wire attempts per endpoint (first tries, retries, failovers, hedges).",
    labelnames=("endpoint",),
)
_M_RETRIES = _REG.counter(
    "repro_client_retries_total", "Attempts beyond the first per logical query.",
)
_M_OUTCOMES = _REG.counter(
    "repro_client_outcomes_total", "Logical query outcomes.",
    labelnames=("outcome",),
)
_M_ATTEMPT_ERRORS = _REG.counter(
    "repro_client_attempt_errors_total", "Failed attempts by error class.",
    labelnames=("class",),
)
_M_BREAKER = _REG.counter(
    "repro_client_breaker_transitions_total",
    "Circuit breaker state transitions.", labelnames=("to",),
)
_M_EVICTED = _REG.counter(
    "repro_client_evicted_total",
    "Endpoint evictions: Byzantine quarantine vs transport breaker.",
    labelnames=("endpoint", "reason"),
)
_M_HEDGES = _REG.counter(
    "repro_client_hedges_total", "Hedged second requests issued.",
)
_M_PROBES = _REG.counter(
    "repro_client_probes_total",
    "Half-open liveness probes sent before committing a real query.",
    labelnames=("endpoint", "status"),
)
_M_OVERLOAD_WAITS = _REG.counter(
    "repro_client_overload_backoffs_total",
    "Endpoint rotations honoring a server retry-after hint.",
    labelnames=("endpoint",),
)
_M_QUARANTINED = _REG.gauge(
    "repro_client_quarantined", "Endpoints currently quarantined.",
)
_M_STALE = _REG.counter(
    "repro_client_stale_epochs_total",
    "Verified-but-stale answers per endpoint (lagging replica, degraded "
    "not quarantined).",
    labelnames=("endpoint",),
)
_LOG = _obslog.get_logger("client")

#: Health-score EWMA step: one observation moves the score 30% of the way
#: toward its outcome (1.0 success / 0.0 failure).
_HEALTH_ALPHA = 0.3
#: Latency EWMA step.
_LATENCY_ALPHA = 0.3


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter and an optional deadline."""

    max_attempts: int = 5
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5  # extra fraction of the delay, drawn uniformly
    deadline: Optional[float] = None  # seconds per logical query

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ReproError("delays and jitter must be non-negative")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * (2**attempt))
        return delay * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Fail fast after ``failure_threshold`` consecutive failed queries.

    States: *closed* (normal), *open* (every call rejected until
    ``reset_timeout`` elapses), *half-open* (exactly **one** trial
    allowed; success closes the circuit, failure re-opens it for another
    full window).  ``allow()`` enforces the single probe: the first
    caller in half-open is admitted, every further caller is rejected
    until the probe resolves via :meth:`record_success`,
    :meth:`record_failure`, or :meth:`release_probe` (for outcomes that
    say nothing about the endpoint).  Every state transition — including
    half-open → open re-opens — increments
    ``repro_client_breaker_transitions_total{to=...}``; the half-open
    transition counts once per open window, however often its probe
    slot is released and claimed again.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Optional[Clock] = None,
    ):
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock or Clock()
        self.failures = 0
        self._opened_at: Optional[float] = None
        self._probe_inflight = False
        self._half_open_counted = False

    @property
    def half_opens_at(self) -> Optional[float]:
        """Clock time the open window ends (``None`` while closed)."""
        if self._opened_at is None:
            return None
        return self._opened_at + self.reset_timeout

    @property
    def state(self) -> str:
        half_opens_at = self.half_opens_at
        if half_opens_at is None:
            return "closed"
        if self.clock.now() >= half_opens_at:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        state = self.state
        if state == "closed":
            return True
        if state == "open":
            return False
        # Half-open: admit exactly one probe until it resolves.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        if not self._half_open_counted:
            self._half_open_counted = True
            _M_BREAKER.inc(to="half-open")
        return True

    def record_success(self) -> None:
        if self._opened_at is not None:
            _M_BREAKER.inc(to="closed")
        self.failures = 0
        self._opened_at = None
        self._probe_inflight = False

    def release_probe(self) -> None:
        """Resolve a claimed half-open probe without judging the SP.

        For outcomes that are deterministic properties of the *query* —
        a workload rejection, a policy denial — rather than evidence
        about the endpoint: the probe slot is freed so later callers
        can re-probe, with no state transition and no failure count.
        Every path that claims a probe via :meth:`allow` must resolve
        it through this, :meth:`record_success`, or
        :meth:`record_failure`, or the breaker is stuck half-open with
        the slot taken forever.
        """
        self._probe_inflight = False

    def record_failure(self) -> None:
        was_half_open = self.state == "half-open"
        self.failures += 1
        if was_half_open:
            # The probe failed: re-open for another full window.  This is
            # a transition even though _opened_at was already set.
            _M_BREAKER.inc(to="open")
            self._open()
        elif self.failures >= self.failure_threshold:
            if self._opened_at is None:
                _M_BREAKER.inc(to="open")
            self._open()

    def _open(self) -> None:
        self._opened_at = self.clock.now()
        self._probe_inflight = False
        self._half_open_counted = False


@dataclass
class ClientStats:
    """Operational counters, exposed for tests, examples, dashboards."""

    requests: int = 0
    verified: int = 0
    failures: int = 0
    attempts: int = 0
    retries: int = 0
    failovers: int = 0
    hedges: int = 0
    probes: int = 0
    probe_deferrals: int = 0
    breaker_rejections: int = 0
    exhausted_rotations: int = 0
    quarantines: int = 0
    rejection_suspects: int = 0
    overload_backoffs: int = 0
    duplicates_detected: int = 0
    error_frames: int = 0
    transport_errors: int = 0
    decode_failures: int = 0
    verification_failures: int = 0
    overload_rejections: int = 0
    stale_epochs: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


#: Exception classes that prove *content* tampering (a forged proof or
#: sealed envelope) as opposed to transport-level corruption or loss.
#: DeserializationError is excluded: an undecodable frame is
#: indistinguishable from line noise, so it is transport-class.
#: AccessDeniedError is excluded too: CP-ABE raises it when the user's
#: attributes simply do not satisfy the ciphertext policy — legitimate
#: access-control enforcement by an honest replica, not tamper evidence
#: (a tampered envelope fails its integrity check and raises
#: CryptoError instead).
TAMPER_ERRORS = (VerificationError, CryptoError)

#: The one failed-attempt classifier: first matching class wins, and
#: anything unmatched is transport-class.  StaleEpochError precedes the
#: tamper classes it subclasses: a genuinely DO-signed token that is
#: merely old proves the replica is *lagging*, not forging.
_ERROR_CLASSES = (
    (OverloadedError, "overload_rejections", "overloaded"),
    (DeserializationError, "decode_failures", "decode"),
    (StaleEpochError, "stale_epochs", "stale-epoch"),
    (TAMPER_ERRORS, "verification_failures", "verification"),
    (ReproError, "transport_errors", "transport"),
)


def is_tamper_error(exc: BaseException) -> bool:
    """True when ``exc`` proves content tampering, not transport loss.

    A lagging replica's :class:`~repro.errors.StaleEpochError` is
    degraded/transport-class: the client fails over and lets catch-up
    replay heal it instead of quarantining an honest endpoint.
    """
    if isinstance(exc, (DeserializationError, AccessDeniedError, StaleEpochError)):
        return False
    return isinstance(exc, TAMPER_ERRORS)


def wire_exchange(transport, payload: bytes, verify: Callable, group,
                  rng: random.Random, counters: ClientStats):
    """One framed request/verify exchange — the client's wire attempt.

    Frames ``payload`` under a fresh random 16-byte id (trace-stamped),
    round-trips it, rejects id mismatches (duplicates/replays), decodes
    typed error frames, and funnels the decoded response through
    ``verify``.
    """
    # Always draw the full 128 bits (a stable rng-stream contract the
    # deterministic backoff/deadline tests rely on), then stamp the
    # active trace id over the first 8 bytes for wire correlation.
    request_id = rng.getrandbits(8 * REQUEST_ID_BYTES).to_bytes(
        REQUEST_ID_BYTES, "big"
    )
    trace_id = _trace.current_trace_id()
    request_id = embed_trace_id(request_id, trace_id)
    attempt_span = _trace.current_span()
    if attempt_span is not None:
        # The graft key the span relay matches on: the server stamps the
        # same suffix on its handle_frame span (see repro.obs.relay).
        attempt_span.set_attribute(
            _relay.REQUEST_SUFFIX_ATTR,
            request_id[_trace.TRACE_ID_BYTES:].hex(),
        )
    ledger = _ledger.ledger()
    nested_before = ledger.stage_seconds(trace_id, _SERVER_STAGES)
    wire_t0 = time.perf_counter()
    reply = transport.round_trip(frame(request_id, payload))
    if trace_id is not None:
        # Charge the round trip exclusive of server-side stages charged
        # to this trace *during* the call: on an in-process loopback the
        # engine runs inline, and counting its time under both "wire"
        # and "traverse"/"materialize" would sum to ~2x wall.  Across a
        # real socket nothing nests, and wire = network + remote server
        # time, which is equally honest.
        nested = ledger.stage_seconds(trace_id, _SERVER_STAGES) - nested_before
        ledger.charge(
            trace_id, "wire", (time.perf_counter() - wire_t0) - nested
        )
    reply_id, body = unframe(reply)
    if reply_id != request_id:
        counters.duplicates_detected += 1
        _trace.add_event("duplicate_detected")
        raise TransportError(
            "response id mismatch: duplicated or replayed frame rejected"
        )
    if is_error_frame(body):
        error = ErrorResponse.from_bytes(body)
        counters.error_frames += 1
        _trace.add_event("error_frame", code=error.code)
        if error.code == ErrorResponse.WORKLOAD:
            raise WorkloadError(f"SP rejected query: {error.message}")
        if error.code == ErrorResponse.OVERLOADED:
            raise OverloadedError(
                f"SP shed request: {error.message}",
                retry_after=error.retry_after_hint(),
            )
        raise TransportError(f"SP error frame [{error.code}]: {error.message}")
    response = decode_response(group, body)
    verify_t0 = time.perf_counter()
    result = verify(response)
    ledger.charge(trace_id, "verify", time.perf_counter() - verify_t0)
    return result


def probe_endpoint(transport, rng: random.Random) -> str:
    """One cheap liveness/admission probe; returns the server's status.

    Round-trips a :data:`~repro.net.server.PROBE_REQUEST` frame under a
    fresh request id and returns the status word (``"ready"`` /
    ``"draining"``).  Probes carry no proof material — they answer
    "should I spend a real query here?", never "can I trust this
    endpoint?" — so callers must treat any status as unauthenticated
    advice and keep verifying real responses as usual.
    """
    from repro.net.server import PROBE_REQUEST, decode_probe_response

    request_id = rng.getrandbits(8 * REQUEST_ID_BYTES).to_bytes(
        REQUEST_ID_BYTES, "big"
    )
    request_id = embed_trace_id(request_id, _trace.current_trace_id())
    reply = transport.round_trip(frame(request_id, PROBE_REQUEST))
    reply_id, body = unframe(reply)
    if reply_id != request_id:
        raise TransportError("probe response id mismatch")
    return decode_probe_response(body)


def fetch_trace_spans(transport, trace_id: str) -> list[dict]:
    """Scrape one endpoint's relayed spans for a trace id (``TRC`` frame).

    The request id is drawn from ``os.urandom`` — deliberately *not*
    from a client's seeded rng: trace assembly is an observability read
    and must never perturb the deterministic rng streams the protocol
    tests replay.
    """
    from repro.net.server import TRACE_REQUEST, decode_trace_response

    request_id = os.urandom(REQUEST_ID_BYTES)
    raw = bytes.fromhex(trace_id)
    if len(raw) != _trace.TRACE_ID_BYTES:
        raise TransportError(f"malformed trace id {trace_id!r}")
    reply = transport.round_trip(frame(request_id, TRACE_REQUEST + raw))
    reply_id, body = unframe(reply)
    if reply_id != request_id:
        raise TransportError("trace scrape response id mismatch")
    return decode_trace_response(body)


class Endpoint:
    """One replica's client-side state: transport + suspicion bookkeeping."""

    def __init__(self, name: str, transport: Transport,
                 breaker: CircuitBreaker, clock: Clock,
                 suspicion_decay: int = 8):
        self.name = name
        self.transport = transport
        self.breaker = breaker
        self.clock = clock
        self.suspicion_decay = suspicion_decay
        self.health = 1.0
        self.latency_ewma: Optional[float] = None
        self.quarantined_until: Optional[float] = None
        self.backoff_until = 0.0
        self.last_attempt_at = float("-inf")  # never attempted sorts first
        self.attempts = 0
        self.successes = 0
        self.rejection_suspects = 0
        self._suspicion_clean_streak = 0
        self.evictions: Dict[str, int] = {"tamper": 0, "transport": 0}

    @property
    def quarantined(self) -> bool:
        return (self.quarantined_until is not None
                and self.clock.now() < self.quarantined_until)

    def eligible(self, now: float) -> bool:
        """In rotation: not quarantined, not backing off, breaker not open."""
        if self.quarantined or now < self.backoff_until:
            return False
        return self.breaker.state != "open"

    def resting(self, now: float) -> bool:
        """Out of rotation *only* while a retry-after hint runs out."""
        if self.quarantined or now >= self.backoff_until:
            return False
        return self.breaker.state != "open"

    def observe_success(self, latency: float) -> None:
        self.successes += 1
        self.health += _HEALTH_ALPHA * (1.0 - self.health)
        self._observe_latency(latency)
        self.breaker.record_success()
        if self.rejection_suspects:
            # A corroboration window of verified successes clears the
            # forged-rejection suspicion: one transient lie (or one query
            # that raced a config change) must not demote an honest
            # replica's ranking forever.
            self._suspicion_clean_streak += 1
            if self._suspicion_clean_streak >= self.suspicion_decay:
                self.rejection_suspects = 0
                self._suspicion_clean_streak = 0

    def note_suspicion(self) -> None:
        """Record an uncorroborated (possibly forged) rejection."""
        self.rejection_suspects += 1
        self._suspicion_clean_streak = 0

    def observe_failure(self) -> None:
        """Health ding for one failed attempt (the breaker is judged per
        query, by the client)."""
        self.health -= _HEALTH_ALPHA * self.health

    def _observe_latency(self, latency: float) -> None:
        if self.latency_ewma is None:
            self.latency_ewma = latency
        else:
            self.latency_ewma += _LATENCY_ALPHA * (latency - self.latency_ewma)

    def snapshot(self) -> dict:
        return {
            "health": round(self.health, 4),
            "latency_ewma": self.latency_ewma,
            "quarantined": self.quarantined,
            "quarantined_until": self.quarantined_until,
            "backoff_until": self.backoff_until,
            "breaker": self.breaker.state,
            "attempts": self.attempts,
            "successes": self.successes,
            "rejection_suspects": self.rejection_suspects,
            "evictions": dict(self.evictions),
        }


class ReplicatedClient:
    """Fan one logical query across N SP endpoints; trust only the proofs.

    ``transports`` maps endpoint name → :class:`~repro.net.transport.
    Transport`.  One *attempt* (in :class:`RetryPolicy` terms) is a full
    failover pass: every endpoint in rotation is tried in health order
    before the client sleeps a backoff.  The deadline spans all passes.
    """

    def __init__(
        self,
        user,
        transports: Dict[str, Transport],
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
        quarantine_window: float = 300.0,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        hedge_percentile: Optional[float] = 0.95,
        hedge_min_samples: int = 16,
        latency_reservoir: int = 128,
        suspicion_decay: int = 8,
        verification_window: Optional[int] = None,
    ):
        if not transports:
            raise ReproError("a replicated client needs at least one endpoint")
        if quarantine_window <= 0:
            raise ReproError("quarantine_window must be positive")
        if hedge_percentile is not None and not 0.0 < hedge_percentile < 1.0:
            raise ReproError("hedge_percentile must be in (0, 1) or None")
        if suspicion_decay < 1:
            raise ReproError("suspicion_decay must be >= 1")
        self.user = user
        self.policy = policy or RetryPolicy()
        self.clock = clock or Clock()
        self.rng = rng or random.Random()
        self.quarantine_window = quarantine_window
        self.hedge_percentile = hedge_percentile
        self.hedge_min_samples = max(2, hedge_min_samples)
        self.endpoints: Dict[str, Endpoint] = {
            name: Endpoint(
                name, transport,
                CircuitBreaker(failure_threshold, reset_timeout, clock=self.clock),
                self.clock,
                suspicion_decay=suspicion_decay,
            )
            for name, transport in transports.items()
        }
        self.counters = ClientStats()
        self._latencies: deque = deque(maxlen=latency_reservoir)
        self._last_trace_id: Optional[str] = None
        #: Opt-in deferred verification: equality/range APS checks settle
        #: in one bilinearity-merged batch every ``verification_window``
        #: responses instead of per response (results are provisional
        #: until :meth:`flush_window`; see :mod:`repro.net.window`).  A
        #: windowed tamper is only *attributed* at flush time, after the
        #: tampering endpoint may have served more queries; latency-
        #: sensitive Byzantine detection should keep this off.
        self.window = None
        if verification_window is not None:
            from repro.net.window import VerificationWindow

            # No rng: the batching exponents must not come from the
            # seedable jitter PRNG.
            self.window = VerificationWindow(user, verification_window)

    def _verify_vo(self):
        """Per-response verifier for equality/range: windowed when opted in."""
        return self.window.verify if self.window is not None else self.user.verify

    def flush_window(self) -> int:
        """Settle all deferred verification now; returns responses settled.

        No-op (returns 0) when no verification window is configured.
        Raises :class:`~repro.errors.SoundnessError` with the failing
        response and region if a deferred APS signature is invalid.
        """
        if self.window is None:
            return 0
        return self.window.flush()

    # -- public queries ------------------------------------------------------
    def query_equality(self, table: str, key, encrypt: bool = True):
        request = QueryRequest(
            kind="equality", table=table, lo=tuple(key), hi=tuple(key),
            roles=self.user.roles, encrypt=encrypt,
        )
        return self._execute(request, self._verify_vo())

    def query_range(self, table: str, lo, hi, encrypt: bool = True):
        request = QueryRequest(
            kind="range", table=table, lo=tuple(lo), hi=tuple(hi),
            roles=self.user.roles, encrypt=encrypt,
        )
        return self._execute(request, self._verify_vo())

    def query_join(self, left: str, right: str, lo, hi, encrypt: bool = True):
        request = QueryRequest(
            kind="join", table=left, right_table=right, lo=tuple(lo), hi=tuple(hi),
            roles=self.user.roles, encrypt=encrypt,
        )
        return self._execute(request, self.user.verify_join)

    # -- selection -----------------------------------------------------------
    def _ranked(self, now: float) -> list:
        """Endpoints to try this pass, best first; deterministic under ties.

        Healthiest first; among equal health the least-recently-attempted
        endpoint wins, which round-robins steady-state traffic across
        healthy replicas and guarantees every replica keeps being probed
        (a Byzantine replica cannot dodge detection by simply never
        being selected).  Endpoints under live forged-rejection suspicion
        sort behind every unsuspected one regardless of health — they
        stay reachable (and can clear their name through the decay
        window) but never outrank replicas with a clean record.  When no
        endpoint is eligible, the resting ones are tried, earliest
        retry-after first (rule 4).
        """
        eligible = [e for e in self.endpoints.values() if e.eligible(now)]
        if not eligible:
            resting = [e for e in self.endpoints.values() if e.resting(now)]
            return sorted(resting, key=lambda e: (e.backoff_until, e.name))
        eligible.sort(key=lambda e: (
            min(e.rejection_suspects, 1), -e.health, e.last_attempt_at, e.name,
        ))
        return eligible

    def _earliest_relief(self, now: float) -> Optional[float]:
        """Seconds until some endpoint re-enters rotation, if knowable."""
        horizons = []
        for ep in self.endpoints.values():
            if ep.quarantined:
                horizons.append(ep.quarantined_until - now)
            elif now < ep.backoff_until:
                horizons.append(ep.backoff_until - now)
            elif ep.breaker.state == "open":
                horizons.append(ep.breaker.half_opens_at - now)
        return max(0.0, min(horizons)) if horizons else None

    # -- judging one attempt -------------------------------------------------
    def _classify(self, exc: ReproError) -> None:
        for classes, counter, label in _ERROR_CLASSES:
            if isinstance(exc, classes):
                setattr(self.counters, counter, getattr(self.counters, counter) + 1)
                _M_ATTEMPT_ERRORS.inc(**{"class": label})
                return

    def _attempt_failed(self, endpoint: Endpoint, exc: ReproError,
                        failed: dict) -> None:
        """Judge a failed attempt: quarantine (rule 2) or breaker-bound."""
        self._classify(exc)
        _LOG.warning(
            "attempt_failed", endpoint=endpoint.name, error=type(exc).__name__,
        )
        if isinstance(exc, StaleEpochError):
            _M_STALE.inc(endpoint=endpoint.name)
            _trace.add_event("stale_epoch", endpoint=endpoint.name)
        if is_tamper_error(exc) and len(self.endpoints) > 1:
            self._quarantine(endpoint, self.clock.now())
        else:
            endpoint.observe_failure()
            failed[endpoint.name] = endpoint

    def _rest(self, endpoint: Endpoint, exc: OverloadedError,
              failed: dict) -> float:
        """Take a shedding endpoint out of rotation for its hint; no penalty."""
        self._classify(exc)
        hint = exc.retry_after if exc.retry_after is not None else 0.0
        endpoint.backoff_until = self.clock.now() + hint
        self.counters.overload_backoffs += 1
        _M_OVERLOAD_WAITS.inc(endpoint=endpoint.name)
        # The replica answered: healthy, just busy.
        endpoint.breaker.record_success()
        failed.pop(endpoint.name, None)
        return hint

    def _quarantine(self, endpoint: Endpoint, now: float) -> None:
        # The failed exchange may have been the breaker's half-open
        # probe; release it, or once the quarantine window expires the
        # breaker would reject every re-probe forever and the endpoint
        # could never re-enter the rotation.
        endpoint.breaker.release_probe()
        endpoint.quarantined_until = now + self.quarantine_window
        endpoint.health = 0.0
        endpoint.evictions["tamper"] += 1
        self.counters.quarantines += 1
        _M_EVICTED.inc(endpoint=endpoint.name, reason="tamper")
        self._update_quarantine_gauge()
        _trace.add_event("endpoint_evicted", endpoint=endpoint.name, reason="tamper")
        _LOG.error(
            "endpoint_quarantined", endpoint=endpoint.name,
            until=endpoint.quarantined_until, window=self.quarantine_window,
        )

    def _suspect(self, endpoint: Endpoint, exc: ReproError, failed: dict) -> None:
        """Record an uncorroborated rejection against ``endpoint``."""
        self.counters.rejection_suspects += 1
        endpoint.note_suspicion()
        _trace.add_event(
            "rejection_suspected", endpoint=endpoint.name,
            error=type(exc).__name__,
        )
        _LOG.warning(
            "rejection_suspected", endpoint=endpoint.name,
            error=type(exc).__name__,
        )
        endpoint.observe_failure()
        failed[endpoint.name] = endpoint

    def _corroborated_rejection(self, endpoint: Endpoint, exc: ReproError,
                                rejected_by: Dict[str, set],
                                failed: dict) -> bool:
        """Decide whether a deterministic-looking rejection is trusted.

        Workload frames and access denials are unauthenticated, so a
        single Byzantine replica could forge them to abort queries
        without ever producing a refutable proof.  A lone rejection is
        recorded against the endpoint (transport-class) and the query
        fails over; only agreement from a second independent endpoint —
        or from the only endpoint there is — makes the rejection a
        property of the query rather than of a replica.
        """
        agreers = rejected_by.setdefault(type(exc).__name__, set())
        agreers.add(endpoint.name)
        if len(self.endpoints) == 1 or len(agreers) >= 2:
            return True
        self._suspect(endpoint, exc, failed)
        return False

    def _probe_draining(self, endpoint: Endpoint) -> bool:
        """Best-effort liveness probe before spending a half-open slot.

        A draining server sheds real queries with ``overloaded`` frames,
        which would re-open the breaker and push re-admission further
        out; the probe lets the breaker tell "alive but draining" from
        "dead".  Only an affirmative ``draining`` status defers (the
        probe slot is released, no penalty recorded).  A failed or
        garbled probe proves nothing — a tampering replica can corrupt
        probe frames too — so the real query proceeds and the endpoint
        is judged on its answer.
        """
        try:
            status = probe_endpoint(endpoint.transport, self.rng)
        except ReproError:
            return False
        self.counters.probes += 1
        _M_PROBES.inc(endpoint=endpoint.name, status=status)
        if status != "draining":
            return False
        endpoint.breaker.release_probe()
        self.counters.probe_deferrals += 1
        _trace.add_event("probe_deferred", endpoint=endpoint.name)
        _LOG.info("probe_deferred", endpoint=endpoint.name)
        return True

    def _settle(self, failed: dict) -> None:
        """Rule 1: one breaker failure per endpoint that failed this query."""
        for endpoint in failed.values():
            was_open = endpoint.breaker.state == "open"
            endpoint.breaker.record_failure()
            if not was_open and endpoint.breaker.state == "open":
                endpoint.evictions["transport"] += 1
                _M_EVICTED.inc(endpoint=endpoint.name, reason="transport")
                _trace.add_event(
                    "endpoint_evicted", endpoint=endpoint.name, reason="transport"
                )
                _LOG.warning(
                    "endpoint_breaker_open", endpoint=endpoint.name,
                    reset_timeout=endpoint.breaker.reset_timeout,
                )

    def _update_quarantine_gauge(self) -> None:
        _M_QUARANTINED.set(
            sum(1 for e in self.endpoints.values() if e.quarantined)
        )

    # -- the failover loop ---------------------------------------------------
    def _execute(self, request: QueryRequest, verify: Callable):
        wall_t0 = time.perf_counter()
        with _trace.span(
            "client.query", kind=request.kind, table=request.table
        ) as query_span:
            trace_id = getattr(query_span, "trace_id", None)
            self._last_trace_id = trace_id
            failed: dict = {}  # endpoint name -> Endpoint owing a breaker failure
            try:
                return self._execute_traced(request, verify, query_span, failed)
            finally:
                self._settle(failed)
                _ledger.ledger().set_wall(
                    trace_id, time.perf_counter() - wall_t0
                )

    def _execute_traced(self, request: QueryRequest, verify, query_span,
                        failed: dict):
        self.counters.requests += 1
        _M_REQUESTS.inc(kind=request.kind)
        payload = request.to_bytes()
        start = self.clock.now()
        last_error: Optional[ReproError] = None
        rejected_by: Dict[str, set] = {}  # error class -> agreeing endpoints
        admitted: set = set()  # endpoints whose breaker admitted this query
        tries = 0
        for attempt in range(self.policy.max_attempts):
            if self._expired(start):
                break
            ranked = self._ranked(self.clock.now())
            if not ranked:
                self.counters.exhausted_rotations += 1
                last_error = last_error or CircuitOpenError(
                    "no eligible endpoint: all replicas quarantined or "
                    "circuit-open"
                )
            retry_floor = 0.0
            deferred = 0
            for position, endpoint in enumerate(ranked):
                if endpoint.name not in admitted:
                    was_half_open = endpoint.breaker.state == "half-open"
                    if not endpoint.breaker.allow():
                        continue  # half-open probe already taken elsewhere
                    if was_half_open and self._probe_draining(endpoint):
                        deferred += 1
                        continue  # resting, not failing: slot freed, no penalty
                    admitted.add(endpoint.name)
                if tries:
                    self.counters.retries += 1
                    _M_RETRIES.inc()
                if position:
                    self.counters.failovers += 1
                    _trace.add_event("failover", to=endpoint.name)
                tries += 1
                try:
                    result, latency = self._try_endpoint(
                        endpoint, payload, verify, tries - 1
                    )
                except (WorkloadError, AccessDeniedError) as exc:
                    last_error = exc
                    if self._corroborated_rejection(
                        endpoint, exc, rejected_by, failed
                    ):
                        # Independent replicas agree: the rejection is a
                        # property of the query, not of an endpoint.
                        endpoint.breaker.release_probe()
                        raise self._give_up(request, query_span, exc, (
                            "workload_rejected" if isinstance(exc, WorkloadError)
                            else "access_denied"
                        ))
                    continue
                except OverloadedError as exc:
                    last_error = exc
                    retry_floor = max(retry_floor, self._rest(endpoint, exc, failed))
                    continue
                except ReproError as exc:
                    last_error = exc
                    self._attempt_failed(endpoint, exc, failed)
                    continue
                endpoint.observe_success(latency)
                failed.pop(endpoint.name, None)
                if self._expired(start):
                    break  # verified but late: the deadline contract rules
                self.counters.verified += 1
                query_span.set_attributes(
                    attempts=tries, endpoint=endpoint.name, outcome="verified",
                )
                _M_OUTCOMES.inc(outcome="verified")
                # Hedge only after the verified result is secured: the
                # probe's extra round-trip runs after the deadline
                # check, so a slow or misbehaving backup can no longer
                # cost the caller the answer it already earned.
                self._maybe_hedge(endpoint, ranked, payload, verify, latency,
                                  tries, failed)
                self._update_quarantine_gauge()
                return result
            if self._expired(start):
                break
            if not tries:
                if deferred == len(self.endpoints):
                    last_error = OverloadedError(
                        "every endpoint is draining (liveness probe); "
                        "retry after resume"
                    )
                    break  # rule 5
                if len(self.endpoints) == 1:
                    last_error = last_error or CircuitOpenError(
                        "circuit open: the endpoint's half-open probe is taken"
                    )
                    break  # rule 3: a lone endpoint fails fast
            if attempt + 1 < self.policy.max_attempts:
                relief = self._earliest_relief(self.clock.now())
                if relief is not None:
                    retry_floor = max(retry_floor, relief)
                self.clock.sleep(self._bounded_backoff(attempt, start, retry_floor))
        if self._expired(start):
            error: ReproError = DeadlineExceededError(
                f"deadline of {self.policy.deadline}s exceeded after "
                f"{tries} attempt(s) across {len(self.endpoints)} endpoint(s)"
            )
            error.__cause__ = last_error
        else:
            error = last_error or TransportError(
                "query failed before any endpoint was attempted"
            )
        outcome = "failed"
        if not tries and isinstance(error, CircuitOpenError):
            self.counters.breaker_rejections += 1
            outcome = "breaker_rejected"
        elif not tries and isinstance(error, OverloadedError):
            outcome = "draining"
        raise self._give_up(request, query_span, error, outcome)

    def _give_up(self, request: QueryRequest, query_span, error: ReproError,
                 outcome: str) -> ReproError:
        """Count a failed query once; returns ``error`` for the caller to raise."""
        self.counters.failures += 1
        _M_OUTCOMES.inc(outcome=outcome)
        query_span.set_attribute("outcome", outcome)
        _LOG.error(
            "query_failed", kind=request.kind, table=request.table,
            outcome=outcome, error=type(error).__name__,
        )
        return error

    def _try_endpoint(self, endpoint: Endpoint, payload: bytes, verify,
                      attempt: int):
        endpoint.attempts += 1
        endpoint.last_attempt_at = self.clock.now()
        self.counters.attempts += 1
        _M_ATTEMPTS.inc(endpoint=endpoint.name)
        before = self.clock.now()
        with _trace.span("client.attempt", attempt=attempt, endpoint=endpoint.name):
            result = wire_exchange(
                endpoint.transport, payload, verify, self.user.group,
                self.rng, self.counters,
            )
        latency = self.clock.now() - before
        self._latencies.append(latency)
        return result, latency

    # -- hedging -------------------------------------------------------------
    def _hedge_threshold(self) -> Optional[float]:
        if self.hedge_percentile is None:
            return None
        if len(self._latencies) < self.hedge_min_samples:
            return None
        ordered = sorted(self._latencies)
        index = min(
            len(ordered) - 1, int(self.hedge_percentile * len(ordered))
        )
        return ordered[index]

    def _maybe_hedge(self, primary: Endpoint, ranked, payload, verify,
                     latency: float, tries: int, failed: dict) -> None:
        """Probe the next-best endpoint after a slow (verified) primary.

        The primary's result already won the race *and is already
        secured* (this runs after the deadline check, right before the
        result is returned), so no outcome here may raise; the hedge
        keeps the backup's health/latency estimates warm and is
        counted, so operators can see tail-latency pressure building.
        """
        if len(ranked) < 2:
            return  # no backup to hedge to
        threshold = self._hedge_threshold()
        if threshold is None or latency <= threshold:
            return
        backup = next(
            (e for e in ranked if e is not primary and e.breaker.allow()), None
        )
        if backup is None:
            return
        self.counters.hedges += 1
        _M_HEDGES.inc()
        _trace.add_event(
            "hedge_issued", primary=primary.name, backup=backup.name,
            latency=latency, threshold=threshold,
        )
        try:
            _, hedge_latency = self._try_endpoint(backup, payload, verify, tries)
        except OverloadedError as exc:
            self._rest(backup, exc, failed)
        except (WorkloadError, AccessDeniedError) as exc:
            # The primary's verified result already proved the query is
            # answerable, so a deterministic rejection from the backup
            # contradicts a proven answer: record it against the backup
            # and never let it surface past the verified result.
            self._suspect(backup, exc, failed)
        except ReproError as exc:
            self._attempt_failed(backup, exc, failed)
        else:
            backup.observe_success(hedge_latency)
            failed.pop(backup.name, None)

    # -- bookkeeping ---------------------------------------------------------
    def _expired(self, start: float) -> bool:
        if self.policy.deadline is None:
            return False
        return self.clock.now() - start >= self.policy.deadline

    def _bounded_backoff(self, attempt: int, start: float,
                         floor: float = 0.0) -> float:
        """Backoff for ``attempt``, floored by a server retry-after hint
        and clamped so the client never sleeps past its own deadline."""
        delay = max(self.policy.backoff(attempt, self.rng), floor)
        if self.policy.deadline is not None:
            remaining = self.policy.deadline - (self.clock.now() - start)
            delay = min(delay, max(0.0, remaining))
        return delay

    # -- trace assembly ------------------------------------------------------
    def _attempt_owners(self, trace_id: str) -> dict:
        """``request_suffix -> endpoint name`` from this trace's attempts.

        Every wire attempt records the random half of its request id on
        the ``client.attempt`` span (which also names the endpoint), so
        the local trace tree is an exact record of which endpoint each
        exchange went to.  Only attempts against *this* client's
        endpoints are claimed — in a sharded topology every shard's
        attempts share one trace tree, and each shard client must claim
        exactly its own exchanges.
        """
        root = _trace.tracer().find_trace(trace_id)
        if root is None:
            return {}
        owners: dict = {}
        stack = [root.to_dict() if hasattr(root, "to_dict") else root]
        while stack:
            node = stack.pop()
            attrs = node.get("attributes") or {}
            suffix = attrs.get(_relay.REQUEST_SUFFIX_ATTR)
            endpoint = attrs.get("endpoint")
            if suffix is not None and endpoint in self.endpoints:
                owners[suffix] = endpoint
            stack.extend(node.get("children") or ())
        return owners

    def collect_remote_spans(self, trace_id: str) -> list:
        """Scrape every endpoint's span relay for ``trace_id``.

        Each fetched span is claimed by the endpoint whose wire attempt
        recorded the same ``request_suffix`` and tagged with that name
        as ``relay_origin``.  Claiming by suffix rather than by which
        scrape returned the span keeps provenance honest on in-process
        loopback topologies, where every endpoint shares one
        process-global relay and each scrape returns *every* server's
        spans for the trace; spans whose exchange this client never
        made (another shard's, in a sharded deployment) are left for
        their owner to claim.  Endpoints that fail the scrape are
        skipped — trace assembly is best-effort observability, never a
        query-path dependency.
        """
        owners = self._attempt_owners(trace_id)
        remote: list = []
        seen: set = set()
        for name, endpoint in self.endpoints.items():
            try:
                spans = fetch_trace_spans(endpoint.transport, trace_id)
            except ReproError:
                continue
            for span in spans:
                if span.get("span_id") in seen:
                    continue
                attrs = span.setdefault("attributes", {})
                suffix = attrs.get(_relay.REQUEST_SUFFIX_ATTR)
                if suffix is not None:
                    owner = owners.get(suffix)
                    if owner is None:
                        continue  # someone else's exchange (shared relay)
                else:
                    # No suffix to match (not a handle_frame root): trust
                    # the scraped endpoint, as a per-server relay would.
                    owner = name
                seen.add(span.get("span_id"))
                attrs[_relay.RELAY_ORIGIN_ATTR] = owner
                remote.append(span)
        return remote

    def assemble_trace(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One coherent tree for a logical query: local + replica spans.

        With no ``trace_id`` the last finished query's trace is used.
        Returns ``None`` when that trace is not in the tracer's finished
        ring (or tracing is off).
        """
        trace_id = trace_id or self._last_trace_id
        if trace_id is None:
            return None
        root = _trace.tracer().find_trace(trace_id)
        if root is None:
            return None
        return _relay.assemble_trace(root, self.collect_remote_spans(trace_id))

    def stats(self) -> dict:
        """One operational snapshot: counters, endpoints, registry, ledger.

        ``registry`` is the ``repro_client_*`` slice of the global metrics
        registry (empty when ``REPRO_OBS=0``); ``ledger`` is the cost
        account of this client's most recent traced query.  ``counters``
        and ``endpoints`` are always live.
        """
        snapshot = _metrics.registry().snapshot()
        last = _ledger.ledger().get(self._last_trace_id)
        return {
            "counters": self.counters.as_dict(),
            "endpoints": {
                name: ep.snapshot() for name, ep in self.endpoints.items()
            },
            "registry": {
                key: value for key, value in snapshot.items()
                if key.startswith("repro_client_")
            },
            "ledger": last.as_dict() if last is not None else None,
        }


class ResilientClient(ReplicatedClient):
    """The verified query client over one endpoint, named ``"sp"``."""

    def __init__(self, user, transport: Transport,
                 policy: Optional[RetryPolicy] = None, **options):
        super().__init__(user, {"sp": transport}, policy, **options)
