"""Cross-query windowed VO verification (client side).

Every response's APS checks already settle as one merged pairing product
(:func:`repro.core.verifier.settle`).  The signatures in *consecutive*
responses share the same super policy too — the same user keeps the
same missing-role set — so the merge compounds across queries: a
:class:`VerificationWindow` defers the settle over up to ``size``
responses and runs it once, over all of their APS obligations, at flush
time.  The window is ``verify_vo`` with the settle moved: the structural
checks, the APP checks and the settle itself are the same functions.

The trade-off is explicit and opt-in: within a window, results are
**provisional** — structural checks (completeness tiling, accessible
records' APP signatures, envelope decryption) still run per response,
but a forged APS is only caught at the next flush.  The flush attributes
every failure to its response and region and raises
:class:`~repro.errors.SoundnessError`; an application that acts on
provisional results must be prepared to unwind them when the window it
belongs to fails.  Latency-sensitive, trust-eager callers should keep
``verification_window=None`` (settle per response, the default);
throughput-oriented callers amortize the pairing cost over the window.
"""

from __future__ import annotations

import threading

from repro.core.verifier import prepare_vo, settle
from repro.errors import ReproError, SoundnessError
from repro.obs import metrics as _metrics

_REG = _metrics.registry()
_M_WINDOW = _REG.counter(
    "repro_window_flush_total",
    "Verification-window flushes by trigger ('full', 'explicit', "
    "'empty') and outcome ('ok', 'invalid').",
    labelnames=("trigger", "outcome"),
)
_M_DEFERRED = _REG.counter(
    "repro_window_deferred_total",
    "APS signature checks deferred into a verification window.",
)


class VerificationWindow:
    """Defer APS batch checks over up to ``size`` responses.

    Drop-in for ``user.verify`` on equality/range responses: ``verify``
    opens and structurally checks the response, returns its accessible
    records immediately, and queues the APS obligations.  The window
    settles automatically when the ``size``-th response arrives, and on
    demand via :meth:`flush` — call it before trusting the provisional
    results of a batch of queries (and at shutdown).

    Join responses are not deferred: the client settles each one as it
    arrives, through the same :func:`~repro.core.verifier.settle`.
    """

    def __init__(self, user, size: int = 8):
        if size < 1:
            raise ReproError("verification window size must be >= 1")
        self.user = user
        self.size = size
        self._lock = threading.Lock()
        self._items: list = []
        self._labels: list[str] = []
        self._responses = 0
        self._seq = 0
        #: Responses settled through this window (monotonic).
        self.settled = 0
        #: Windows that flushed with an invalid signature (monotonic).
        self.failures = 0

    @property
    def pending(self) -> int:
        """Responses whose APS checks have not settled yet."""
        with self._lock:
            return self._responses

    def verify(self, response):
        """Structurally verify ``response``; defer its APS batch.

        Returns the accessible records immediately (provisional until
        the next flush).  Raises like ``user.verify`` for everything
        checked eagerly: completeness violations, tampered accessible
        records, undecryptable envelopes.
        """
        user = self.user
        vo = user._open(response)
        records, items, regions = prepare_vo(
            vo, user.authenticator, response.query, user.roles,
            user._missing_roles(),
        )
        if items:
            _M_DEFERRED.inc(len(items))
        flush_batch = None
        with self._lock:
            self._seq += 1
            self._responses += 1
            self._items.extend(items)
            self._labels.extend(
                f"response #{self._seq} ({response.query}): region {region}"
                for region in regions
            )
            if self._responses >= self.size:
                flush_batch = self._drain()
        if flush_batch is not None:
            self._settle(*flush_batch, trigger="full")
        return records

    def flush(self) -> int:
        """Settle every deferred check now; returns responses settled.

        Raises :class:`~repro.errors.SoundnessError` naming every failing
        response and region if any deferred APS signature is invalid.
        """
        with self._lock:
            batch = self._drain()
        if batch is None:
            _M_WINDOW.inc(trigger="empty", outcome="ok")
            return 0
        return self._settle(*batch, trigger="explicit")

    def _drain(self):
        """Take the current batch out of the window (lock held)."""
        if not self._responses:
            return None
        batch = (self._items, self._labels, self._responses)
        self._items = []
        self._labels = []
        self._responses = 0
        return batch

    def _settle(self, items: list, labels: list[str], responses: int,
                trigger: str) -> int:
        try:
            settle(self.user.authenticator, items, labels)
        except SoundnessError as exc:
            self.failures += 1
            _M_WINDOW.inc(trigger=trigger, outcome="invalid")
            raise SoundnessError(
                f"windowed batch verification failed — {exc}; every "
                f"provisional result in this window is untrusted"
            ) from exc
        self.settled += responses
        _M_WINDOW.inc(trigger=trigger, outcome="ok")
        return responses
