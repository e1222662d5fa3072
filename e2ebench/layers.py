"""Outside-in layer instrumentation for the end-to-end benchmark.

Every layer is observed at its public entry point by replacing the
module or class attribute with a thin wrapper, from this file only: the
program under test is not modified.  A wrapper always counts its calls
(the count fingerprint needs them on every run).  It records a span only
while :attr:`Recorder.active` is set, which happens for every other
operation of a ``--trace 1`` run and never in a ``--trace 0`` run.

A span is ``[name, start, end, parent_index, op_index]``.  Spans stay in
memory; a layer's self time is its span's duration minus the durations
of its direct children, which nest strictly because the benchmark runs
one request at a time on one thread.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import repro.core.messages as _messages
import repro.core.system as _system
import repro.crypto.pairing as _pairing
import repro.index.updates as _updates
import repro.net.client as _client
from repro.abs.scheme import AbsScheme
from repro.core.app_signature import AppAuthenticator, AppSigner
from repro.core.system import ServiceProvider
from repro.index.gridtree import APGTree
from repro.net.ingest import ServerIngest
from repro.net.server import ResilientSPServer

#: (owner, attribute, span name).  Module functions are patched on the
#: module that *calls* them, because ``from x import f`` binds a name
#: there that a patch of ``x.f`` would not reach.
ENTRY_POINTS = (
    (_pairing, "miller_loop", "crypto.miller_loop"),
    (_pairing, "final_exponentiation", "crypto.final_exp"),
    (AppAuthenticator, "derive_aps", "abs.relax"),
    (AbsScheme, "verify", "abs.verify"),
    (_system, "encrypt_for_roles", "abe.seal"),
    (_system, "decrypt_envelope", "abe.open"),
    (_system, "execute", "engine.execute"),
    (_system, "verify_vo", "verifier"),
    (_system, "verify_join_vo", "verifier"),
    (_messages, "encode_response", "wire.encode"),
    (_client, "decode_response", "wire.decode"),
    (ResilientSPServer, "handle_frame", "sp.serve"),
    (ServiceProvider, "authenticator_for", "sp.auth_pool"),
    (APGTree, "build", "index.build"),
    (AppSigner, "sign_node", "index.sign"),
    (AppSigner, "sign_record", "index.sign"),
    (_updates, "upsert", "index.update"),
    (_updates, "delete", "index.update"),
    (ServerIngest, "handle", "ingest.apply"),
    (ServerIngest, "checkpoint", "ingest.checkpoint"),
    (os, "fsync", "os.fsync"),
)


class Recorder:
    """Span store plus always-on call counters and captured layer stats."""

    def __init__(self):
        self.active = False
        self.op_index = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        #: Facts the wrappers capture from return values: the engine
        #: stats of every query, the nodes every update re-signed.
        self.engine_stats: list = []
        self.resigned_nodes = 0
        #: Authenticators the SP pool has handed out: a repeat is a pool
        #: hit, a new object a miss (the object is kept so its id stays
        #: unique).
        self._pooled: dict = {}
        self.pool_hits = 0
        self.pool_misses = 0
        self._saved: list[tuple] = []

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name):
        if isinstance(original, classmethod):
            inner = self._wrap(original.__func__, name)
            return classmethod(inner)
        recorder = self

        def wrapper(*args, **kwargs):
            recorder.calls[name] += 1
            if not recorder.active:
                result = original(*args, **kwargs)
            else:
                with recorder.span(name):
                    result = original(*args, **kwargs)
            if name == "engine.execute":
                recorder.engine_stats.append(result[1])
            elif name == "index.update":
                recorder.resigned_nodes += result.resigned_nodes
            elif name == "sp.auth_pool":
                if id(result) in recorder._pooled:
                    recorder.pool_hits += 1
                else:
                    recorder._pooled[id(result)] = result
                    recorder.pool_misses += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- spans ---------------------------------------------------------------
    def span(self, name: str):
        return _Span(self, name)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_index])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Self time (seconds) of every recorded span, by span index."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]


class _Span:
    __slots__ = ("recorder", "name", "index")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.index = self.recorder.open(self.name)
        return self

    def __exit__(self, *exc):
        self.recorder.close(self.index)
        return False


def layer_breakdown(recorder: Recorder, traced_ops) -> dict:
    """Aggregate the spans of the traced ops into per-op layer figures.

    Returns ``{"by_op": {op: {layer: [calls, self_s, inclusive_s]}},
    "wall": {op: seconds}, "stage_sum": {op: seconds}}``; an op's wall
    time is its root span and its stage sum adds the root's direct
    children.
    """
    self_times = recorder.self_times()
    by_op: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    wall, stage_sum = {}, defaultdict(float)
    roots = set()
    for i, (name, start, end, parent, op) in enumerate(recorder.spans):
        if op not in traced_ops:
            continue
        if parent < 0:
            roots.add(i)
            wall[op] = end - start
            continue
        cell = by_op[op][name]
        cell[0] += 1
        cell[1] += self_times[i]
        cell[2] += end - start
        if parent in roots:
            stage_sum[op] += end - start
    return {"by_op": by_op, "wall": wall, "stage_sum": stage_sum}
