"""Runner differential: inline, thread and process materialization agree.

The engine derives APS proofs through one plan → derive → settle
pipeline whatever runs the derivations, so one task list sent through
the inline (``workers=1``), thread-pool and process-pool runners, with
the APS cache on, must report the same relax calls, cache hits/misses
and group-op counts; the two pool runners must produce the same bytes;
and every VO must verify.
"""

import random
import sys
import threading

import pytest

import repro.core.app_signature as app_signature_mod
from repro.core.app_signature import AppAuthenticator
from repro.core.engine import EngineStats, materialize, traverse_join
from repro.core.range_query import clip_query
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import verify_join_vo
from repro.crypto import simulated
from repro.index.boxes import Domain
from repro.parallel import shutdown_process_pools
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

POLICIES = ["RoleA", "RoleB", "RoleA and RoleB", "RoleB or RoleC"]
ROLES = frozenset({"RoleA"})
#: (runner, backend, workers)
RUNNERS = (("inline", "thread", 1), ("thread", "thread", 2), ("process", "process", 2))


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    yield
    shutdown_process_pools()


@pytest.fixture(scope="module")
def env():
    rng = random.Random(5150)
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(simulated(), universe, rng=rng)
    trees = []
    for offset in (0, 1):
        ds = Dataset(Domain.of((0, 31)))
        for i in range(12):
            policy = POLICIES[(i + offset) % len(POLICIES)]
            ds.add(Record((i * 5 % 32,), b"v-%d-%02d" % (offset, i), parse_policy(policy)))
        trees.append(owner.build_tree(ds))
    query = clip_query(trees[0], (0,), (31,))
    tasks = traverse_join(trees[0], trees[1], query, ROLES)
    return universe, owner, query, tasks


def _rounds(env, backend, workers):
    """Materialize the task list twice on a fresh cached authenticator:
    cold (every derivation runs), then warm (served from the cache)."""
    universe, owner, query, tasks = env
    auth = AppAuthenticator(owner.group, universe, owner.mvk)
    auth.enable_aps_cache()
    auth.warm_caches()
    out = []
    for seed in (31, 32):
        stats = EngineStats()
        vo = materialize(tasks, auth, ROLES, random.Random(seed),
                         workers=workers, backend=backend, stats=stats)
        out.append((vo, stats))
    return auth, out


def _counts(stats):
    return (stats.relax_calls, stats.aps_cache_hits, stats.aps_cache_misses,
            stats.group_ops)


def test_runners_agree(env):
    universe, owner, query, tasks = env
    runs = {name: _rounds(env, backend, workers) for name, backend, workers in RUNNERS}
    counts = {name: [_counts(stats) for _, stats in out] for name, (_, out) in runs.items()}
    assert counts["inline"] == counts["thread"] == counts["process"]
    cold, warm = counts["inline"]
    assert cold[0] > 0 and cold[2] == cold[0]  # every derivation a miss
    assert warm[0] == 0 and warm[1] == cold[0]  # all served from the cache
    thread_bytes = [vo.to_bytes() for vo, _ in runs["thread"][1]]
    process_bytes = [vo.to_bytes() for vo, _ in runs["process"][1]]
    assert thread_bytes == process_bytes
    for auth, out in runs.values():
        for vo, _ in out:
            verify_join_vo(vo, auth, query, ROLES)


def test_concurrent_inline_queries_count_every_derivation(env, monkeypatch):
    """Stress: more concurrent ``workers=1`` queries than cores, sharing
    one cached authenticator.  Whatever the interleaving (a waiter joins
    a flight, a late query hits the cache or re-derives after the flight
    retired), the relax calls the queries report add up to the real
    ``ABS.Relax`` invocations, and every VO verifies."""
    universe, owner, query, tasks = env
    auth = AppAuthenticator(owner.group, universe, owner.mvk)
    auth.enable_aps_cache()
    lock = threading.Lock()
    performed = []
    real_relax = app_signature_mod.relax

    def counted_relax(*args, **kwargs):
        with lock:
            performed.append(1)
        return real_relax(*args, **kwargs)

    monkeypatch.setattr(app_signature_mod, "relax", counted_relax)
    results = {}

    def serve(tag):
        stats = EngineStats()
        vo = materialize(tasks, auth, ROLES, random.Random(tag), workers=1, stats=stats)
        results[tag] = (vo, stats)

    threads = [threading.Thread(target=serve, args=(tag,)) for tag in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    assert sum(stats.relax_calls for _, stats in results.values()) == len(performed) > 0
    for vo, _ in results.values():
        verify_join_vo(vo, auth, query, ROLES)
