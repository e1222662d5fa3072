"""Process-pool relax backend and cross-query single-flight dedup.

The spawn-pool materializer must be *indistinguishable* from the thread
materializer: seeds are pre-drawn in task order and every group element
crosses the process boundary as canonical bytes, so the VO a process
pool produces is byte-identical to the threaded one — scheduling,
worker count, and pickling must not leak into the proof.  The dedup
tests pin the engine's single-flight contract: concurrent queries
needing the same APS derivation perform it once, and only the owner
counts it.
"""

import random
import threading

import pytest

import repro.core.app_signature as app_signature_mod
from repro import obs
from repro.core.app_signature import AppAuthenticator
from repro.core.engine import (
    INACCESSIBLE_RECORD,
    EngineStats,
    ProofTask,
    _relax_worker_job,
    execute,
    materialize,
    traverse_range,
)
from repro.core.range_query import clip_query
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner, QueryUser, ServiceProvider
from repro.core.verifier import verify_vo
from repro.crypto import simulated
from repro.errors import ReproError, WorkloadError
from repro.index.boxes import Domain
from repro.parallel import shutdown_process_pools
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

POLICIES = ["RoleA", "RoleB", "RoleA and RoleB", "RoleB or RoleC"]


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    yield
    shutdown_process_pools()


@pytest.fixture(scope="module")
def env():
    rng = random.Random(4040)
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 31)))
    for i in range(10):
        ds.add(Record((3 * i,), b"v-%02d" % i, parse_policy(POLICIES[i % len(POLICIES)])))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(owner.group, universe, owner.mvk)
    return universe, owner, tree, auth


def _materialize(env, backend, workers, seed=99, stats=None):
    universe, owner, tree, auth = env
    query = clip_query(tree, (0,), (31,))
    tasks = traverse_range(tree, query, frozenset({"RoleA"}))
    vo = materialize(
        tasks, auth, frozenset({"RoleA"}), random.Random(seed),
        workers=workers, backend=backend, stats=stats,
    )
    return vo, query, auth


def test_process_vo_byte_identical_to_thread(env):
    thread_vo, query, auth = _materialize(env, "thread", workers=2)
    process_vo, _, _ = _materialize(env, "process", workers=2)
    assert process_vo.to_bytes() == thread_vo.to_bytes()
    verify_vo(process_vo, auth, query, frozenset({"RoleA"}))


def test_process_backend_deterministic(env):
    one, _, _ = _materialize(env, "process", workers=2, seed=7)
    two, _, _ = _materialize(env, "process", workers=2, seed=7)
    assert one.to_bytes() == two.to_bytes()


def test_process_group_op_counters_match_thread(env):
    """Worker-side op deltas merge back into the parent's counters."""
    thread_stats = EngineStats()
    process_stats = EngineStats()
    _materialize(env, "thread", workers=2, stats=thread_stats)
    _materialize(env, "process", workers=2, stats=process_stats)
    assert process_stats.relax_calls == thread_stats.relax_calls > 0
    assert process_stats.group_ops == thread_stats.group_ops


def test_execute_records_backend(env):
    universe, owner, tree, auth = env
    query = clip_query(tree, (0,), (31,))
    roles = frozenset({"RoleA"})
    vo, stats = execute(
        "range", lambda: traverse_range(tree, query, roles),
        auth, roles, random.Random(5), workers=2, backend="process",
    )
    assert stats.backend == "process"
    assert stats.relax_calls > 0
    verify_vo(vo, auth, query, roles)


def test_unknown_backend_rejected(env):
    with pytest.raises(WorkloadError, match="backend"):
        _materialize(env, "fiber", workers=2)


def test_worker_job_requires_initializer():
    """A job landing in an un-initialized worker fails loudly."""
    with pytest.raises(ReproError, match="initial"):
        _relax_worker_job((b"", b"m", parse_policy("RoleA"), ["RoleA"], 1))


# ----------------------------------------------------------------------
# ServiceProvider integration
# ----------------------------------------------------------------------
def test_sp_process_backend_serves_and_pools(env):
    universe, owner, tree, auth = env
    sp = ServiceProvider(
        group=owner.group, universe=universe, mvk=owner.mvk,
        cpabe_public=owner.cpabe_public, trees={"T": tree},
        relax_backend="process", workers=2,
    )
    rng = random.Random(11)
    roles = frozenset({"RoleA"})
    first = sp.range_query("T", (0,), (31,), roles, rng=rng)
    assert first.stats.backend == "process"
    assert first.stats.relax_calls > 0
    second = sp.range_query("T", (0,), (31,), roles, rng=rng)
    assert second.stats.relax_calls == 0
    assert second.stats.aps_cache_hits == first.stats.relax_calls
    user = QueryUser(owner.group, universe, owner.register_user(roles))
    assert [r.key for r in user.verify(first)] == [r.key for r in user.verify(second)]


def test_sp_rejects_unknown_relax_backend(env):
    universe, owner, tree, auth = env
    with pytest.raises(WorkloadError, match="relax backend"):
        ServiceProvider(
            group=owner.group, universe=universe, mvk=owner.mvk,
            cpabe_public=owner.cpabe_public, trees={"T": tree},
            relax_backend="fiber",
        )


# ----------------------------------------------------------------------
# Cross-query single-flight dedup
# ----------------------------------------------------------------------
def _race_two_queries(env, monkeypatch):
    """Two ``workers=1`` materializations of the same APS, overlapped.

    The first query owns the flight and is held inside ``relax`` until
    the second has joined it as a waiter.  Returns the relax calls made,
    each query's APS and engine stats, and the dedup-hit count delta.
    """
    universe, owner, tree, auth = env
    authenticator = AppAuthenticator(owner.group, universe, owner.mvk)
    authenticator.enable_aps_cache()
    leaf = tree.leaf_at((6,))  # "RoleA and RoleB" — inaccessible to RoleB
    roles = frozenset({"RoleB"})
    task = ProofTask(kind=INACCESSIBLE_RECORD, signature=leaf.signature,
                     record=leaf.record)

    release = threading.Event()
    calls = []
    real_relax = app_signature_mod.relax

    def slow_relax(*args, **kwargs):
        calls.append(threading.get_ident())
        if not release.wait(timeout=30):
            raise AssertionError("dedup waiter never arrived")
        return real_relax(*args, **kwargs)

    monkeypatch.setattr(app_signature_mod, "relax", slow_relax)
    previous = obs.set_enabled(True)
    counter = app_signature_mod._M_INFLIGHT
    hits_before = counter.value(outcome="dedup_hit")
    results, stats = {}, {}

    def derive(tag):
        stats[tag] = EngineStats()
        vo = materialize([task], authenticator, roles, random.Random(8),
                         workers=1, stats=stats[tag])
        results[tag] = vo.entries[0].aps

    try:
        first = threading.Thread(target=derive, args=("a",))
        first.start()
        wake = threading.Event()
        for _ in range(3000):  # owner is inside relax, holding the flight
            if calls:
                break
            wake.wait(0.01)
        second = threading.Thread(target=derive, args=("b",))
        second.start()
        # Release once the second caller has joined the flight as a waiter.
        for _ in range(3000):
            if counter.value(outcome="dedup_hit") != hits_before:
                break
            wake.wait(0.01)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
    finally:
        release.set()
        obs.set_enabled(previous)
    return calls, results, stats, counter.value(outcome="dedup_hit") - hits_before


def test_concurrent_derivations_deduplicate(env, monkeypatch):
    """Two threads wanting the same APS perform exactly one relax."""
    calls, results, _stats, dedup_hits = _race_two_queries(env, monkeypatch)
    assert len(calls) == 1, "the waiter must reuse the owner's derivation"
    assert results["a"].to_bytes() == results["b"].to_bytes()
    assert dedup_hits == 1


def test_concurrent_workers1_count_one_derivation(env, monkeypatch):
    """A query that waited on another query's flight derived nothing."""
    calls, _results, stats, dedup_hits = _race_two_queries(env, monkeypatch)
    assert stats["a"].relax_calls + stats["b"].relax_calls == len(calls) == 1
    assert dedup_hits == 1


def test_concurrent_queries_keep_their_own_cache_counts(env, monkeypatch):
    """A query's cache hits/misses are its own, not those of a query that
    ran on the same pooled authenticator while it was deriving."""
    universe, owner, tree, auth = env
    authenticator = AppAuthenticator(owner.group, universe, owner.mvk)
    authenticator.enable_aps_cache()
    roles = frozenset({"RoleB"})

    def task_at(key):
        leaf = tree.leaf_at(key)
        return ProofTask(kind=INACCESSIBLE_RECORD, signature=leaf.signature,
                         record=leaf.record)

    warm, cold = task_at((0,)), task_at((6,))  # "RoleA", "RoleA and RoleB"
    materialize([warm], authenticator, roles, random.Random(1))
    inside, release = threading.Event(), threading.Event()
    real_relax = app_signature_mod.relax

    def held_relax(*args, **kwargs):
        inside.set()
        if not release.wait(timeout=30):
            raise AssertionError("never released")
        return real_relax(*args, **kwargs)

    monkeypatch.setattr(app_signature_mod, "relax", held_relax)
    slow_stats, fast_stats = EngineStats(), EngineStats()
    slow = threading.Thread(target=materialize, args=(
        [cold], authenticator, roles, random.Random(2)), kwargs={"stats": slow_stats})
    try:
        slow.start()
        assert inside.wait(timeout=30)
        materialize([warm], authenticator, roles, random.Random(3), stats=fast_stats)
    finally:
        release.set()
        slow.join(timeout=30)
    assert not slow.is_alive()
    assert (fast_stats.aps_cache_hits, fast_stats.aps_cache_misses) == (1, 0)
    assert (slow_stats.aps_cache_hits, slow_stats.aps_cache_misses) == (0, 1)


def test_owner_failure_wakes_waiters(env):
    """A publish(error) flight does not deadlock the waiter."""
    universe, owner, tree, auth = env
    authenticator = AppAuthenticator(owner.group, universe, owner.mvk)
    authenticator.enable_aps_cache()
    leaf = tree.leaf_at((6,))
    roles = frozenset({"RoleB"})
    key = authenticator.aps_cache_key(
        leaf.signature, leaf.record.message(), authenticator.missing_roles_for(roles)
    )
    slot, is_owner = authenticator.relax_begin(key)
    assert is_owner
    waiter_slot, waiter_owns = authenticator.relax_begin(key)
    assert not waiter_owns
    authenticator.relax_publish(key, slot, error=RuntimeError("owner died"))
    with pytest.raises(RuntimeError, match="owner died"):
        authenticator.relax_wait(waiter_slot, timeout=1.0)
    # The failed flight is retired: the next claimant owns a fresh slot.
    slot2, owns2 = authenticator.relax_begin(key)
    assert owns2
    authenticator.relax_publish(key, slot2, value=None)
