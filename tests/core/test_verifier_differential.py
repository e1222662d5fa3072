"""The one VO verifier against the per-entry oracle, on both backends.

:mod:`repro.core.verifier` settles every APS proof of an answer in one
memoised small-exponent pairing product; ``tests/core/verifier_oracle.py``
checks each entry alone with a full ``ABS.Verify``.  On seeded equality,
range, join and multiway-join VOs the two must return the same records
or pairs, and on every single-entry forgery the same verdict with the
same blamed region.  The op-count gate pins what one settle costs.
"""

import dataclasses
import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.equality import equality_vo
from repro.core.join_query import join_vo
from repro.core.multiway_join import multiway_join_vo, verify_multiway_join_vo
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import prepare_vo, settle, verify_join_vo, verify_vo
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.crypto import simulated
from repro.errors import VerificationError
from repro.index.boxes import Box, Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

from tests.core.verifier_oracle import (
    ROLE_SETS,
    oracle_verify_join,
    oracle_verify_vo,
    world_for,
)

@pytest.fixture(scope="module", params=["simulated", "bn254"])
def world(request):
    return world_for(request.param)


def _outcome(fn):
    """``("ok", result)`` or ``(error type, message)``."""
    try:
        return "ok", fn()
    except VerificationError as exc:
        return type(exc), str(exc)


def _queries(world):
    last = world.size - 1
    return [(3, 3), (0, last // 2), (0, last)]


def _range_vos(world):
    rng = random.Random(7)
    for roles in ROLE_SETS:
        for lo, hi in _queries(world):
            query = clip_query(world.trees["R"], (lo,), (hi,))
            if lo == hi:
                vo = equality_vo(world.trees["R"], world.sp_auth, (lo,), roles, rng)
            else:
                vo = range_vo(world.trees["R"], world.sp_auth, query, roles, rng)
            yield roles, query, vo


def _forgeries(vo):
    """Every single-entry forgery of ``vo``: one entry changed, rest intact."""
    entries = list(vo.entries)
    aps_idx = [i for i, e in enumerate(entries) if not isinstance(e, AccessibleRecordEntry)]
    for i, entry in enumerate(entries):
        if isinstance(entry, AccessibleRecordEntry):
            forged = dataclasses.replace(entry, value=entry.value + b"!")
        elif isinstance(entry, InaccessibleRecordEntry):
            forged = dataclasses.replace(entry, value_hash=bytes(32))
        else:
            donors = [j for j in aps_idx if j != i]
            if not donors:
                continue
            forged = dataclasses.replace(entry, aps=entries[donors[0]].aps)
        yield i, VerificationObject(entries=entries[:i] + [forged] + entries[i + 1:])


def _values(records):
    return [(r.key, r.value) for r in records]


def test_equality_and_range_accept_like_oracle(world):
    for roles, query, vo in _range_vos(world):
        expected = oracle_verify_vo(vo, world.user(), query, roles)
        got = verify_vo(vo, world.user(), query, roles)
        assert _values(got) == _values(expected)


def test_equality_and_range_forgeries_blamed_like_oracle(world):
    forged_any = 0
    for roles, query, vo in _range_vos(world):
        if world.group.name == "bn254" and query.hi[0] - query.lo[0] > 3:
            continue  # the per-entry oracle costs ~5 pairings per entry
        for _, forged in _forgeries(vo):
            expected = _outcome(lambda: oracle_verify_vo(forged, world.user(), query, roles))
            got = _outcome(lambda: verify_vo(forged, world.user(), query, roles))
            assert expected[0] != "ok"
            assert got == expected
            forged_any += 1
    assert forged_any >= 3


def _join_cases(world, tables):
    rng = random.Random(11)
    query = clip_query(world.trees["R"], (0,), (world.size - 1,))
    for roles in ROLE_SETS:
        if len(tables) == 2:
            vo = join_vo(world.trees["R"], world.trees["S"], world.sp_auth, query, roles, rng)
        else:
            vo = multiway_join_vo(
                [(name, world.trees[name]) for name in tables],
                world.sp_auth, query, roles, rng,
            )
        yield roles, query, vo


def _verify_join(vo, auth, query, roles, tables):
    if len(tables) == 2:
        return [(p.left, p.right) for p in verify_join_vo(vo, auth, query, roles)]
    return [r.records for r in verify_multiway_join_vo(vo, auth, query, roles, tables)]


@pytest.mark.parametrize("tables", [("R", "S"), ("R", "S", "T")], ids=["join", "multiway"])
def test_joins_accept_like_oracle(world, tables):
    for roles, query, vo in _join_cases(world, tables):
        expected = oracle_verify_join(vo, world.user(), query, roles, tables)
        got = _verify_join(vo, world.user(), query, roles, tables)
        assert [tuple(_values(t)) for t in got] == [tuple(_values(t)) for t in expected]


@pytest.mark.parametrize("tables", [("R", "S"), ("R", "S", "T")], ids=["join", "multiway"])
def test_join_forgeries_blamed_like_oracle(world, tables):
    roles, query, vo = max(_join_cases(world, tables), key=lambda c: len(c[2].entries))
    checked = 0
    for _, forged in _forgeries(vo):
        expected = _outcome(lambda: oracle_verify_join(forged, world.user(), query, roles, tables))
        got = _outcome(lambda: _verify_join(forged, world.user(), query, roles, tables))
        assert expected[0] != "ok"
        assert got == expected
        checked += 1
        if world.group.name == "bn254" and checked == 3:
            break
    assert checked >= 3


def test_forged_twin_rejected_after_honest_one_is_memoised(world):
    """The memo never turns a forgery into an accept."""
    roles = frozenset({"RoleA"})
    query = clip_query(world.trees["R"], (0,), (world.size - 1,))
    vo = range_vo(world.trees["R"], world.sp_auth, query, roles, random.Random(3))
    user = world.user()
    honest = _values(verify_vo(vo, user, query, roles))
    assert user.aps_memo
    forged_twins = [
        forged for i, forged in _forgeries(vo)
        if not isinstance(vo.entries[i], AccessibleRecordEntry)
    ]
    assert forged_twins
    for forged in forged_twins[:2]:
        expected = _outcome(lambda: oracle_verify_vo(forged, world.user(), query, roles))
        assert _outcome(lambda: verify_vo(forged, user, query, roles)) == expected
    assert _values(verify_vo(vo, user, query, roles)) == honest


def test_value_hash_tamper_blamed_like_oracle():
    """Every inaccessible cell's value hash zeroed: the batch fails and
    names every tampered cell, first the one the per-entry oracle names."""
    rng = random.Random(1717)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 15)))
    for key in range(0, 16, 2):
        ds.add(Record((key,), b"r%d" % key,
                      parse_policy("RoleA" if key % 4 == 0 else "RoleB")))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (15,))
    vo = range_vo(tree, auth, query, roles, rng)
    assert _values(verify_vo(vo, auth, query, roles)) == _values(
        oracle_verify_vo(vo, auth, query, roles)
    )
    entries = [
        dataclasses.replace(e, value_hash=b"\x00" * 32)
        if isinstance(e, InaccessibleRecordEntry) else e
        for e in vo
    ]
    tampered = VerificationObject(entries=entries)
    expected = _outcome(lambda: oracle_verify_vo(tampered, auth, query, roles))
    assert expected[0] != "ok"
    kind, message = _outcome(lambda: verify_vo(tampered, auth, query, roles))
    assert kind is expected[0]
    assert message.startswith(expected[1])
    hashed = [e.region for e in entries if isinstance(e, InaccessibleRecordEntry)]
    assert len(hashed) >= 2
    assert all(str(region) in message for region in hashed)


# -- deterministic op-count gate ----------------------------------------------

def _settle_counts(backend: str):
    """Op counts of one fresh settle, a repeat settle, and a repeat verify."""
    world = world_for(backend)
    roles = frozenset({"RoleC"})
    query = Box((0,), (world.size - 1,))
    vo = range_vo(world.trees["R"], world.sp_auth, query, roles, random.Random(5))
    user = world.user()
    _, items, regions = prepare_vo(vo, user, query, roles)
    stats = world.group.stats
    before = stats.snapshot()
    settle(user, items, regions)
    fresh = stats.delta(before)
    before = stats.snapshot()
    settle(user, items, regions)
    again = stats.delta(before)
    before = stats.snapshot()
    verify_vo(vo, user, query, roles)
    reverify = stats.delta(before)
    attrs = {attr for item in items for attr in item.attrs}
    return len(items), len(attrs), fresh, again, reverify


def test_settle_costs_one_miller_pass_and_one_final_exp():
    n, l, fresh, again, reverify = _settle_counts("simulated")
    assert n >= 2
    assert fresh["miller_loops"] == 1
    assert fresh["final_exps"] == 1
    assert fresh["pairings"] == 3 + l + n
    assert again["pairings"] == again["miller_loops"] == again["final_exps"] == 0
    assert reverify["pairings"] == reverify["miller_loops"] == 0


def test_settle_counts_identical_on_both_backends():
    keys = ("pairings", "miller_loops", "final_exps")
    sim = _settle_counts("simulated")
    real = _settle_counts("bn254")
    assert sim[:2] == real[:2]
    for sim_delta, real_delta in zip(sim[2:], real[2:]):
        assert {k: sim_delta[k] for k in keys} == {k: real_delta[k] for k in keys}


def test_shared_memo_under_thread_contention(monkeypatch):
    """Threads settling honest and forged twins through one authenticator,
    with a memo small enough to evict constantly: every honest answer
    verifies, every forgery is rejected, and nothing else is raised."""
    import sys
    import threading

    import repro.core.verifier as verifier_mod
    from repro.errors import SoundnessError

    monkeypatch.setattr(verifier_mod, "APS_MEMO_MAX", 2)
    world = world_for("simulated")
    roles = frozenset({"RoleB", "RoleC"})
    query = clip_query(world.trees["R"], (0,), (world.size - 1,))
    vo = range_vo(world.trees["R"], world.sp_auth, query, roles, random.Random(6))
    expected = _values(oracle_verify_vo(vo, world.user(), query, roles))
    forged = [f for i, f in _forgeries(vo) if not isinstance(vo.entries[i], AccessibleRecordEntry)]
    assert forged
    user = world.user()
    failures = []

    def worker(seed):
        local = random.Random(seed)
        for _ in range(40):
            try:
                if local.random() < 0.5:
                    assert _values(verify_vo(vo, user, query, roles)) == expected
                else:
                    with pytest.raises(SoundnessError):
                        verify_vo(local.choice(forged), user, query, roles)
            except BaseException as exc:  # collected and re-raised below
                failures.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if failures:
        raise failures[0]
