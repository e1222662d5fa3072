"""Tests for the inequality (band) join extension."""

import dataclasses
import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.inequality_join import (
    InequalityJoinVO,
    inequality_join_vo,
    verify_inequality_join_vo,
)
from repro.core.range_query import clip_query
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.errors import CompletenessError, SoundnessError, WorkloadError
from repro.index.boxes import Box, Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

POLICIES = ["RoleA", "RoleB", "RoleA or RoleB"]


@pytest.fixture(scope="module")
def env():
    rng = random.Random(1313)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    domain = Domain.of((0, 31))
    table_r, table_s = Dataset(domain), Dataset(domain)
    for i, k in enumerate(sorted(rng.sample(range(32), 10))):
        table_r.add(Record((k,), b"r%02d" % k, parse_policy(POLICIES[i % 3])))
    for i, k in enumerate(sorted(rng.sample(range(32), 10))):
        table_s.add(Record((k,), b"s%02d" % k, parse_policy(POLICIES[(i + 1) % 3])))
    tree_r = owner.build_tree(table_r)
    tree_s = owner.build_tree(table_s)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, domain, table_r, table_s, tree_r, tree_s, auth


def _truth(table_r, table_s, query, roles):
    out = []
    for r in table_r:
        if not query.contains_point(r.key) or not r.policy.evaluate(roles):
            continue
        for s in table_s:
            if s.key[0] >= r.key[0] and s.policy.evaluate(roles):
                out.append((r.value, s.value))
    return sorted(out)


@pytest.mark.parametrize("roles", [frozenset({"RoleA"}), frozenset({"RoleA", "RoleB"}),
                                   frozenset()], ids=["A", "AB", "none"])
@pytest.mark.parametrize("q", [((0,), (31,)), ((5,), (20,)), ((28,), (31,))])
def test_matches_ground_truth(env, roles, q):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    query = clip_query(tree_r, *q)
    bundle = inequality_join_vo(tree_r, tree_s, auth, query, roles, rng)
    pairs = verify_inequality_join_vo(bundle, auth, domain, roles)
    got = sorted((p.left.value, p.right.value) for p in pairs)
    assert got == _truth(table_r, table_s, query, roles)


def test_empty_r_side_has_no_s_proof(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    bundle = inequality_join_vo(
        tree_r, tree_s, auth, Box((0,), (31,)), frozenset(), rng
    )
    assert bundle.s_vo is None
    assert verify_inequality_join_vo(bundle, auth, domain, frozenset()) == []


def test_shrunken_s_range_rejected(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    roles = frozenset({"RoleA", "RoleB"})
    query = Box((0,), (31,))
    bundle = inequality_join_vo(tree_r, tree_s, auth, query, roles, rng)
    assert bundle.s_range is not None
    # SP shifts the S proof to start later, hiding small-key S records.
    from repro.core.range_query import range_vo

    shifted = Box((bundle.s_range.lo[0] + 2,), bundle.s_range.hi)
    forged = InequalityJoinVO(
        query=query,
        r_vo=bundle.r_vo,
        s_vo=range_vo(tree_s, auth, shifted, roles, rng, table="S"),
        s_range=shifted,
    )
    with pytest.raises(CompletenessError):
        verify_inequality_join_vo(forged, auth, domain, roles)


def test_spurious_s_proof_rejected(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    bundle = inequality_join_vo(tree_r, tree_s, auth, Box((0,), (31,)), frozenset(), rng)
    from repro.core.range_query import range_vo

    forged = InequalityJoinVO(
        query=bundle.query,
        r_vo=bundle.r_vo,
        s_vo=range_vo(tree_s, auth, Box((0,), (31,)), frozenset(), rng, table="S"),
        s_range=Box((0,), (31,)),
    )
    with pytest.raises(SoundnessError):
        verify_inequality_join_vo(forged, auth, domain, frozenset())


def test_missing_s_proof_rejected(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    roles = frozenset({"RoleA", "RoleB"})
    bundle = inequality_join_vo(tree_r, tree_s, auth, Box((0,), (31,)), roles, rng)
    forged = InequalityJoinVO(
        query=bundle.query, r_vo=bundle.r_vo, s_vo=None, s_range=None
    )
    with pytest.raises(CompletenessError):
        verify_inequality_join_vo(forged, auth, domain, roles)


def test_requires_1d_shared_domain(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    owner = DataOwner(simulated(), auth.universe, rng=rng)
    other = owner.build_tree(Dataset(Domain.of((0, 15))))
    with pytest.raises(WorkloadError):
        inequality_join_vo(tree_r, other, auth, Box((0,), (15,)), {"RoleA"}, rng)
    other2d = owner.build_tree(Dataset(Domain.of((0, 3), (0, 3))))
    with pytest.raises(WorkloadError):
        inequality_join_vo(other2d, other2d, auth, Box((0, 0), (3, 3)), {"RoleA"}, rng)


def _aps_count(vo):
    return sum(1 for entry in vo if hasattr(entry, "aps"))


def test_both_sides_settle_in_one_product(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    roles = frozenset({"RoleA"})
    bundle = inequality_join_vo(tree_r, tree_s, auth, Box((0,), (31,)), roles, rng)
    assert bundle.s_vo is not None
    assert _aps_count(bundle.r_vo) and _aps_count(bundle.s_vo)
    fresh = AppAuthenticator(auth.group, auth.universe, auth.mvk)
    before = fresh.group.stats.snapshot()
    verify_inequality_join_vo(bundle, fresh, domain, roles)
    ops = fresh.group.stats.delta(before)
    assert ops["miller_loops"] == 1
    assert ops["final_exps"] == 1


def test_swapped_s_side_aps_rejected(env):
    rng, domain, table_r, table_s, tree_r, tree_s, auth = env
    roles = frozenset({"RoleA"})
    bundle = inequality_join_vo(tree_r, tree_s, auth, Box((0,), (31,)), roles, rng)
    entries = bundle.s_vo.entries
    i, j = [k for k, entry in enumerate(entries) if hasattr(entry, "aps")][:2]
    entries[i], entries[j] = (
        dataclasses.replace(entries[i], aps=entries[j].aps),
        dataclasses.replace(entries[j], aps=entries[i].aps),
    )
    with pytest.raises(SoundnessError, match="APS signature invalid for") as excinfo:
        verify_inequality_join_vo(bundle, auth, domain, roles)
    assert str(entries[i].region) in str(excinfo.value)
