"""Tests for equality-query authentication (Algorithm 1)."""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.equality import equality_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import verify_vo
from repro.core.vo import AccessibleRecordEntry, InaccessibleRecordEntry
from repro.crypto import simulated
from repro.errors import PolicyError
from repro.index.boxes import Box, Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

from tests.core.verifier_oracle import verify_inaccessible_record


@pytest.fixture(scope="module")
def env():
    rng = random.Random(55)
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(simulated(), universe, rng=rng)
    ds = Dataset(Domain.of((0, 15)))
    ds.add(Record((3,), b"a-data", parse_policy("RoleA")))
    ds.add(Record((9,), b"bc-data", parse_policy("RoleB and RoleC")))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, tree, auth


def test_accessible_outcome(env):
    rng, tree, auth = env
    vo = equality_vo(tree, auth, (3,), {"RoleA"}, rng)
    assert len(vo) == 1
    assert isinstance(vo.entries[0], AccessibleRecordEntry)
    records = verify_vo(vo, auth, Box((3,), (3,)), {"RoleA"})
    assert records[0].value == b"a-data"


def test_inaccessible_outcome(env):
    rng, tree, auth = env
    vo = equality_vo(tree, auth, (9,), {"RoleA"}, rng)
    assert len(vo) == 1
    assert isinstance(vo.entries[0], InaccessibleRecordEntry)
    assert verify_vo(vo, auth, Box((9,), (9,)), {"RoleA"}) == []


def test_nonexistent_outcome(env):
    rng, tree, auth = env
    vo = equality_vo(tree, auth, (7,), {"RoleA"}, rng)
    assert len(vo) == 1
    assert isinstance(vo.entries[0], InaccessibleRecordEntry)
    assert verify_vo(vo, auth, Box((7,), (7,)), {"RoleA"}) == []


def test_zero_knowledge_indistinguishability(env):
    """The VO for a hidden record and a non-existent one must have
    identical structure: same entry type, same field shapes, same byte
    size.  (Payload bytes differ — they are hashes — but nothing tells
    the user which case they are in.)"""
    rng, tree, auth = env
    vo_hidden = equality_vo(tree, auth, (9,), {"RoleA"}, rng)
    vo_absent = equality_vo(tree, auth, (7,), {"RoleA"}, rng)
    a, b = vo_hidden.entries[0], vo_absent.entries[0]
    assert type(a) is type(b)
    assert len(a.value_hash) == len(b.value_hash)
    assert len(a.aps.s) == len(b.aps.s)  # super policy length is user-only
    assert len(a.aps.p) == len(b.aps.p)
    assert a.byte_size() == b.byte_size()


def test_full_access_user_sees_everything(env):
    rng, tree, auth = env
    roles = {"RoleA", "RoleB", "RoleC"}
    vo = equality_vo(tree, auth, (9,), roles, rng)
    records = verify_vo(vo, auth, Box((9,), (9,)), roles)
    assert records[0].value == b"bc-data"


def test_invalid_roles_rejected(env):
    rng, tree, auth = env
    with pytest.raises(PolicyError):
        equality_vo(tree, auth, (3,), {"NotARole"}, rng)


def test_aps_super_policy_depends_on_requesting_user(env):
    """An APS derived for one user must not verify for another user."""
    rng, tree, auth = env
    vo = equality_vo(tree, auth, (9,), {"RoleA"}, rng)
    entry = vo.entries[0]
    assert verify_inaccessible_record(
        auth, entry.key, entry.value_hash, {"RoleA"}, entry.aps
    )
    assert not verify_inaccessible_record(
        auth, entry.key, entry.value_hash, {"RoleB"}, entry.aps
    )
