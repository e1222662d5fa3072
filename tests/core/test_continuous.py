"""Tests for continuous attributes via pseudo regions (Section 9.2)."""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.continuous import (
    ContinuousIndex,
    continuous_equality_vo,
    continuous_range_vo,
    verify_continuous_vo,
)
from repro.core.records import Record
from repro.core.system import DataOwner
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
)
from repro.crypto import simulated
from repro.errors import CompletenessError, WorkloadError
from repro.index.boxes import Box
from repro.policy.boolexpr import Attr, parse_policy
from repro.policy.roles import PSEUDO_ROLE, RoleUniverse

LO, HI = 0, 9999


# ----------------------------------------------------------------------
# Frozen pre-engine builder (golden reference).  A verbatim copy of the
# SP-side builder the engine-backed ``continuous_range_vo`` replaced; do
# not "fix" or modernize it — byte-identity against it is the contract.
# ----------------------------------------------------------------------
def _legacy_continuous_range_vo(index, authenticator, query, user_roles, rng=None):
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    vo = VerificationObject()
    pseudo = Attr(PSEUDO_ROLE)
    for kind, signed in index.segments():
        if kind == "record":
            record = signed.record
            if not query.contains_point(record.key):
                continue
            if record.policy.evaluate(user_roles):
                vo.add(
                    AccessibleRecordEntry(
                        key=record.key,
                        value=record.value,
                        policy=record.policy,
                        signature=signed.signature,
                    )
                )
            else:
                aps = authenticator.derive_record_aps(record, signed.signature, user_roles, rng)
                vo.add(
                    InaccessibleRecordEntry(
                        key=record.key, value_hash=record.value_hash(), aps=aps
                    )
                )
        else:
            if not signed.box.intersects(query):
                continue
            aps = authenticator.derive_node_aps(
                signed.box, pseudo, signed.signature, user_roles, rng
            )
            vo.add(InaccessibleNodeEntry(box=signed.box, aps=aps))
    return vo


@pytest.fixture(scope="module")
def env():
    rng = random.Random(111)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    records = [
        Record((100,), b"e100", parse_policy("RoleA")),
        Record((2500,), b"e2500", parse_policy("RoleB")),
        Record((2501,), b"e2501", parse_policy("RoleA")),
        Record((9000,), b"e9000", parse_policy("RoleA and RoleB")),
    ]
    index = ContinuousIndex(owner.signer, LO, HI, records, rng)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, index, auth


def test_index_signature_count(env):
    _, index, _ = env
    # 4 records + 4 gap regions (before 100, between 100..2500,
    # between 2501..9000, after 9000).
    assert index.num_signatures == 8
    boxes = [s.box for s in index.regions]
    assert Box((0,), (99,)) in boxes
    assert Box((9001,), (9999,)) in boxes
    # Adjacent records leave no gap between them.
    assert all(b.lo[0] != 2501 for b in boxes)


def test_segments_ordered_and_tiling(env):
    _, index, _ = env
    items = index.segments()
    cursor = LO
    for kind, signed in items:
        box = Box(signed.record.key, signed.record.key) if kind == "record" else signed.box
        assert box.lo[0] == cursor
        cursor = box.hi[0] + 1
    assert cursor == HI + 1


def test_range_query_matches_ground_truth(env):
    rng, index, auth = env
    for roles in ({"RoleA"}, {"RoleB"}, set(), {"RoleA", "RoleB"}):
        query = Box((50,), (9500,))
        vo = continuous_range_vo(index, auth, query, roles, rng)
        records = verify_continuous_vo(vo, auth, query, roles)
        expected = sorted(
            s.record.value
            for s in index.records
            if query.contains_point(s.record.key) and s.record.policy.evaluate(roles)
        )
        assert sorted(r.value for r in records) == expected


@pytest.mark.parametrize("lo, hi", [(50, 9500), (2400, 2600), (5000, 5000), (LO, HI)])
def test_range_vo_byte_identical_to_legacy(env, lo, hi):
    """The engine-backed builder matches the frozen one for the same seed."""
    _, index, auth = env
    query = Box((lo,), (hi,))
    for roles in ({"RoleA"}, {"RoleB"}, set(), {"RoleA", "RoleB"}):
        legacy = _legacy_continuous_range_vo(index, auth, query, roles, random.Random(17))
        new = continuous_range_vo(index, auth, query, roles, random.Random(17))
        assert new.to_bytes() == legacy.to_bytes()


def test_equality_on_record(env):
    rng, index, auth = env
    vo = continuous_equality_vo(index, auth, 100, {"RoleA"}, rng)
    records = verify_continuous_vo(vo, auth, Box((100,), (100,)), {"RoleA"})
    assert [r.value for r in records] == [b"e100"]


def test_equality_on_empty_point_proves_absence(env):
    rng, index, auth = env
    vo = continuous_equality_vo(index, auth, 5000, {"RoleA"}, rng)
    assert len(vo) == 1  # one region APS covers the probe
    assert verify_continuous_vo(vo, auth, Box((5000,), (5000,)), {"RoleA"}) == []


def test_region_entry_reveals_distribution_but_not_policy(env):
    """The relaxed model leaks record *positions* (region bounds) but an
    inaccessible record still hides its policy behind the super policy."""
    rng, index, auth = env
    vo = continuous_range_vo(index, auth, Box((2400,), (2600,)), {"RoleA"}, rng)
    kinds = sorted(type(e).__name__ for e in vo)
    assert kinds == [
        "AccessibleRecordEntry",    # 2501 (RoleA)
        "InaccessibleNodeEntry",    # gap region 101..2499 (clipped)
        "InaccessibleNodeEntry",    # gap region 2502..8999 (clipped)
        "InaccessibleRecordEntry",  # 2500 hidden (RoleB)
    ]


def test_coverage_gap_detected(env):
    rng, index, auth = env
    query = Box((50,), (3000,))
    vo = continuous_range_vo(index, auth, query, {"RoleA"}, rng)
    vo.entries.pop()  # drop one proof
    with pytest.raises(CompletenessError):
        verify_continuous_vo(vo, auth, query, {"RoleA"})


def test_index_validation():
    rng = random.Random(1)
    universe = RoleUniverse(["RoleA"])
    owner = DataOwner(simulated(), universe, rng=rng)
    with pytest.raises(WorkloadError):
        ContinuousIndex(owner.signer, 10, 0, [], rng)
    with pytest.raises(WorkloadError):
        ContinuousIndex(
            owner.signer, 0, 10,
            [Record((20,), b"x", parse_policy("RoleA"))], rng,
        )
    with pytest.raises(WorkloadError):
        ContinuousIndex(
            owner.signer, 0, 10,
            [Record((5,), b"x", parse_policy("RoleA")),
             Record((5,), b"y", parse_policy("RoleA"))], rng,
        )


def test_index_cost_scales_with_records_not_domain():
    rng = random.Random(2)
    universe = RoleUniverse(["RoleA"])
    owner = DataOwner(simulated(), universe, rng=rng)
    records = [Record((i * 1_000_000,), b"v", parse_policy("RoleA")) for i in range(5)]
    index = ContinuousIndex(owner.signer, 0, 10_000_000, records, rng)
    assert index.num_signatures <= 2 * len(records) + 1
