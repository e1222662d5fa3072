"""Tampered VOs the batched settle must reject, naming the bad region.

Two attacks the per-entry tests never covered:

* an APS whose ``P_1`` is replaced by a point on the BN254 twist but
  outside G2 — small-exponent batching is only sound over prime-order
  inputs, so the settle must refuse it before the pairing product;
* two APS signatures swapped inside a join and a multiway-join VO —
  each signature is valid, just on the other entry's message.
"""

import dataclasses
import random

import pytest

from repro.core.join_query import join_vo
from repro.core.multiway_join import multiway_join_vo, verify_multiway_join_vo
from repro.core.range_query import range_vo
from repro.core.verifier import verify_join_vo, verify_vo
from repro.core.vo import AccessibleRecordEntry, VerificationObject
from repro.crypto import tower
from repro.crypto.curve import TWIST_B, PointG2
from repro.crypto.field import FIELD_MODULUS
from repro.crypto.group import G2, GroupElement
from repro.errors import SoundnessError
from repro.index.boxes import Box

from tests.core.verifier_oracle import world_for

ROLES = frozenset({"RoleB", "RoleC"})


def off_subgroup_twist_point(rng: random.Random) -> PointG2:
    """A point on the twist E'(Fp2) whose order is not r."""
    while True:
        x = (rng.randrange(FIELD_MODULUS), rng.randrange(FIELD_MODULUS))
        y = tower.fp2_sqrt(tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B))
        if y is not None:
            point = PointG2((x, y))
            if point.is_on_curve() and not point.in_subgroup():
                return point


def _aps_indexes(vo):
    return [i for i, e in enumerate(vo.entries) if not isinstance(e, AccessibleRecordEntry)]


def test_off_subgroup_p1_rejected_naming_region():
    world = world_for("bn254")
    query = Box((0,), (world.size - 1,))
    vo = range_vo(world.trees["R"], world.sp_auth, query, ROLES, random.Random(1))
    i = _aps_indexes(vo)[0]
    entry = vo.entries[i]
    bad_p1 = GroupElement(world.group, G2, off_subgroup_twist_point(random.Random(2)))
    forged = dataclasses.replace(entry, aps=dataclasses.replace(entry.aps, p=(bad_p1,)))
    vo.entries[i] = forged
    # The forged point survives the wire: decoding checks only on-twist.
    decoded = VerificationObject.from_bytes(world.group, vo.to_bytes())
    with pytest.raises(SoundnessError, match="outside G2") as excinfo:
        verify_vo(decoded, world.user(), query, ROLES)
    assert str(entry.region) in str(excinfo.value)


def _swapped(vo):
    """``vo`` with its first two APS signatures exchanged; the blamed entry."""
    i, j = _aps_indexes(vo)[:2]
    a, b = vo.entries[i], vo.entries[j]
    entries = list(vo.entries)
    entries[i] = dataclasses.replace(a, aps=b.aps)
    entries[j] = dataclasses.replace(b, aps=a.aps)
    return VerificationObject(entries=entries), a


@pytest.mark.parametrize("backend", ["simulated", "bn254"])
def test_join_with_swapped_aps_rejected_naming_region(backend):
    world = world_for(backend)
    query = Box((0,), (world.size - 1,))
    vo = join_vo(world.trees["R"], world.trees["S"], world.sp_auth, query, ROLES,
                 random.Random(3))
    verify_join_vo(vo, world.user(), query, ROLES)
    forged, blamed = _swapped(vo)
    with pytest.raises(SoundnessError, match="APS signature invalid") as excinfo:
        verify_join_vo(forged, world.user(), query, ROLES)
    assert str(blamed.region) in str(excinfo.value)


@pytest.mark.parametrize("backend", ["simulated", "bn254"])
def test_multiway_join_with_swapped_aps_rejected_naming_region(backend):
    world = world_for(backend)
    query = Box((0,), (world.size - 1,))
    tables = ["R", "S", "T"]
    trees = [(name, world.trees[name]) for name in tables]
    vo = multiway_join_vo(trees, world.sp_auth, query, ROLES, random.Random(4))
    user = world.user()
    verify_multiway_join_vo(vo, user, query, ROLES, tables)
    forged, blamed = _swapped(vo)
    # The same authenticator: its memo holds every honest signature.
    with pytest.raises(SoundnessError, match="APS signature invalid") as excinfo:
        verify_multiway_join_vo(forged, user, query, ROLES, tables)
    assert str(blamed.region) in str(excinfo.value)
