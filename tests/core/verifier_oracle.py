"""The per-entry VO verifier: the test oracle for :mod:`repro.core.verifier`.

Every entry is checked on its own, in VO order: an APP signature under
the record's disclosed policy, an APS signature under the super policy
``OR(missing roles)`` with one full ``ABS.Verify`` (and its own final
exponentiations) per entry.  Nothing is batched, memoised or merged, so
the code is short enough to check by eye against the paper's
Algorithms 1, 3 and 4.  The library's one verifier must agree with it
on every verdict, every returned record, and the region it blames.

:func:`world_for` builds the seeded three-table world the differential
and tamper suites share, once per backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.app_signature import AppAuthenticator
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
)
from repro.crypto import bn254, simulated
from repro.errors import CompletenessError, SoundnessError
from repro.index.boxes import Domain, boxes_cover_clipped
from repro.policy.boolexpr import or_of_attrs, parse_policy
from repro.policy.roles import RoleUniverse


def verify_inaccessible_record(
    authenticator, key, value_hash, user_roles, aps, missing_roles=None
) -> bool:
    """One APS proving a record inaccessible, under the user's super policy.

    The verifier rebuilds the super policy from its *own* role set (it
    never sees the record's true policy); ``missing_roles`` overrides the
    default ``A \\ A`` for the hierarchical optimization (Section 8.1).
    """
    if missing_roles is None:
        missing_roles = authenticator.universe.missing_roles(user_roles)
    message = Record.message_from_hash(key, value_hash)
    return authenticator.scheme.verify(
        authenticator.mvk, message, or_of_attrs(missing_roles), aps
    )


def verify_inaccessible_node(authenticator, box, user_roles, aps, missing_roles=None) -> bool:
    """One APS proving a whole grid box inaccessible."""
    if missing_roles is None:
        missing_roles = authenticator.universe.missing_roles(user_roles)
    return authenticator.scheme.verify(
        authenticator.mvk, box.to_bytes(), or_of_attrs(missing_roles), aps
    )


def verify_entry(entry, authenticator, query, user_roles, missing_roles) -> Optional[Record]:
    """Check one entry; returns the record for accessible entries."""
    if isinstance(entry, AccessibleRecordEntry):
        if not query.contains_point(entry.key):
            raise SoundnessError(f"result key {entry.key} outside the query range")
        if not entry.policy.evaluate(user_roles):
            raise SoundnessError(
                f"result record {entry.key} is not accessible under the user roles"
            )
        record = entry.record()
        if not authenticator.verify_record(record, entry.signature):
            raise SoundnessError(f"APP signature invalid for record {entry.key}")
        return record
    if isinstance(entry, InaccessibleRecordEntry):
        ok = verify_inaccessible_record(
            authenticator, entry.key, entry.value_hash, user_roles, entry.aps, missing_roles
        )
    elif isinstance(entry, InaccessibleNodeEntry):
        ok = verify_inaccessible_node(
            authenticator, entry.box, user_roles, entry.aps, missing_roles
        )
    else:
        raise SoundnessError(f"unknown VO entry type {type(entry).__name__}")
    if not ok:
        raise SoundnessError(f"APS signature invalid for {entry.region}")
    return None


def oracle_verify_vo(vo, authenticator, query, user_roles, missing_roles=None) -> list[Record]:
    """Equality/range: exact tiling, then every entry alone."""
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    if not boxes_cover_clipped([entry.region for entry in vo], query):
        raise CompletenessError("VO entries do not tile the query range exactly")
    records = []
    for entry in vo:
        record = verify_entry(entry, authenticator, query, user_roles, missing_roles)
        if record is not None:
            records.append(record)
    return records


def oracle_verify_join(
    vo, authenticator, query, user_roles, table_names: Sequence[str], missing_roles=None
) -> list[tuple[Record, ...]]:
    """k-way join: key pairing, driver-side tiling, then every entry alone.

    Returns one tuple of records (in ``table_names`` order) per join key.
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    driver = table_names[0]
    access: dict[str, dict] = {name: {} for name in table_names}
    coverage = []
    for entry in vo:
        if isinstance(entry, AccessibleRecordEntry):
            if entry.table not in access:
                raise SoundnessError(f"unexpected table tag {entry.table!r}")
            bucket = access[entry.table]
            if entry.key in bucket:
                raise SoundnessError(f"duplicate result for key {entry.key} in {entry.table}")
            bucket[entry.key] = entry
            if entry.table == driver:
                coverage.append(entry.region)
        else:
            coverage.append(entry.region)
    for name in table_names[1:]:
        if set(access[name]) != set(access[driver]):
            raise SoundnessError(f"results of table {name!r} do not pair with the driver")
    if not boxes_cover_clipped(coverage, query):
        raise CompletenessError("join VO does not tile the query range")
    verified = {}
    for entry in vo:
        record = verify_entry(entry, authenticator, query, user_roles, missing_roles)
        if record is not None:
            verified[(entry.table, entry.key)] = record
    return [
        tuple(verified[(name, key)] for name in table_names)
        for key in sorted(access[driver])
    ]


# -- the shared seeded world ---------------------------------------------------

UNIVERSE = RoleUniverse(["RoleA", "RoleB", "RoleC"])
POLICIES = ["RoleA", "RoleB", "RoleA and RoleB", "RoleC", "RoleB or RoleC"]
ROLE_SETS = [frozenset({"RoleA"}), frozenset({"RoleB", "RoleC"}), frozenset()]
#: Keys per table: small, so the per-entry oracle's pairings stay few on
#: BN254, and equal on both backends, so their VOs have one shape.
DOMAIN = 8


@dataclass
class World:
    group: object
    owner: DataOwner
    trees: dict
    sp_auth: AppAuthenticator
    size: int

    def user(self) -> AppAuthenticator:
        """A fresh user-side authenticator (empty APS memo)."""
        return AppAuthenticator(self.group, UNIVERSE, self.owner.mvk)


_WORLDS: dict = {}


def world_for(backend: str) -> World:
    """Tables R, S, T over keys ``0..DOMAIN-1``, built once per backend."""
    if backend not in _WORLDS:
        group = simulated() if backend == "simulated" else bn254()
        owner = DataOwner(group, UNIVERSE, rng=random.Random(4242))
        trees = {}
        for t, name in enumerate("RST"):
            ds = Dataset(Domain.of((0, DOMAIN - 1)))
            for key in range(DOMAIN):
                if (key + t) % 3 != 2:
                    policy = parse_policy(POLICIES[(key + t) % len(POLICIES)])
                    ds.add(Record((key,), b"%s%d" % (name.encode(), key), policy))
            trees[name] = owner.build_tree(ds)
        sp_auth = AppAuthenticator(group, UNIVERSE, owner.mvk)
        _WORLDS[backend] = World(group, owner, trees, sp_auth, DOMAIN)
    return _WORLDS[backend]
