"""Tests for APP/APS signatures (Definitions 5.1, 5.2)."""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.records import Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.errors import PolicyError, RelaxationError
from repro.index.boxes import Box
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse

from tests.core.verifier_oracle import verify_inaccessible_node, verify_inaccessible_record


@pytest.fixture(scope="module")
def env():
    rng = random.Random(33)
    universe = RoleUniverse(["RoleA", "RoleB", "RoleC"])
    owner = DataOwner(simulated(), universe, rng=rng)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    return rng, universe, owner.signer, auth


def test_app_signature_verifies(env):
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("RoleA and RoleB"))
    sig = signer.sign_record(record, rng)
    assert auth.verify_record(record, sig)


def test_app_signature_rejects_tampered_value(env):
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("RoleA"))
    sig = signer.sign_record(record, rng)
    fake = Record((5,), b"FORGED", record.policy)
    assert not auth.verify_record(fake, sig)


def test_app_signature_rejects_swapped_key(env):
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("RoleA"))
    sig = signer.sign_record(record, rng)
    moved = Record((6,), b"v", record.policy)
    assert not auth.verify_record(moved, sig)


def test_sign_rejects_foreign_policy(env):
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("Unknown"))
    with pytest.raises(PolicyError):
        signer.sign_record(record, rng)


def test_aps_derivation_and_verification(env):
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("RoleA and RoleB"))
    sig = signer.sign_record(record, rng)
    user_roles = {"RoleB"}  # policy unsatisfied
    aps = auth.derive_record_aps(record, sig, user_roles, rng)
    assert verify_inaccessible_record(
        auth, record.key, record.value_hash(), user_roles, aps
    )
    # APS is user-specific: another user's role set fails verification.
    assert not verify_inaccessible_record(
        auth, record.key, record.value_hash(), {"RoleC"}, aps
    )


def test_aps_refused_for_accessible_record(env):
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("RoleA"))
    sig = signer.sign_record(record, rng)
    with pytest.raises(RelaxationError):
        auth.derive_record_aps(record, sig, {"RoleA"}, rng)


def test_node_signature_and_aps(env):
    rng, universe, signer, auth = env
    box = Box((0, 0), (3, 3))
    policy = parse_policy("RoleA or RoleC")
    sig = signer.sign_node(box, policy, rng)
    user_roles = {"RoleB"}
    aps = auth.derive_node_aps(box, policy, sig, user_roles, rng)
    assert verify_inaccessible_node(auth, box, user_roles, aps)
    # Bound to the exact box.
    assert not verify_inaccessible_node(auth, Box((0, 0), (3, 4)), user_roles, aps)


def test_aps_with_custom_missing_roles(env):
    """Hierarchical mode: reduced missing set used on both sides."""
    rng, universe, signer, auth = env
    record = Record((5,), b"v", parse_policy("RoleA and RoleB"))
    sig = signer.sign_record(record, rng)
    reduced = [r for r in universe.missing_roles({"RoleB"}) if r != "RoleC"]
    aps = auth.derive_aps(sig, record.message(), record.policy, reduced, rng)
    assert verify_inaccessible_record(
        auth, record.key, record.value_hash(), {"RoleB"}, aps, missing_roles=reduced
    )
    # Default (full) super policy fails against the reduced APS.
    assert not verify_inaccessible_record(
        auth, record.key, record.value_hash(), {"RoleB"}, aps
    )


def test_do_signing_key_covers_universe(env):
    _, universe, signer, _ = env
    assert set(signer.signing_key.attrs) == set(universe.roles)
