"""Tests for the MSP memoization and SP-side APS cache.

The APS cache lives in the engine's plan/settle, so its tests drive
:func:`repro.core.engine.materialize` with one inaccessible-record task.
"""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.engine import INACCESSIBLE_RECORD, ProofTask, materialize
from repro.core.records import Record
from repro.core.system import DataOwner
from repro.crypto import simulated
from repro.policy.boolexpr import parse_policy
from repro.policy.compiler import Msp, get_msp, msp_cache_info
from repro.policy.roles import RoleUniverse

from tests.core.verifier_oracle import verify_inaccessible_record


def test_get_msp_returns_shared_instance():
    order = 101
    a = get_msp(parse_policy("X and (Y or Z)"), order)
    b = get_msp(parse_policy("X and (Y or Z)"), order)
    assert a is b
    c = get_msp(parse_policy("X and (Y or W)"), order)
    assert c is not a


def test_get_msp_distinguishes_order():
    expr = parse_policy("P or Q")
    assert get_msp(expr, 101) is not get_msp(expr, 103)


def test_cached_msp_matches_fresh():
    expr = parse_policy("(A and B) or C")
    cached = get_msp(expr, 101)
    fresh = Msp(expr, 101)
    assert cached.matrix == fresh.matrix
    assert cached.labels == fresh.labels


def test_msp_cache_info_reports():
    info = msp_cache_info()
    assert info.maxsize == 4096
    assert info.hits >= 0


@pytest.fixture()
def aps_env():
    rng = random.Random(111)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(simulated(), universe, rng=rng)
    auth = AppAuthenticator(simulated(), universe, owner.mvk)
    record = Record((1,), b"v", parse_policy("RoleA"))
    sig = owner.signer.sign_record(record, rng)
    return rng, universe, auth, record, sig


def _derive(auth, record, sig, roles, rng):
    """The APS the engine materializes for one inaccessible record."""
    task = ProofTask(kind=INACCESSIBLE_RECORD, signature=sig, record=record)
    (entry,) = materialize([task], auth, roles, rng).entries
    return entry.aps


def test_aps_cache_hit_returns_identical_signature(aps_env):
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache()
    roles = {"RoleB"}
    first = _derive(auth, record, sig, roles, rng)
    second = _derive(auth, record, sig, roles, rng)
    assert first == second  # served from cache
    assert auth.aps_cache_hits == 1
    assert auth.aps_cache_misses == 1
    assert verify_inaccessible_record(auth, record.key, record.value_hash(), roles, second)


def test_aps_cache_distinguishes_role_sets(aps_env):
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache()
    a = _derive(auth, record, sig, frozenset({"RoleB"}), rng)
    # A user with no roles has a different missing set -> cache miss.
    b = _derive(auth, record, sig, frozenset(), rng)
    assert auth.aps_cache_misses == 2
    assert len(a.s) != len(b.s)  # different super-policy lengths


def test_aps_cache_disabled_gives_fresh_signatures(aps_env):
    rng, universe, auth, record, sig = aps_env
    roles = {"RoleB"}
    first = _derive(auth, record, sig, roles, rng)
    second = _derive(auth, record, sig, roles, rng)
    assert first != second  # re-randomized every time


def test_aps_cache_eviction(aps_env):
    rng, universe, auth, record, sig = aps_env
    auth.enable_aps_cache(maxsize=1)
    _derive(auth, record, sig, frozenset({"RoleB"}), rng)
    _derive(auth, record, sig, frozenset(), rng)  # evicts the first
    _derive(auth, record, sig, frozenset({"RoleB"}), rng)
    assert auth.aps_cache_hits == 0
    assert auth.aps_cache_misses == 3
