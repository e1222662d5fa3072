"""Tests for small-exponents batch verification of APS signatures."""

import random

import pytest

from repro.abs.batch import (
    BatchItem,
    batch_verify,
    batch_verify_unmerged,
    find_invalid,
    verify_or_find_invalid,
)
from repro.abs.relax import relax
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.crypto import bn254, simulated
from repro.policy.boolexpr import parse_policy

ROLES = ["R0", "R1", "R2", "R3"]


@pytest.fixture(scope="module")
def env():
    rng = random.Random(1414)
    scheme = AbsScheme(simulated())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ROLES, rng)
    missing = ("R2", "R3")  # super policy for a user holding R0, R1
    items = []
    for i in range(6):
        message = b"record-%d" % i
        policy = parse_policy("R2 and R3")
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        aps, _ = relax(scheme, keys.mvk, sig, message, policy, list(missing), rng)
        items.append(BatchItem(message=message, attrs=missing, signature=aps))
    return rng, scheme, keys, items, missing


def test_valid_batch_accepts(env):
    rng, scheme, keys, items, missing = env
    assert batch_verify(scheme, keys.mvk, items, rng)


def test_empty_batch_accepts(env):
    rng, scheme, keys, items, missing = env
    assert batch_verify(scheme, keys.mvk, [], rng)


def test_single_tampered_message_rejects(env):
    rng, scheme, keys, items, missing = env
    bad = list(items)
    bad[3] = BatchItem(message=b"FORGED", attrs=missing, signature=items[3].signature)
    assert not batch_verify(scheme, keys.mvk, bad, rng)
    assert find_invalid(scheme, keys.mvk, bad) == [3]


def test_single_tampered_component_rejects(env):
    rng, scheme, keys, items, missing = env
    sig = items[0].signature
    forged = AbsSignature(
        tau=sig.tau, y=sig.y, w=sig.w * scheme.group.g1, s=sig.s, p=sig.p
    )
    bad = [BatchItem(message=items[0].message, attrs=missing, signature=forged)] + list(items[1:])
    assert not batch_verify(scheme, keys.mvk, bad, rng)
    assert find_invalid(scheme, keys.mvk, bad) == [0]


def test_wrong_predicate_rejects(env):
    rng, scheme, keys, items, missing = env
    bad = [BatchItem(message=items[0].message, attrs=("R1", "R3"), signature=items[0].signature)]
    assert not batch_verify(scheme, keys.mvk, bad, rng)


def test_shape_mismatch_rejects(env):
    rng, scheme, keys, items, missing = env
    bad = [BatchItem(message=items[0].message, attrs=("R2",), signature=items[0].signature)]
    assert not batch_verify(scheme, keys.mvk, bad, rng)


def test_identity_y_rejects(env):
    rng, scheme, keys, items, missing = env
    sig = items[0].signature
    forged = AbsSignature(
        tau=sig.tau,
        y=scheme.group.identity("G1"),
        w=scheme.group.identity("G1"),
        s=sig.s,
        p=sig.p,
    )
    assert not batch_verify(
        scheme, keys.mvk,
        [BatchItem(message=items[0].message, attrs=missing, signature=forged)],
        rng,
    )


def test_same_predicate_batch(env):
    """Many APS signatures under one super policy, as a VO carries them:
    the batch accepts them aligned and rejects them misaligned."""
    rng, scheme, keys, items, missing = env
    messages = [item.message for item in items]
    sigs = [item.signature for item in items]
    aligned = [BatchItem(message=m, attrs=missing, signature=s) for m, s in zip(messages, sigs)]
    assert batch_verify(scheme, keys.mvk, aligned, rng)
    shifted = [
        BatchItem(message=m, attrs=missing, signature=s)
        for m, s in zip(messages, sigs[1:] + sigs[:1])
    ]
    assert not batch_verify(scheme, keys.mvk, shifted, rng)


def test_verify_or_find_invalid_localizes_failures(env):
    rng, scheme, keys, items, missing = env
    assert verify_or_find_invalid(scheme, keys.mvk, items, rng) == []
    assert verify_or_find_invalid(scheme, keys.mvk, [], rng) == []
    bad = list(items)
    bad[1] = BatchItem(message=b"FORGED-1", attrs=missing, signature=items[1].signature)
    bad[4] = BatchItem(message=b"FORGED-4", attrs=missing, signature=items[4].signature)
    assert verify_or_find_invalid(scheme, keys.mvk, bad, rng) == [1, 4]


def test_verify_or_find_invalid_fails_closed(env, monkeypatch):
    """A failed batch never reads as valid, even if re-checks all pass."""
    import repro.abs.batch as batch_mod

    rng, scheme, keys, items, missing = env
    monkeypatch.setattr(batch_mod, "batch_verify", lambda *a, **k: False)
    monkeypatch.setattr(batch_mod, "find_invalid", lambda *a, **k: [])
    assert verify_or_find_invalid(scheme, keys.mvk, items, rng) == [0]


def test_merged_agrees_with_unmerged_oracle(env):
    """The pairing-merged batch and the one-pairing-per-term reference
    accept/reject identically (same randomized equation)."""
    rng, scheme, keys, items, missing = env
    assert batch_verify(scheme, keys.mvk, items, random.Random(77))
    assert batch_verify_unmerged(scheme, keys.mvk, items, random.Random(77))
    bad = list(items)
    bad[2] = BatchItem(message=b"FORGED", attrs=missing, signature=items[2].signature)
    assert not batch_verify(scheme, keys.mvk, bad, random.Random(77))
    assert not batch_verify_unmerged(scheme, keys.mvk, bad, random.Random(77))


def test_merged_agrees_with_unmerged_on_real_pairing(rng):
    scheme = AbsScheme(bn254())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A", "B"], rng)
    policy = parse_policy("A and B")
    items = []
    for i in range(2):
        message = b"m%d" % i
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        aps, _ = relax(scheme, keys.mvk, sig, message, policy, ["A"], rng)
        items.append(BatchItem(message=message, attrs=("A",), signature=aps))
    assert batch_verify(scheme, keys.mvk, items, random.Random(5))
    assert batch_verify_unmerged(scheme, keys.mvk, items, random.Random(5))
    bad = [items[0], BatchItem(message=b"x", attrs=("A",), signature=items[1].signature)]
    assert not batch_verify(scheme, keys.mvk, bad, random.Random(5))
    assert not batch_verify_unmerged(scheme, keys.mvk, bad, random.Random(5))


def test_batch_on_real_pairing(rng):
    scheme = AbsScheme(bn254())
    keys = scheme.setup(rng)
    sk = scheme.keygen(keys, ["A", "B"], rng)
    policy = parse_policy("A and B")
    items = []
    for i in range(2):
        message = b"m%d" % i
        sig = scheme.sign(keys.mvk, sk, message, policy, rng)
        aps, _ = relax(scheme, keys.mvk, sig, message, policy, ["A"], rng)
        items.append(BatchItem(message=message, attrs=("A",), signature=aps))
    assert batch_verify(scheme, keys.mvk, items, rng)
    items[1] = BatchItem(message=b"x", attrs=("A",), signature=items[1].signature)
    assert not batch_verify(scheme, keys.mvk, items, rng)
