"""Tests for the BN254 G1/G2 point groups."""

import random

import pytest

from repro.crypto.curve import (
    G1_GENERATOR,
    G2_GENERATOR,
    PointG1,
    PointG2,
    TWIST_B,
)
from repro.crypto.field import CURVE_ORDER, FIELD_MODULUS
from repro.errors import CryptoError

rng = random.Random(101)


def test_generators_on_curve_and_in_subgroup():
    assert G1_GENERATOR.is_on_curve()
    assert G1_GENERATOR.in_subgroup()
    assert G2_GENERATOR.is_on_curve()
    assert G2_GENERATOR.in_subgroup()


def test_g1_group_order():
    assert (G1_GENERATOR * CURVE_ORDER).is_identity
    assert not (G1_GENERATOR * (CURVE_ORDER - 1)).is_identity


def test_identity_laws():
    inf = PointG1.identity()
    p = G1_GENERATOR * 7
    assert p + inf == p
    assert inf + p == p
    assert (p - p).is_identity
    assert (inf * 5).is_identity


def test_addition_matches_scalar_mult():
    p = G1_GENERATOR
    acc = PointG1.identity()
    for k in range(1, 20):
        acc = acc + p
        assert acc == p * k


def test_doubling_consistency():
    p = G1_GENERATOR * 12345
    assert p.double() == p + p == p * 2


def test_negation():
    p = G1_GENERATOR * 99
    assert (p + (-p)).is_identity
    assert -(-p) == p


def test_scalar_mult_distributes():
    a, b = rng.randrange(CURVE_ORDER), rng.randrange(CURVE_ORDER)
    p = G1_GENERATOR
    assert p * a + p * b == p * ((a + b) % CURVE_ORDER)


def test_g2_arithmetic():
    q = G2_GENERATOR
    a, b = 1234, 5678
    assert q * a + q * b == q * (a + b)
    assert (q * a - q * a).is_identity
    assert (q * CURVE_ORDER).is_identity


def test_g2_cofactor_clears_into_subgroup():
    # Pick a twist point NOT in the r-torsion: find one by hashing x until
    # on-curve, then cofactor-clear it.
    from repro.crypto import tower

    x = (5, 7)
    while True:
        rhs = tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B)
        y = tower.fp2_sqrt(rhs)
        if y is not None:
            break
        x = (x[0] + 1, x[1])
    pt = PointG2((x, y))
    assert pt.is_on_curve()
    cleared = pt.clear_cofactor()
    assert cleared.is_on_curve()
    assert cleared.in_subgroup()


def test_g1_serialization_roundtrip():
    for k in (1, 2, 7, 123456, CURVE_ORDER - 1):
        p = G1_GENERATOR * k
        data = p.to_bytes()
        assert len(data) == 32
        assert PointG1.from_bytes(data) == p


def test_g1_identity_serialization():
    data = PointG1.identity().to_bytes()
    assert PointG1.from_bytes(data).is_identity


def test_g2_serialization_roundtrip():
    for k in (1, 3, 999, 424242):
        q = G2_GENERATOR * k
        data = q.to_bytes()
        assert len(data) == 64
        assert PointG2.from_bytes(data) == q


def test_g2_identity_serialization():
    data = PointG2.identity().to_bytes()
    assert PointG2.from_bytes(data).is_identity


def test_g1_deserialize_rejects_garbage():
    with pytest.raises(CryptoError):
        PointG1.from_bytes(b"\x00" * 31)
    # x = p is out of range.
    with pytest.raises(CryptoError):
        PointG1.from_bytes(FIELD_MODULUS.to_bytes(32, "big"))


def test_point_equality_and_hash():
    p1 = G1_GENERATOR * 5
    p2 = G1_GENERATOR * 5
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p1 != G2_GENERATOR * 5  # different groups never equal


def test_serialization_recovers_y_sign():
    p = G1_GENERATOR * 31337
    neg = -p
    assert PointG1.from_bytes(p.to_bytes()) == p
    assert PointG1.from_bytes(neg.to_bytes()) == neg
    assert p.to_bytes() != neg.to_bytes()


def _twist_point(local: random.Random) -> PointG2:
    """A uniformly random point on the twist, almost surely outside G2."""
    from repro.crypto import tower

    while True:
        x = (local.randrange(FIELD_MODULUS), local.randrange(FIELD_MODULUS))
        y = tower.fp2_sqrt(tower.fp2_add(tower.fp2_mul(tower.fp2_sq(x), x), TWIST_B))
        if y is not None:
            return PointG2((x, y))


def _order_divides_r(point) -> bool:
    """Oracle: ``[r]Q == O`` with ``r`` unreduced (``*`` reduces mod r)."""
    from repro.crypto.curve import _jac_scalar_mul, _jac_to_affine

    ops = type(point)._ops
    return _jac_to_affine(_jac_scalar_mul(point.xy, CURVE_ORDER, ops), ops) is None


def test_g2_membership_agrees_with_unreduced_order_oracle():
    local = random.Random(20211130)
    outside = 0
    for _ in range(4):
        twist = _twist_point(local)
        inside = G2_GENERATOR * local.randrange(1, CURVE_ORDER)
        for point in (twist, twist.clear_cofactor(), inside):
            assert point.in_subgroup() == _order_divides_r(point)
        outside += not _order_divides_r(twist)
    assert outside >= 3


def test_off_subgroup_twist_point_rejected():
    from repro.crypto import bn254, simulated
    from repro.crypto.group import G2, GroupElement

    point = _twist_point(random.Random(7))
    assert point.is_on_curve()
    assert not _order_divides_r(point)
    # The reduced scalar multiplication cannot tell: [r mod r]Q is O.
    assert (point * CURVE_ORDER).is_identity
    assert not point.in_subgroup()
    group = bn254()
    assert not group.in_subgroup(GroupElement(group, G2, point))
    assert group.in_subgroup(group.g2)
    # Decoding checks the twist equation only; `settle` checks membership.
    assert group.deserialize(G2, point.to_bytes()).value == point
    sim = simulated()
    assert sim.in_subgroup(sim.g2 ** 5)


def test_g1_membership_is_on_curve():
    assert (G1_GENERATOR * 12345).in_subgroup()
    assert not PointG1((1, 3)).in_subgroup()
