"""Cross-backend protocol equivalence (DESIGN.md, Substitution 2).

The simulated group exists to make large benchmarks feasible; its claim
to validity is that protocol *behaviour* is identical to the real BN254
backend.  These tests run the same seeded protocol on both backends and
compare everything observable except raw group-element bytes: VO entry
types and order, region structure, serialized byte sizes, and accepted
result sets.
"""

import random

import pytest

from repro.core.app_signature import AppAuthenticator
from repro.core.range_query import clip_query, range_vo
from repro.core.records import Dataset, Record
from repro.core.system import DataOwner
from repro.core.verifier import verify_vo
from repro.crypto import bn254, simulated
from repro.index.boxes import Domain
from repro.policy.boolexpr import parse_policy
from repro.policy.roles import RoleUniverse


def _run_protocol(group, seed=500):
    rng = random.Random(seed)
    universe = RoleUniverse(["RoleA", "RoleB"])
    owner = DataOwner(group, universe, rng=rng)
    ds = Dataset(Domain.of((0, 7)))
    ds.add(Record((1,), b"one", parse_policy("RoleA")))
    ds.add(Record((4,), b"four", parse_policy("RoleB")))
    ds.add(Record((6,), b"six", parse_policy("RoleA and RoleB")))
    tree = owner.build_tree(ds)
    auth = AppAuthenticator(group, universe, owner.mvk)
    roles = frozenset({"RoleA"})
    query = clip_query(tree, (0,), (7,))
    vo = range_vo(tree, auth, query, roles, rng)
    records = verify_vo(vo, auth, query, roles)
    return tree, vo, records


@pytest.fixture(scope="module")
def both():
    return _run_protocol(simulated()), _run_protocol(bn254())


def test_same_tree_shape(both):
    (tree_s, _, _), (tree_r, _, _) = both
    assert tree_s.stats.num_nodes == tree_r.stats.num_nodes
    assert [n.box for n in tree_s.iter_nodes()] == [n.box for n in tree_r.iter_nodes()]
    assert [n.policy.to_string() for n in tree_s.iter_nodes()] == [
        n.policy.to_string() for n in tree_r.iter_nodes()
    ]


def test_same_index_size(both):
    (tree_s, _, _), (tree_r, _, _) = both
    assert tree_s.stats.signature_bytes == tree_r.stats.signature_bytes
    assert tree_s.stats.structure_bytes == tree_r.stats.structure_bytes


def test_same_vo_structure(both):
    (_, vo_s, _), (_, vo_r, _) = both
    assert len(vo_s) == len(vo_r)
    assert [type(e).__name__ for e in vo_s] == [type(e).__name__ for e in vo_r]
    assert [e.region for e in vo_s] == [e.region for e in vo_r]


def test_same_vo_bytes(both):
    (_, vo_s, _), (_, vo_r, _) = both
    assert vo_s.byte_size() == vo_r.byte_size()
    assert [e.byte_size() for e in vo_s] == [e.byte_size() for e in vo_r]


def test_same_results(both):
    (_, _, rec_s), (_, _, rec_r) = both
    assert sorted(r.value for r in rec_s) == sorted(r.value for r in rec_r) == [b"one"]


def _nonzero(delta):
    return {name: count for name, count in delta.items() if count}


def _multi_pair_deltas(group):
    a, b = group.g1 ** 3, group.g2 ** 5
    group.pair(a, b)
    deltas = []
    for pairs in (
        [(a, b), (a, b)],  # both pairs were just cached by pair()
        [(a, b), (a ** 2, group.g2), (group.identity("G1"), b)],
        [(group.identity("G1"), b)],
    ):
        before = group.stats.snapshot()
        group.multi_pair(pairs)
        deltas.append(_nonzero(group.stats.delta(before)))
    return deltas


def test_multi_pair_stats_delta_matches_between_backends():
    sim, real = _multi_pair_deltas(simulated()), _multi_pair_deltas(bn254())
    assert sim == real
    # A k-pair product is one Miller-loop pass and one final
    # exponentiation and never consults the pairing cache; a product of
    # identity pairs runs neither.
    assert sim[0] == {"pairings": 2, "miller_loops": 1, "final_exps": 1}
    assert sim[1] == {"pairings": 3, "miller_loops": 1, "final_exps": 1}
    assert sim[2] == {"pairings": 1}
