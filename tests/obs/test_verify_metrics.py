"""The verifier's one counter family: every settled APS lands in one outcome."""

import dataclasses
import random

import pytest

from repro.core.range_query import range_vo
from repro.core.verifier import verify_vo
from repro.core.vo import InaccessibleRecordEntry, VerificationObject
from repro.errors import SoundnessError
from repro.index.boxes import Box
from repro.obs.metrics import registry

from tests.core.verifier_oracle import world_for


def test_aps_outcomes_memo_batched_fallback():
    world = world_for("simulated")
    roles = frozenset({"RoleC"})
    query = Box((0,), (world.size - 1,))
    vo = range_vo(world.trees["R"], world.sp_auth, query, roles, random.Random(8))
    n = sum(1 for e in vo if not hasattr(e, "signature"))
    metric = registry().get("repro_verify_aps_total")
    user = world.user()

    verify_vo(vo, user, query, roles)
    assert metric.value(outcome="batched") == n
    assert metric.value(outcome="memo") == 0
    verify_vo(vo, user, query, roles)
    assert metric.value(outcome="memo") == n

    i = next(i for i, e in enumerate(vo.entries) if isinstance(e, InaccessibleRecordEntry))
    entries = list(vo.entries)
    entries[i] = dataclasses.replace(entries[i], value_hash=bytes(32))
    with pytest.raises(SoundnessError):
        verify_vo(VerificationObject(entries=entries), user, query, roles)
    assert metric.value(outcome="fallback") == 1  # only the unmemoised item
    assert metric.value(outcome="memo") == 2 * n - 1
    assert metric.value(outcome="batched") == n
