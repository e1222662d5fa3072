"""User-side result verification (paper Algorithms 1, 3, 4 — bottom halves).

Soundness: every VO entry's signature verifies — APP signatures under the
record's disclosed policy (which the user's roles must satisfy), APS
signatures under the super policy the verifier rebuilds from its *own*
role set.  Completeness: entry regions tile the query range exactly (one
and only one proof per unit of indexing space).

Every query kind runs one pipeline: its own structural checks (exact
tiling for equality/range, key pairing plus driver-side tiling for
joins), then :func:`collect_obligations` — APP entries verified one at a
time, because record policies are general span programs — and finally
:func:`settle`, which checks every APS entry of the answer in one
small-exponent pairing product against the one super policy.

Raises :class:`SoundnessError` / :class:`CompletenessError`; returns the
verified accessible records.

The bottom half of this module is the **merged shard verifier**
(:func:`verify_sharded`): given per-shard answers that each passed the
single-SP checks above, it verifies the *composition* — every shard the
signed roster says must contribute did, at the pinned epoch, and the
contributed ranges tile the query.  This is what makes a scatter-gather
answer exactly as trustworthy as a single-SP answer: a coordinator that
drops, duplicates, re-routes, or rolls back a shard is caught
cryptographically, not by trust.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.abs.batch import BatchItem, verify_or_find_invalid
from repro.core.app_signature import AppAuthenticator
from repro.core.freshness import (
    FreshnessToken,
    ShardRoster,
    check_shard_token,
)
from repro.core.records import Record
from repro.core.vo import (
    AccessibleRecordEntry,
    InaccessibleNodeEntry,
    InaccessibleRecordEntry,
    VerificationObject,
    VOEntry,
)
from repro.crypto.group import lru_get, lru_put
from repro.errors import CompletenessError, SoundnessError, VerificationError
from repro.index.boxes import Box, boxes_cover_clipped
from repro.obs import metrics as _metrics

_REG = _metrics.registry()
_M_APS = _REG.counter(
    "repro_verify_aps_total",
    "APS signature checks settled by outcome: 'memo' (verified before, "
    "skipped), 'batched' (passed the merged pairing product), "
    "'fallback' (in a batch that failed, re-checked one by one).",
    labelnames=("outcome",),
)

#: Verified ``(message, attrs, signature bytes)`` triples each
#: authenticator remembers (LRU).  A repeat of a verified APS skips the
#: pairing product: the batch draws fresh exponents, so it never hits
#: the pairing cache the way per-entry checks did.
APS_MEMO_MAX = 4096

#: Batching exponents must be unpredictable to the SP.
_BATCH_RNG = random.SystemRandom()


def _verify_accessible(
    entry: AccessibleRecordEntry, authenticator: AppAuthenticator, query: Box, user_roles
) -> Record:
    """Check one result record and its APP signature under its own policy."""
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


def collect_obligations(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
) -> tuple[list[tuple[VOEntry, Record]], list[BatchItem], list[Box]]:
    """Verify every APP entry now; turn every APS entry into a batch item.

    ``user_roles`` must already be validated.  Returns ``(accessible,
    items, regions)``: the verified ``(entry, record)`` pairs, and one
    :class:`~repro.abs.batch.BatchItem` per inaccessible entry under the
    super policy ``OR(missing_roles)`` (default ``A \\ A``), aligned
    with the regions :func:`settle` names on failure.
    """
    if missing_roles is None:
        missing_roles = authenticator.universe.missing_roles(user_roles)
    attrs = tuple(missing_roles)
    accessible: list[tuple[VOEntry, Record]] = []
    items: list[BatchItem] = []
    regions: list[Box] = []
    for entry in vo:
        if isinstance(entry, AccessibleRecordEntry):
            accessible.append(
                (entry, _verify_accessible(entry, authenticator, query, user_roles))
            )
            continue
        if isinstance(entry, InaccessibleRecordEntry):
            message = Record.message_from_hash(entry.key, entry.value_hash)
        elif isinstance(entry, InaccessibleNodeEntry):
            message = entry.box.to_bytes()
        else:
            raise SoundnessError(f"unknown VO entry type {type(entry).__name__}")
        items.append(BatchItem(message=message, attrs=attrs, signature=entry.aps))
        regions.append(entry.region)
    return accessible, items, regions


def settle(
    authenticator: AppAuthenticator,
    items: Sequence[BatchItem],
    regions: Sequence,
) -> None:
    """Check APS obligations in one pairing product; fail closed.

    In order: items already in the authenticator's memo are skipped; the
    G2 components of the rest must lie in G2 (the small-exponent batch
    is only sound over prime-order inputs); the rest are checked by one
    :func:`~repro.abs.batch.verify_or_find_invalid` with exponents drawn
    from the operating system.  Bad items raise :class:`SoundnessError`
    naming ``regions[i]`` of every one, first bad item first; otherwise
    every checked item joins the memo.  The memo changes no verdict: ABS
    verification is a deterministic predicate of (mvk, message, attrs,
    signature), and the memo belongs to one mvk.
    """
    memo = authenticator.aps_memo
    keys = [(item.message, item.attrs, item.signature.to_bytes()) for item in items]
    pending = [i for i, key in enumerate(keys) if lru_get(memo, key) is None]
    if len(pending) < len(items):
        _M_APS.inc(len(items) - len(pending), outcome="memo")
    if not pending:
        return
    group = authenticator.group
    outside = [
        i for i in pending
        if not all(group.in_subgroup(p) for p in items[i].signature.p)
    ]
    if outside:
        raise SoundnessError(
            f"APS signature for {_name_all(regions, outside)} has a "
            f"component outside G2"
        )
    bad = verify_or_find_invalid(
        authenticator.scheme, authenticator.mvk, [items[i] for i in pending],
        _BATCH_RNG,
    )
    if bad:
        _M_APS.inc(len(pending), outcome="fallback")
        raise SoundnessError(
            f"APS signature invalid for "
            f"{_name_all(regions, [pending[i] for i in bad])}"
        )
    _M_APS.inc(len(pending), outcome="batched")
    for i in pending:
        lru_put(memo, keys[i], True, APS_MEMO_MAX)


def _name_all(regions: Sequence, indexes: Sequence[int]) -> str:
    return "; ".join(str(regions[i]) for i in indexes)


def prepare_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
) -> tuple[list[Record], list[BatchItem], list[Box]]:
    """Everything :func:`verify_vo` checks before :func:`settle`.

    Validates roles, checks the exact tiling and the APP entries, and
    returns ``(records, items, regions)``.  The verification window
    (:mod:`repro.net.window`) defers the settle across responses.
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    if not boxes_cover_clipped([entry.region for entry in vo], query):
        raise CompletenessError("VO entries do not tile the query range exactly")
    accessible, items, regions = collect_obligations(
        vo, authenticator, query, user_roles, missing_roles
    )
    return [record for _, record in accessible], items, regions


def verify_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
    collect_ops: Optional[dict] = None,
) -> list[Record]:
    """Verify an equality/range VO; returns the accessible records.

    ``query`` must already be clipped to the indexed domain.
    ``missing_roles`` overrides the default super-policy attribute list
    ``A \\ A`` (used by the hierarchical-role optimization).
    ``collect_ops``, when given, is filled with the group-operation
    counts (mults, pairings, cache hits, ...) this verification cost.
    """
    before = authenticator.group.stats.snapshot() if collect_ops is not None else None
    records, items, regions = prepare_vo(
        vo, authenticator, query, user_roles, missing_roles
    )
    settle(authenticator, items, regions)
    if collect_ops is not None:
        collect_ops.update(authenticator.group.stats.delta(before))
    return records


def verify_join(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    table_names: Sequence[str],
    missing_roles: Optional[Sequence[str]] = None,
) -> tuple[list, dict]:
    """Verify a k-way equi-join VO (``k = len(table_names) >= 2``).

    The first table drives.  Soundness: every signature verifies, and
    each driver result has exactly one result per joined table on the
    same key.  Completeness: driver results plus every inaccessible
    region (from any table) tile the query range.  Returns the sorted
    join keys and the verified records keyed by ``(table, key)``.
    """
    user_roles = authenticator.universe.validate_user_roles(user_roles)
    driver = table_names[0]
    keys: dict[str, set] = {name: set() for name in table_names}
    coverage: list[Box] = []
    for entry in vo:
        if isinstance(entry, AccessibleRecordEntry):
            table_keys = keys.get(entry.table)
            if table_keys is None:
                raise SoundnessError(f"unexpected table tag {entry.table!r}")
            if entry.key in table_keys:
                raise SoundnessError(
                    f"duplicate result for key {entry.key} in {entry.table}"
                )
            table_keys.add(entry.key)
            if entry.table == driver:
                coverage.append(entry.region)
        else:
            coverage.append(entry.region)
    for name in table_names[1:]:
        if keys[name] != keys[driver]:
            raise SoundnessError(
                f"join results of table {name!r} do not pair up with "
                f"{driver!r} on the join key"
            )
    if not boxes_cover_clipped(coverage, query):
        raise CompletenessError("join VO does not tile the query range exactly")
    accessible, items, regions = collect_obligations(
        vo, authenticator, query, user_roles, missing_roles
    )
    settle(authenticator, items, regions)
    records = {(entry.table, entry.key): record for entry, record in accessible}
    return sorted(keys[driver]), records


@dataclass(frozen=True)
class JoinPair:
    """A verified join result: matching accessible records from R and S."""

    left: Record
    right: Record


def verify_join_vo(
    vo: VerificationObject,
    authenticator: AppAuthenticator,
    query: Box,
    user_roles,
    missing_roles: Optional[Sequence[str]] = None,
    left_table: str = "R",
    right_table: str = "S",
    collect_ops: Optional[dict] = None,
) -> list[JoinPair]:
    """Verify a two-table join VO (the ``k = 2`` case of :func:`verify_join`).

    ``collect_ops``, when given, is filled with the group-operation
    counts this verification cost (parity with :func:`verify_vo`).
    """
    before = authenticator.group.stats.snapshot() if collect_ops is not None else None
    join_keys, records = verify_join(
        vo, authenticator, query, user_roles, (left_table, right_table), missing_roles
    )
    pairs = [
        JoinPair(left=records[(left_table, key)], right=records[(right_table, key)])
        for key in join_keys
    ]
    if collect_ops is not None:
        collect_ops.update(authenticator.group.stats.delta(before))
    return pairs


# ---------------------------------------------------------------------------
# Merged shard verification (scatter-gather answers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardAnswer:
    """One shard's contribution to a scatter-gather query.

    ``records`` must already have passed the per-VO checks
    (:func:`verify_vo` against ``box``, the shard's clipped query box) —
    the merged verifier re-checks the *composition*, not each proof.
    ``token`` is the shard's attached freshness token, re-checked here
    against the roster even when the transport layer checked it already
    (the merged verifier is the trust boundary an untrusted coordinator
    hands answers across, so it assumes nothing about who gathered them).
    """

    shard_id: str
    box: Box
    token: Optional[FreshnessToken]
    records: tuple = ()


@dataclass(frozen=True)
class PartialResult:
    """A degraded-mode read: verified for what it covers, explicit about
    what it does not.

    Returned only when the caller opted in (``allow_partial=True``) and
    one or more shards were unavailable.  Every record in ``records``
    went through full per-shard verification and the covering shards'
    roster checks; ``missing_shards`` / ``missing_boxes`` name exactly
    the partitions the answer says nothing about.  A PartialResult is
    deliberately a distinct type — code written for complete answers
    cannot mistake one for a full result.
    """

    records: tuple
    missing_shards: tuple[str, ...]
    missing_boxes: tuple[Box, ...] = ()
    covered_boxes: tuple[Box, ...] = field(default=(), repr=False)

    @property
    def complete(self) -> bool:
        return not self.missing_shards


def verify_sharded(
    roster: ShardRoster,
    query: Box,
    answers: Sequence[ShardAnswer],
    group,
    universe,
    mvk,
    allow_partial: bool = False,
    key=None,
):
    """Merge per-shard answers into one verifiable result.

    Checks, in order:

    1. every answer names a roster shard, exactly once (no duplicated or
       re-routed contributions);
    2. each answer's freshness token binds that shard at the roster's
       pinned epoch (:func:`~repro.core.freshness.check_shard_token`) —
       a stale, future, or cross-shard token is a
       :class:`VerificationError`;
    3. each answer's box is exactly ``query ∩ shard bounds`` — a shard
       (or coordinator) that quietly narrowed its sub-query is a
       :class:`CompletenessError`;
    4. every shard the roster obliges to answer did: a missing shard is
       a :class:`CompletenessError` (fail closed), unless
       ``allow_partial`` — then a :class:`PartialResult` names the
       uncovered partitions and carries only fully-verified records;
    5. under hash partitioning, record keys may not collide across
       shards (:class:`SoundnessError` if they do — two shards both
       claiming a key proves misassignment).

    ``key`` routes equality queries: under hash partitioning only the
    key's owner shard is obliged to answer (range partitioning derives
    the same from box intersection).

    Returns the merged, key-ordered record list when complete, else a
    :class:`PartialResult`.
    """
    if roster.kind == "hash" and key is not None:
        expected = (roster.shard_for_key(key),)
    else:
        expected = roster.shards_for(query)
    if not expected:
        raise CompletenessError(
            f"roster for {roster.table!r} has no shard covering {query}"
        )
    expected_ids = [descriptor.shard_id for descriptor in expected]

    by_shard: dict[str, ShardAnswer] = {}
    for answer in answers:
        descriptor = roster.shard(answer.shard_id)  # raises on unknown shard
        if answer.shard_id in by_shard:
            raise VerificationError(
                f"duplicate contribution from shard {answer.shard_id!r}"
            )
        if answer.shard_id not in expected_ids:
            raise VerificationError(
                f"shard {answer.shard_id!r} contributed but its partition "
                f"{descriptor.box} is outside the query {query}"
            )
        by_shard[answer.shard_id] = answer

    covered_boxes: list[Box] = []
    missing: list[str] = []
    missing_boxes: list[Box] = []
    merged: dict = {}
    for descriptor in expected:
        answer = by_shard.get(descriptor.shard_id)
        expected_box = descriptor.box.intersection(query)
        if answer is None:
            missing.append(descriptor.shard_id)
            if expected_box is not None:
                missing_boxes.append(expected_box)
            continue
        check_shard_token(
            group, universe, mvk, roster, descriptor.shard_id, answer.token
        )
        if answer.box != expected_box:
            raise CompletenessError(
                f"shard {descriptor.shard_id!r} answered for {answer.box}, "
                f"roster obliges {expected_box}"
            )
        covered_boxes.append(answer.box)
        for record in answer.records:
            record_key = tuple(record.key)
            previous = merged.get(record_key)
            if previous is not None:
                if roster.kind == "range":
                    raise SoundnessError(
                        f"shards {descriptor.shard_id!r} and another both "
                        f"returned key {record_key} across disjoint partitions"
                    )
                if previous.value != record.value:
                    raise SoundnessError(
                        f"conflicting shard results for key {record_key}"
                    )
                continue
            merged[record_key] = record

    if missing and not allow_partial:
        raise CompletenessError(
            f"missing shard contribution(s) {missing} for partitions "
            f"{[str(b) for b in missing_boxes]}: refusing to merge an "
            f"incomplete answer (fail-closed; pass allow_partial for a "
            f"degraded read)"
        )
    if roster.kind == "range" and not missing:
        # Belt and braces: the per-shard boxes, together, must tile the
        # query exactly.  The roster's construction-time invariants make
        # this unreachable for a well-formed roster; the verifier checks
        # anyway because it is the trust boundary.
        if not boxes_cover_clipped(covered_boxes, query):
            raise CompletenessError(
                "shard contributions do not tile the query range exactly"
            )
    records = tuple(merged[record_key] for record_key in sorted(merged))
    if missing:
        return PartialResult(
            records=records,
            missing_shards=tuple(missing),
            missing_boxes=tuple(missing_boxes),
            covered_boxes=tuple(covered_boxes),
        )
    return list(records)
