"""Batch verification of ABS signatures over OR predicates.

A range-query VO contains many APS signatures, all under the *same*
super policy ``OR(missing roles)`` — the dominant user-side cost on a
real pairing backend.  Batch verification combines all their
verification equations into one product-of-pairings check using the
small-exponents technique: each signature's equations are raised to an
independent random exponent ``rho_k`` before multiplying, so a single
invalid signature unbalances the combined product except with
probability ``~ 2^-lambda``.

Only OR predicates (the APS shape: span program = an all-ones column)
are supported; that is exactly what VO verification needs.  The combined
check costs one shared final exponentiation for the entire batch instead
of one per pairing — plus each signature's ``Y != 1`` and shape checks,
which stay individual.

``batch_verify`` is probabilistic-complete: ``True`` means all
signatures are valid (up to the small-exponents soundness error);
``False`` means at least one is invalid (callers can fall back to
per-signature verification to locate it — see ``find_invalid``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.abs.keys import AbsVerificationKey
from repro.abs.scheme import AbsScheme, AbsSignature
from repro.policy.boolexpr import BoolExpr, or_of_attrs

#: Bit length of the random batching exponents (soundness ~ 2^-64).
RHO_BITS = 64


@dataclass(frozen=True)
class BatchItem:
    """One signature to batch-verify: message + OR-predicate attributes."""

    message: bytes
    attrs: tuple[str, ...]
    signature: AbsSignature


def _check_or_shape(item: BatchItem) -> bool:
    sig = item.signature
    return len(sig.p) == 1 and len(sig.s) == len(item.attrs) and not sig.y.is_identity


def batch_verify(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
    rng: Optional[random.Random] = None,
) -> bool:
    """Verify all ``items`` with one combined pairing product.

    Pairings sharing a *fixed* G2 argument (``A0``, ``h0``, ``h``, and
    each attribute base) are merged by bilinearity:
    ``prod_k e(X_k^{rho_k}, Q) = e(prod_k X_k^{rho_k}, Q)``, and the G1
    aggregate is one Pippenger/Straus multi-exponentiation over the
    64-bit batching exponents.  The Miller-loop count drops from
    ``n * (l + 4)`` to ``3 + l + n`` (``n`` items, ``l`` super-policy
    attributes) — only the ``e(C g^hash, P_1)`` pairings, whose G2 side
    varies per item, remain per-signature.  The verified equation is
    bit-for-bit the one :func:`batch_verify_unmerged` checks.
    """
    if not items:
        return True
    grp = scheme.group
    rng = rng or random
    w_parts: list = []
    y_h0_parts: list = []
    y_h_parts: list = []
    rhos: list[int] = []
    rho2s: list[int] = []
    by_attr: dict[str, tuple[list, list[int]]] = {}
    tail_pairs = []
    for item in items:
        if not _check_or_shape(item):
            return False
        sig = item.signature
        rho = rng.getrandbits(RHO_BITS) | 1  # nonzero
        rho2 = rng.getrandbits(RHO_BITS) | 1
        # Key-binding equation: e(W, A0) * e(Y^-1, h0) = 1.
        w_parts.append(sig.w)
        y_h0_parts.append(sig.y)
        rhos.append(rho)
        # Span equation (single all-ones column):
        #   prod_i e(S_i, A*B^u_i) * e((C g^hash)^-1, P_1) * e(Y^-1, h) = 1
        y_h_parts.append(sig.y)
        rho2s.append(rho2)
        cg = scheme._message_base(mvk, sig.tau, item.message)
        for s_i, attr in zip(sig.s, item.attrs):
            bucket = by_attr.setdefault(attr, ([], []))
            bucket[0].append(s_i)
            bucket[1].append(rho2)
        tail_pairs.append((~(cg**rho2), sig.p[0]))
    pairs = [
        (grp.multi_pow(w_parts, rhos), mvk.a0_pub),
        (~grp.multi_pow(y_h0_parts, rhos), mvk.h0),
        (~grp.multi_pow(y_h_parts, rho2s), mvk.h),
    ]
    for attr, (s_parts, attr_rhos) in by_attr.items():
        pairs.append((grp.multi_pow(s_parts, attr_rhos), mvk.attribute_base(attr)))
    pairs.extend(tail_pairs)
    return grp.multi_pair(pairs).is_identity


def batch_verify_unmerged(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
    rng: Optional[random.Random] = None,
) -> bool:
    """Reference small-exponents batch: one pairing per product term.

    Checks the same randomized equation as :func:`batch_verify` without
    merging shared-base pairings — kept as the cross-check oracle and
    the "old path" baseline for ``benchmarks/bench_crypto_ops.py``.
    """
    if not items:
        return True
    grp = scheme.group
    rng = rng or random
    pairs = []
    for item in items:
        if not _check_or_shape(item):
            return False
        sig = item.signature
        rho = rng.getrandbits(RHO_BITS) | 1  # nonzero
        pairs.append((sig.w**rho, mvk.a0_pub))
        pairs.append(((~sig.y) ** rho, mvk.h0))
        rho2 = rng.getrandbits(RHO_BITS) | 1
        cg = scheme._message_base(mvk, sig.tau, item.message)
        for s_i, attr in zip(sig.s, item.attrs):
            pairs.append((s_i**rho2, mvk.attribute_base(attr)))
        pairs.append(((~cg) ** rho2, sig.p[0]))
        pairs.append(((~sig.y) ** rho2, mvk.h))
    return grp.multi_pair(pairs).is_identity


def find_invalid(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
) -> list[int]:
    """Fallback: indexes of invalid signatures via individual verification."""
    bad = []
    for i, item in enumerate(items):
        policy: BoolExpr = or_of_attrs(item.attrs)
        if not scheme.verify(mvk, item.message, policy, item.signature):
            bad.append(i)
    return bad


def verify_or_find_invalid(
    scheme: AbsScheme,
    mvk: AbsVerificationKey,
    items: Sequence[BatchItem],
    rng: Optional[random.Random] = None,
) -> list[int]:
    """The settle primitive: fast merged batch, precise failure attribution.

    Returns ``[]`` when the whole batch verifies (one merged pairing
    product); otherwise falls back to per-signature verification and
    returns the indexes of every invalid item.  A batch failure always
    yields at least one index: should the individual re-checks somehow
    all pass (the small-exponents false-negative, probability ~2^-64),
    the first item is blamed rather than letting a failed batch read as
    valid — the failure stays fail-closed.
    """
    if not items or batch_verify(scheme, mvk, items, rng):
        return []
    return find_invalid(scheme, mvk, items) or [0]
