"""Workloads of the end-to-end benchmark: seeded inputs, the three-party
stack they run on, and the crypto-free ground truth every answer is
checked against.

Every workload drives the same public path.  Reads go
``ResilientClient`` → ``LoopbackTransport`` →
``ResilientSPServer(SPServer(ServiceProvider))`` with sealed responses;
writes go ``UpdatePublisher`` → ``ServerIngest`` (journal ``fsync`` on).
The workloads differ in the traffic mix and in how much of it the
program's caches can serve:

* ``hot-reads`` — 2 users (one sends twice as often) repeat equality
  and two-key range queries over a Zipf-skewed 3-key hot region (plus
  joins over it).  The hot set is
  far below the SP's APS cache (4096 per authenticator), its 16-entry
  authenticator pool and the 1024-entry pairing cache, and is warmed
  during set-up, so seal, open, wire and traversal carry the time.
* ``cold-scan`` — users cycle through all 31 role sets of a 5-role
  universe (more missing-role sets than the pool holds), sending ranges
  of every width from one key to the full domain and, one query in
  three, an equi-join.  SP relax and client pairing checks dominate.
* ``write-mix`` — the owner upserts and deletes records of the table 3
  readers query, rotating the epoch after every three writes; reads and
  joins then target the keys just changed, so re-signed paths miss the
  APS and pairing caches.

Every workload reports every end-to-end metric, so ``hot-reads`` and
``cold-scan`` also carry a light write stream.  It goes to an ``audit``
table that their readers never query, which keeps their read caches as
described above.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from dataclasses import dataclass, replace

from repro.core import DataOwner, Dataset, QueryUser, Record, ServiceProvider
from repro.core.messages import SPServer, decode_response, encode_response
from repro.core.persistence import restore_snapshot, snapshot_tree
from repro.errors import SoundnessError
from repro.index import Domain
from repro.net import LoopbackTransport, ResilientClient, ResilientSPServer
from repro.net.ingest import FreshnessGuard, ServerIngest, UpdatePublisher
from repro.policy import RoleUniverse, parse_policy

#: Policy menus as DNF: a tuple of AND-clauses over role names.
MENU3 = (
    (("r0",),), (("r1",),), (("r2",),), (("r0", "r1"),),
    (("r0",), ("r2",)), (("r1", "r2"),),
)
MENU5 = MENU3 + (
    (("r3",),), (("r4",),), (("r2", "r3"),), (("r1",), ("r4",)),
    (("r0", "r3"), ("r4",)),
)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload: sizes, users and the operation cycle.

    ``cycle`` lists op kinds; a run repeats whole cycles until its time
    is up.  ``Q`` is a verified read (equality or range), ``J`` a
    verified equi-join, ``W`` the next write of ``writes`` (``U`` an
    upsert, ``D`` a zero-knowledge delete) and ``T`` an epoch rotation.
    """

    name: str
    roles: tuple
    menu: tuple
    domain: int
    records: tuple  # (read table R, join partner S, write table)
    users: tuple  # role sets; () means every non-empty subset of roles
    #: User indexes in the order users take turns to query; () means
    #: round-robin over role-set sizes.  Uneven turns keep each median
    #: inside one user's cost class rather than between two.
    turns: tuple
    #: The same for joins; () means the order of ``turns``.
    join_turns: tuple
    write_table: str
    cycle: str
    writes: str


SPECS = {
    "hot-reads": Spec(
        name="hot-reads", roles=("r0", "r1", "r2"), menu=MENU3,
        domain=16, records=(10, 10, 4),
        users=(("r0",), ("r0", "r2")), turns=(0, 1, 1), join_turns=(),
        write_table="audit", cycle="QQQQQJWQQQQQJT", writes="UUD",
    ),
    "cold-scan": Spec(
        name="cold-scan", roles=("r0", "r1", "r2", "r3", "r4"), menu=MENU5,
        domain=8, records=(4, 4, 3), users=(), turns=(), join_turns=(),
        write_table="audit", cycle="QQJWQQJT", writes="UUD",
    ),
    "write-mix": Spec(
        name="write-mix", roles=("r0", "r1", "r2"), menu=MENU3,
        domain=16, records=(8, 8, 0),
        users=(("r0",), ("r1", "r2"), ("r0", "r1", "r2")), turns=(0, 1, 2),
        join_turns=(1,), write_table="R", cycle="WWWTQQJQQJ", writes="UUD",
    ),
}

#: Range widths cold-scan cycles through (1 key .. full domain).
SCAN_WIDTHS = (1, 2, 4, 8)
HOT_REGION = 3
ZIPF_S = 1.2


def render(clauses) -> str:
    return " or ".join(
        c[0] if len(c) == 1 else "(" + " and ".join(c) + ")" for c in clauses
    )


def satisfied(clauses, roles) -> bool:
    return any(set(c) <= roles for c in clauses)


def _value(rng, tag, key) -> bytes:
    return f"{tag}-{key}-{rng.getrandbits(32):08x}".encode()


def _dataset(spec, rows) -> Dataset:
    ds = Dataset(Domain.of((0, spec.domain - 1)))
    for key, (value, clauses) in rows.items():
        ds.add(Record(key, value, parse_policy(render(clauses))))
    return ds


class World:
    """One set-up of a workload: DO, SP, users, clients, shadow tables."""

    def __init__(self, spec: Spec, group, seed: str, state_dir: str):
        self.spec = spec
        self.group = group
        self.state_dir = state_dir
        # Two streams.  ``design`` fixes the shape of the data and of the
        # operation stream per workload: which keys hold records, which
        # policy slots guard them, which user sends which query.  The
        # seed draws everything else: role names (a permutation of the
        # universe over the policy slots), record values and every
        # random coin of the DO, SP and clients.  Runs on different
        # seeds thus read different data under different names but do
        # the same amount of work, which keeps the run-to-run spread of
        # the latency medians down to the host's own noise.
        self.design = design = random.Random(f"design:{spec.name}")
        self.rng = rng = random.Random(f"inputs:{seed}")
        names = list(spec.roles)
        rng.shuffle(names)
        self.rename = dict(zip(spec.roles, names))
        universe = RoleUniverse(list(spec.roles))
        owner = DataOwner(group, universe, rng=random.Random(f"owner:{seed}"))

        n_r, n_s, n_w = spec.records
        keys = {"R": sorted(design.sample(range(spec.domain), n_r)),
                "S": sorted(design.sample(range(spec.domain), n_s))}
        if spec.name == "hot-reads":
            # The hot region is fully populated so every hot key is a
            # record (some accessible, some not, per user), and half of
            # it joins.
            self.hot_lo = design.randrange(spec.domain - HOT_REGION + 1)
            hot = list(range(self.hot_lo, self.hot_lo + HOT_REGION))
            rest = [k for k in range(spec.domain) if k not in hot]
            keys = {"R": sorted(hot + design.sample(rest, n_r - HOT_REGION)),
                    "S": sorted(hot[::2] + design.sample(rest, n_s - len(hot[::2])))}
        if spec.write_table == "audit":
            keys["audit"] = sorted(design.sample(range(spec.domain), n_w))
        self.shadow = {
            table: {(k,): (_value(rng, table, k), self._policy()) for k in ks}
            for table, ks in keys.items()
        }

        trees = {name: owner.build_tree(_dataset(spec, rows))
                 for name, rows in self.shadow.items()}
        # The SP gets its own copy of each signed tree: the publisher's
        # updates mutate the owner's copy, and must reach the SP only
        # through the ingest path.
        sp_trees = {name: restore_snapshot(group, snapshot_tree(tree))
                    for name, tree in trees.items()}
        self.sp = ServiceProvider(
            group, universe, owner.mvk, owner.cpabe_public, sp_trees
        )
        self.publisher = UpdatePublisher(
            owner.signer, spec.write_table, trees[spec.write_table], epoch=1,
            rng=random.Random(f"publisher:{seed}"),
        )
        self.sp.set_freshness_token(
            spec.write_table, self.publisher.issue_current_token()
        )
        # journal_limit=0: the SP checkpoints at every epoch commit, so
        # each run exercises the checkpoint path a few times.
        self.ingest = ServerIngest(self.sp, state_dir, journal_limit=0)
        self.server = ResilientSPServer(
            SPServer(self.sp, rng=random.Random(f"sp:{seed}")), ingest=self.ingest
        )
        self.response_bytes = 0
        self.ingest_bytes = 0
        self.publisher.attach("sp", LoopbackTransport(self._ingest_handler))
        self.live = dict(self.shadow[spec.write_table])
        self.committed = dict(self.live)
        self.epoch = 1

        role_sets = spec.users or [
            s for n in range(1, len(spec.roles) + 1)
            for s in itertools.combinations(spec.roles, n)
        ]
        self.users = []
        for i, slots in enumerate(role_sets):
            roles = [self.rename[r] for r in slots]
            user = QueryUser(group, universe, owner.register_user(roles))
            guarded = (
                FreshnessGuard(user, "R", lambda: self.publisher.epoch, max_age=0)
                if spec.write_table == "R" else user
            )
            transport = LoopbackTransport(self._query_handler)
            self.users.append({
                "roles": frozenset(roles),
                "user": user,
                "reader": ResilientClient(
                    guarded, transport, rng=random.Random(f"client:{seed}:{i}")
                ),
                "joiner": ResilientClient(
                    user, transport, rng=random.Random(f"joiner:{seed}:{i}")
                ),
            })
        self._ops = self._schedule()

    # -- wire taps -----------------------------------------------------------
    def _query_handler(self, request: bytes) -> bytes:
        reply = self.server.handle_frame(request)
        self.response_bytes += len(reply)
        return reply

    def _ingest_handler(self, request: bytes) -> bytes:
        self.ingest_bytes += len(request)
        return self.server.handle_frame(request)

    def close(self) -> None:
        self.ingest.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    # -- the operation stream -----------------------------------------------
    def next_op(self) -> tuple:
        return next(self._ops)

    def _policy(self):
        clauses = self.design.choice(self.spec.menu)
        return tuple(tuple(self.rename[r] for r in c) for c in clauses)

    def _users(self, turns):
        """The order users send queries in."""
        if turns:
            return itertools.cycle(turns)
        # Round-robin over role-set sizes (shuffled within a size), so
        # every window of queries mixes users with few and many missing
        # roles.
        by_size: dict = {}
        for i, entry in enumerate(self.users):
            by_size.setdefault(len(entry["roles"]), []).append(i)
        rings = []
        for size in sorted(by_size):
            self.design.shuffle(by_size[size])
            rings.append(itertools.cycle(by_size[size]))
        return (next(ring) for ring in itertools.cycle(rings))

    def _schedule(self):
        spec, rng = self.spec, self.design
        users = {"Q": self._users(spec.turns),
                 "J": self._users(spec.join_turns or spec.turns)}
        widths = {"Q": itertools.cycle(SCAN_WIDTHS), "J": itertools.cycle(SCAN_WIDTHS)}
        writes = itertools.cycle(spec.writes)
        shapes = itertools.cycle((0, 1))
        zipf = [1.0 / (r + 1) ** ZIPF_S for r in range(HOT_REGION)]
        hot_rank = list(range(HOT_REGION))
        rng.shuffle(hot_rank)
        last_hot = self.hot_lo + HOT_REGION - 1 if spec.name == "hot-reads" else None
        changed: list = []
        for kind in itertools.cycle(spec.cycle):
            if kind == "W":
                yield self._write_op(next(writes), changed)
                continue
            if kind == "T":
                yield ("T",)
                continue
            user = next(users[kind])
            if spec.name == "hot-reads":
                k = self.hot_lo + hot_rank[rng.choices(range(HOT_REGION), zipf)[0]]
                if kind == "J":
                    yield ("J", user, self.hot_lo, last_hot)
                elif next(shapes) == 0 or k == last_hot:
                    yield ("Q", user, k, k)
                else:
                    yield ("Q", user, k, k + 1)
            elif spec.name == "cold-scan":
                w = next(widths[kind])
                lo = rng.randrange(spec.domain - w + 1)
                yield (kind, user, lo, lo + w - 1)
            else:
                k = changed[rng.randrange(len(changed))][0] if changed else 0
                hi = min(spec.domain - 1, k + (kind == "J" or next(shapes)))
                yield (kind, user, k, hi)

    def _write_op(self, kind, changed):
        design = self.design
        if kind == "D" and self.live:
            key = sorted(self.live)[design.randrange(len(self.live))]
            op = ("D", key)
        else:
            key = (design.randrange(self.spec.domain),)
            op = ("U", key, _value(self.rng, "W", key[0]), self._policy())
        changed.append(key)
        del changed[:-3]
        return op

    # -- execution + ground truth -------------------------------------------
    def run_op(self, op) -> bool:
        """Execute one op; True iff it succeeded and matched ground truth."""
        kind = op[0]
        if kind == "U":
            _, key, value, clauses = op
            self.publisher.upsert(Record(key, value, parse_policy(render(clauses))))
            self.live[key] = (value, clauses)
            return self.publisher.acked["sp"] == self.publisher.seq
        if kind == "D":
            self.publisher.delete(op[1])
            del self.live[op[1]]
            return self.publisher.acked["sp"] == self.publisher.seq
        if kind == "T":
            self.publisher.rotate()
            self.epoch += 1
            self.committed = dict(self.live)
            if self.spec.write_table == "R":
                self.shadow["R"] = self.committed
            return (self.publisher.acked["sp"] == self.publisher.seq
                    and self.ingest.states[self.spec.write_table].epoch == self.epoch)
        _, u, lo, hi = op
        entry = self.users[u]
        if kind == "Q":
            got = entry["reader"].query_range("R", (lo,), (hi,))
            ok = sorted((r.key, r.value) for r in got) == self.expected_read(
                entry["roles"], lo, hi)
            if self.spec.write_table == "R":
                ok = ok and entry["reader"].user.last_epoch == self.epoch
            return ok
        got = entry["joiner"].query_join("R", "S", (lo,), (hi,))
        return sorted((p.left.key, p.left.value, p.right.value) for p in got) == \
            self.expected_join(entry["roles"], lo, hi)

    def expected_read(self, roles, lo, hi) -> list:
        return sorted(
            (key, value) for key, (value, clauses) in self.shadow["R"].items()
            if lo <= key[0] <= hi and satisfied(clauses, roles)
        )

    def expected_join(self, roles, lo, hi) -> list:
        r, s = self.shadow["R"], self.shadow["S"]
        return sorted(
            (key, r[key][0], s[key][0]) for key in r
            if lo <= key[0] <= hi and key in s
            and satisfied(r[key][1], roles) and satisfied(s[key][1], roles)
        )

    def warm_ops(self) -> list:
        """Every distinct query the hot-reads stream can issue."""
        ops = []
        last = self.hot_lo + HOT_REGION - 1
        for u in range(len(self.users)):
            for k in range(self.hot_lo, last + 1):
                ops.append(("Q", u, k, k))
                if k < last:
                    ops.append(("Q", u, k, k + 1))
            ops.append(("J", u, self.hot_lo, last))
        return ops

    # -- soundness canary ----------------------------------------------------
    def canary(self) -> bool:
        """Feed one well-formed forged response to the user's verifier.

        Takes an honest full-domain answer with at least two proof
        entries, swaps the signatures of the first two, re-encodes it,
        and hands the decoded frame to ``QueryUser.verify`` — the entry
        point the client uses.  True iff the forgery is rejected as
        unsound.
        """
        for entry in sorted(self.users, key=lambda e: len(e["roles"])):
            response = self.sp.range_query(
                "R", (0,), (self.spec.domain - 1,), entry["roles"],
                rng=random.Random(0),
            )
            entries = response.vo.entries
            if len(entries) >= 2:
                break
        else:
            return False
        a, b = entries[0], entries[1]
        entries[0], entries[1] = _with_signature(a, b), _with_signature(b, a)
        forged = decode_response(self.group, encode_response(response))
        try:
            entry["user"].verify(forged)
        except SoundnessError:
            return True
        return False


def _signature(entry):
    return entry.signature if hasattr(entry, "signature") else entry.aps


def _with_signature(entry, donor):
    """``entry`` carrying ``donor``'s signature in place of its own."""
    field = "signature" if hasattr(entry, "signature") else "aps"
    return replace(entry, **{field: _signature(donor)})


def state_root(checkout: str) -> str:
    path = os.path.join(checkout, ".e2ebench")
    os.makedirs(path, exist_ok=True)
    return path
