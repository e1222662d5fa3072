"""End-to-end benchmark of the three-party query path on BN254.

Run from the repository root::

    python3 e2ebench/run.py --workload hot-reads --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 40 --trace 1

One process, one thread, closed loop: one request outstanding at a time.
A run sets its workload up ``SETUPS`` times (``setup_s`` is the median),
then cycles the workload's operations for ``--seconds`` on the last
set-up, checks every answer against crypto-free ground truth, feeds one
forged response to the verifier, and prints every metric by name and
unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, latencies in units of a reference kernel timed
between operations; ``--trace 1`` traces every write and half the
reads and reports the per-layer metrics.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("hot-reads", "cold-scan", "write-mix")
SETUPS = 3
READS, WRITES = ("Q", "J"), ("U", "D")


#: Odd 255-bit modulus: the reference kernel works on integers the size
#: of BN254 field elements, as the program's pairing code does.
REF_MODULUS = 2**254 + 0x2D
REF_STEPS = 4000


def reference_kernel() -> int:
    """A fixed piece of pure-Python big-integer arithmetic that uses no
    program code.  Its time tracks the speed the host gives this process
    at the moment; the timed phase runs it between operations."""
    a, b = 3, 5
    for _ in range(REF_STEPS):
        a, b = (a * b + 7) % REF_MODULUS, (a * a - b) % REF_MODULUS
    return a


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    ten samples beyond it, by nearest rank.  Below 20 samples no
    percentile above the median qualifies, and the median is returned."""
    ordered = sorted(values)
    n = len(ordered)
    pct = math.floor(100 * (n - 10) / n) if n >= 20 else 50
    if pct <= 50:
        return 50, statistics.median(ordered)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def code_digest() -> str:
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_context(backend: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": backend,
        "REPRO_OBS": os.environ.get("REPRO_OBS"),
    }


def check_fingerprint(key: str, fingerprint: dict) -> bool:
    """Compare with the fingerprint an earlier run of the same code and
    seed stored in the checkout; store it when there is none."""
    from world import state_root

    path = Path(state_root(str(ROOT))) / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == fingerprint
    known[key] = fingerprint
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    tmp.replace(path)
    return True


class Run:
    """One workload run: set-ups, the timed loop, and its records."""

    def __init__(self, workload, seed, seconds, trace, backend):
        from repro.crypto import bn254, simulated
        from world import SPECS

        import layers

        self.spec = SPECS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.group = bn254() if backend == "bn254" else simulated()
        self.recorder = layers.Recorder()
        self.setup_s: list[float] = []
        self.ops: list[dict] = []
        #: Reference-kernel times (ms) taken between timed operations.
        self.ref_ms: list[float] = []
        self.warm_failed = 0
        self.warm_ops = 0
        self.fingerprint = None
        self.errors: list[str] = []

    # -- phases --------------------------------------------------------------
    def set_up(self):
        from world import World, state_root

        root = state_root(str(ROOT))
        world = None
        for rep in range(SETUPS):
            if world is not None:
                world.close()
            last = rep == SETUPS - 1
            self.recorder.op_index = "setup"
            self.recorder.active = self.trace and last
            calls_before = self.recorder.calls.copy()
            t0 = time.perf_counter()
            with self._root("setup"):
                world = World(
                    self.spec, self.group, f"{self.seed}:{rep}",
                    os.path.join(root, f"state-{os.getpid()}-{rep}"),
                )
                ops = world.warm_ops() if self.spec.name == "hot-reads" else []
                failed = sum(not self._guarded(world, op) for op in ops)
            self.setup_s.append(time.perf_counter() - t0)
            self.recorder.active = False
            if last:
                self.warm_ops, self.warm_failed = len(ops), failed
                self.setup_calls = self.recorder.calls - calls_before
        self.world = world

    def timed(self):
        world, rec = self.world, self.recorder
        start = self._marks(world)
        self.pool_start = (rec.pool_hits, rec.pool_misses)
        # Each cycle traces a seeded random half of its reads, so traced
        # and untraced reads are samples of the same mix.
        coin = random.Random(f"trace:{self.seed}")
        reads = [i for i, kind in enumerate(self.spec.cycle) if kind in READS]
        t_start = time.perf_counter()
        deadline = t_start + self.seconds
        cycle = len(self.spec.cycle)
        # Whole cycles only: every run's samples are whole, balanced
        # cycles of the mix, so the means do not hinge on which op the
        # clock happened to stop at.
        while len(self.ops) % cycle or time.perf_counter() < deadline:
            op = world.next_op()
            index = len(self.ops)
            if index % cycle == 0:
                traced_reads = set(coin.sample(reads, len(reads) // 2))
            traced = self.trace and (op[0] not in READS or index % cycle in traced_reads)
            before = self._marks(world)
            rec.op_index, rec.active = index, traced
            t0 = time.perf_counter()
            with self._root("op"):
                ok = self._guarded(world, op)
            elapsed = time.perf_counter() - t0
            rec.active = False
            k0 = time.perf_counter()
            reference_kernel()
            self.ref_ms.append((time.perf_counter() - k0) * 1000.0)
            after = self._marks(world)
            self.ops.append({
                "kind": op[0], "ms": elapsed * 1000.0, "ok": ok, "traced": traced,
                **{k: after[k] - before[k] for k in ("bytes", "ingest_bytes",
                                                      "journal", "resigned")},
                "gs": {k: after["gs"][k] - before["gs"][k] for k in after["gs"]},
                "calls": after["calls"] - before["calls"],
                "engine": rec.engine_stats[before["engine"]:],
            })
            if index + 1 == cycle:
                self.fingerprint = self._fingerprint(start, after)
        self.timed_s = time.perf_counter() - t_start
        self.client_totals = Counter()
        for entry in world.users:
            for client in (entry["reader"], entry["joiner"]):
                self.client_totals.update(client.counters.as_dict())
        self.canary_rejected = world.canary()
        world.close()

    # -- helpers -------------------------------------------------------------
    def _root(self, name):
        return self.recorder.span(name) if self.recorder.active else nullcontext()

    def _guarded(self, world, op) -> bool:
        try:
            return world.run_op(op)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            self.errors.append(f"{op[:2]}: {traceback.format_exc(limit=3)}")
            return False

    def _marks(self, world) -> dict:
        rec = self.recorder
        marks = {"calls": rec.calls.copy(), "engine": len(rec.engine_stats),
                 "resigned": rec.resigned_nodes, "gs": self.group.stats.snapshot()}
        if world is not None:
            marks["bytes"] = world.response_bytes
            marks["ingest_bytes"] = world.ingest_bytes
            marks["journal"] = world.ingest.journal.size
        return marks

    def _fingerprint(self, start, end) -> dict:
        calls = end["calls"] - start["calls"]
        ops = self.ops
        return {
            "ops": len(ops),
            "pairings": end["gs"]["pairings"] - start["gs"]["pairings"],
            "pair_cache_hits": end["gs"]["pair_cache_hits"] - start["gs"]["pair_cache_hits"],
            "miller_loops": calls["crypto.miller_loop"],
            "final_exps": calls["crypto.final_exp"],
            "relax_derivations": sum(s.relax_calls for op in ops for s in op["engine"]),
            "resigned_nodes": end["resigned"] - start["resigned"],
            "response_bytes": end["bytes"] - start["bytes"],
            "fsyncs": calls["os.fsync"],
        }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ms(ops, kinds):
    return [op["ms"] for op in ops if op["kind"] in kinds and op["ok"]]


def end_to_end(run: Run, info: dict) -> dict:
    ops = [op for op in run.ops if not op["traced"]]
    reads, joins = _ms(ops, ("Q",)), _ms(ops, ("J",))
    updates, rotates = _ms(ops, WRITES), _ms(ops, ("T",))
    attempted = len(run.ops) + run.warm_ops
    failed = sum(not op["ok"] for op in run.ops) + run.warm_failed
    answers = [op for op in ops if op["kind"] in READS]
    # Latencies are gated in units of the reference kernel's mean time in
    # the same run, which cancels the host's speed; see "Why reference
    # units" in the README.  The raw figures are printed for reading.
    ref = statistics.fmean(run.ref_ms)
    op_s = run.timed_s - sum(run.ref_ms) / 1000.0
    info["ref_kernel_ms"] = ref
    info["samples"] = {"query": len(reads), "join": len(joins),
                       "update": len(updates), "rotate": len(rotates),
                       "ref_kernel": len(run.ref_ms)}
    info["raw_ms"] = {
        name: {"mean": statistics.fmean(values), "p50": statistics.median(values),
               "tail": dict(zip(("pct", "value"), tail(values)))}
        for name, values in (("query", reads), ("join", joins),
                             ("update", updates), ("rotate", rotates))
    }
    info["queries_per_s"] = sum(op["ok"] for op in run.ops if op["kind"] in READS) / op_s
    return {
        "query_mean_ref": (statistics.fmean(reads) / ref, "ref"),
        "join_mean_ref": (statistics.fmean(joins) / ref, "ref"),
        "update_mean_ref": (statistics.fmean(updates) / ref, "ref"),
        "rotate_mean_ref": (statistics.fmean(rotates) / ref, "ref"),
        "response_bytes_mean": (statistics.mean(op["bytes"] for op in answers), "bytes"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run, info: dict) -> dict:
    import layers

    traced = {i: op for i, op in enumerate(run.ops) if op["traced"]}
    trace = layers.layer_breakdown(run.recorder, set(traced) | {"setup"})
    by_op = trace["by_op"]
    q_ops = [i for i, op in traced.items() if op["kind"] in READS and op["ok"]]
    w_ops = [i for i, op in traced.items() if op["kind"] in WRITES and op["ok"]]
    t_ops = [i for i, op in traced.items() if op["kind"] == "T" and op["ok"]]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def layer(ops, name, field):
        return mean(by_op[i][name][field] for i in ops)

    def gs(ops, key):
        return mean(run.ops[i]["gs"][key] for i in ops)

    def engine(field):
        return mean(sum(getattr(s, field) for s in run.ops[i]["engine"]) for i in q_ops)

    untraced_q = [op["ms"] for op in run.ops
                  if op["kind"] == "Q" and op["ok"] and not op["traced"]]
    traced_q = [run.ops[i]["ms"] for i in q_ops if run.ops[i]["kind"] == "Q"]
    q_mean = statistics.fmean(untraced_q) if untraced_q else float("nan")
    pairing_ms = statistics.fmean([
        1000 * (by_op[i]["crypto.miller_loop"][1] + by_op[i]["crypto.final_exp"][1])
        for i in q_ops if run.ops[i]["kind"] == "Q"
    ] or [float("nan")])
    hits, pairings = gs(q_ops, "pair_cache_hits"), gs(q_ops, "pairings")
    aps_hits, aps_misses = engine("aps_cache_hits"), engine("aps_cache_misses")
    wall = [trace["wall"][i] for i in q_ops]
    gap = [trace["wall"][i] - trace["stage_sum"][i] for i in q_ops]
    coverage = 1 - sum(gap) / sum(wall) if wall else 0.0
    info["trace_coverage"] = coverage
    info["trace_coverage_ok"] = coverage >= 0.9
    info["traced_ops"] = {"query": len(q_ops), "update": len(w_ops), "rotate": len(t_ops)}
    checkpoints = sum(run.ops[i]["calls"]["ingest.checkpoint"] for i in t_ops)
    setup = by_op["setup"]
    counts = run.client_totals
    pool_hits = run.recorder.pool_hits - run.pool_start[0]
    pool = pool_hits + run.recorder.pool_misses - run.pool_start[1]
    metrics = {
        "crypto.miller_loop.calls": (layer(q_ops, "crypto.miller_loop", 0), "count"),
        "crypto.miller_loop.self_ms": (1000 * layer(q_ops, "crypto.miller_loop", 1), "ms"),
        "crypto.final_exp.calls": (layer(q_ops, "crypto.final_exp", 0), "count"),
        "crypto.final_exp.self_ms": (1000 * layer(q_ops, "crypto.final_exp", 1), "ms"),
        "crypto.pairing_share_of_query_mean": (pairing_ms / q_mean, "ratio"),
        "crypto.pairings": (pairings, "count"),
        "crypto.pair_cache_hit_ratio": (hits / (hits + pairings) if hits + pairings else 0.0,
                                        "ratio"),
        "crypto.pows": (gs(w_ops, "pows"), "count"),
        "crypto.pows_fixed": (gs(w_ops, "pows_fixed"), "count"),
        "crypto.multi_pows": (gs(w_ops, "multi_pows"), "count"),
        "crypto.combs_built": (gs(w_ops, "combs_built"), "count"),
        "abs.relax.calls": (layer(q_ops, "abs.relax", 0), "count"),
        "abs.relax.derivations": (engine("relax_calls"), "count"),
        "abs.relax.self_ms": (1000 * layer(q_ops, "abs.relax", 1), "ms"),
        "abs.verify.calls": (layer(q_ops, "abs.verify", 0), "count"),
        "abs.verify.self_ms": (1000 * layer(q_ops, "abs.verify", 1), "ms"),
        "abe.seal.ms": (1000 * layer(q_ops, "abe.seal", 2), "ms"),
        "abe.open.ms": (1000 * layer(q_ops, "abe.open", 2), "ms"),
        "engine.traverse.ms": (engine("traversal_ms"), "ms"),
        "engine.materialize.ms": (engine("relax_ms"), "ms"),
        "engine.tasks": (engine("total_tasks"), "count"),
        "engine.aps_cache_hit_ratio": (aps_hits / (aps_hits + aps_misses)
                                       if aps_hits + aps_misses else 0.0, "ratio"),
        "sp.auth_pool_hit_ratio": (pool_hits / pool if pool else 0.0, "ratio"),
        "sp.serve.ms": (1000 * layer(q_ops, "sp.serve", 2), "ms"),
        "verifier.self_ms": (1000 * layer(q_ops, "verifier", 1), "ms"),
        "wire.encode.ms": (1000 * layer(q_ops, "wire.encode", 1), "ms"),
        "wire.decode.ms": (1000 * layer(q_ops, "wire.decode", 1), "ms"),
        "wire.response_bytes": (mean(run.ops[i]["bytes"] for i in q_ops), "bytes"),
        "net.client.attempts_per_query": (counts["attempts"] / counts["requests"]
                                          if counts["requests"] else 0.0, "count"),
        "net.server.errors": (run.world.server.errors, "count"),
        "net.server.shed": (run.world.server.shed, "count"),
        "index.build.ms": (1000 * setup["index.build"][2] / max(1, setup["index.build"][0]),
                           "ms"),
        "index.nodes_signed": (run.setup_calls["index.sign"], "count"),
        "index.update.ms": (1000 * layer(w_ops, "index.update", 2), "ms"),
        "index.update.resigned_nodes": (mean(run.ops[i]["resigned"] for i in w_ops), "count"),
        "ingest.publish.ms": (1000 * mean(trace["wall"][i] - by_op[i]["index.update"][2]
                                          - by_op[i]["sp.serve"][2] for i in w_ops), "ms"),
        "ingest.apply.ms": (1000 * layer(w_ops, "ingest.apply", 2), "ms"),
        "ingest.frame_bytes": (mean(run.ops[i]["ingest_bytes"] for i in w_ops), "bytes"),
        "ingest.journal_bytes_per_update": (mean(run.ops[i]["journal"] for i in w_ops),
                                            "bytes"),
        "ingest.fsyncs": (mean(run.ops[i]["calls"]["os.fsync"] for i in w_ops), "count"),
        "ingest.checkpoints": (checkpoints / len(t_ops) if t_ops else 0.0, "count"),
        "ingest.checkpoint.ms": (1000 * sum(by_op[i]["ingest.checkpoint"][2] for i in t_ops)
                                 / max(1, checkpoints), "ms"),
        "trace.unattributed_ms": (1000 * mean(gap), "ms"),
        "trace.overhead_ratio": (statistics.fmean(traced_q) / q_mean if traced_q else
                                 float("nan"), "ratio"),
    }
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.backend)
    run.recorder.install()
    try:
        run.set_up()
        run.timed()
    finally:
        run.recorder.uninstall()
    world = run.world
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_context(args.backend),
        "sizes": {
            "roles": len(run.spec.roles),
            "role_sets": len(world.users),
            "domain": run.spec.domain,
            "records": {name: len(rows) for name, rows in world.shadow.items()},
            "hot_set_queries": run.warm_ops,
            "aps_cache_per_authenticator": 4096,
            "auth_pool": 16,
            "pair_cache": getattr(run.group, "PAIR_CACHE_MAX", None),
        },
        "setup_s_each": run.setup_s,
        "ops": len(run.ops),
        "fingerprint": run.fingerprint,
        "canary_rejected": run.canary_rejected,
    }
    wrong = [op for op in run.ops if not op["ok"]]
    fingerprint_ok = True
    if run.fingerprint is not None:
        key = f"{args.workload}|{args.seed}|{args.backend}|{code_digest()}"
        fingerprint_ok = check_fingerprint(key, run.fingerprint)
    info["fingerprint_repeats"] = fingerprint_ok
    metrics = per_layer(run, info) if args.trace else end_to_end(run, info)
    correct = (not wrong and not run.warm_failed and run.canary_rejected
               and fingerprint_ok)
    for line in run.errors[:5]:
        print(f"error: {line}", file=sys.stderr)
    if not run.canary_rejected:
        print("FAIL: the forged response was accepted", file=sys.stderr)
    if info.get("trace_coverage_ok") is False:
        print(f"WARNING: stage spans cover {info['trace_coverage']:.1%} of traced "
              "query time (< 90%); see trace.unattributed_ms", file=sys.stderr)
    if not fingerprint_ok:
        print("FAIL: count fingerprint differs from an earlier run of the same "
              "code and seed", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(run.ops) + run.warm_ops,
        "failed": len(wrong) + run.warm_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so none inherits another's caches."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--backend", args.backend]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=("bn254", "simulated"), default="bn254",
                        help="simulated is for the smoke tests only")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
