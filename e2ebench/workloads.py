"""The closed-loop workloads and the oracle gates they must pass.

Every workload is one client in one process, running serially: submit a
batch, wait until its effects are readable, then read.  Batches come from
:meth:`repro.BatchProtocol.mixed` and are generated before any clock
starts.  A protocol round is ``(prep, mixed, restore)`` and returns the
graph to its initial state, so rounds generated up front from the initial
graph stay valid however often they are replayed.  Each workload has 35
rounds, 105 distinct batches ("slots"): at least ten of them lie beyond
p90.  A run replays every slot once per cycle, on a freshly set-up stack
each cycle, and takes each slot's least-disturbed (smallest) repeat.

``graph_trickle``
    ``powerlaw_social(16k, 16)``, 10-edge protocol rounds through
    ``CoreServer`` over ``DurableMaintainer(sync_policy="batch")`` and one
    array-engine replica, 20 point reads per batch.  Fixed per-batch costs
    dominate.
``graph_bulk``
    ``powerlaw_social(24k, 16)``, 2700-edge protocol rounds (the mixed
    batch holds 4050 edges) that the client builds as ``ColumnarBatch``es
    from int64 arrays and applies to a bare ``CoreMaintainer``.  The
    columnar kernels and convergence dominate; the control workload for
    serve / WAL / replication changes.
``hyper_served``
    ``affiliation_hypergraph(5k, 3.5k, 6.0)``, 64-pin protocol rounds
    through ``CoreServer`` over a durable layer, 200 point reads and one
    ``vertices_with_core_at_least`` per batch.  Read-heavy; the cold
    hypergraph seed dominates its set-up.  Not in ``BENCHMARK.json``: a
    benchmark check's time budget holds two workloads; run it by name.

The served stacks are built one public constructor at a time --
``make_maintainer(..., engine="array")`` -> ``DurableMaintainer`` ->
``ReplicatedMaintainer`` -> ``CoreServer``, the chain
``CoreMaintainer(sub, engine="array", durable=..., replicas=...)`` builds
-- so each constructor's share of set-up is measured directly.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import Tracer, beyond, least_disturbed, percentile
from repro import ArrayGraph, ArrayHypergraph, BatchProtocol, make_maintainer, peel
from repro.core.maintainer import CoreMaintainer
from repro.graph.columnar import ColumnarBatch
from repro.graph.generators import affiliation_hypergraph, powerlaw_social
from repro.parallel.threads import ThreadRuntime
from repro.replication.primary import ReplicatedMaintainer
from repro.resilience.checkpoint import Checkpoint, restore_maintainer
from repro.resilience.durability.durable import DurableMaintainer
from repro.resilience.durability.recovery import list_checkpoints
from repro.serve.server import CoreServer

__all__ = ["SPECS", "Spec", "tiny", "run_workload", "END_TO_END", "PER_LAYER"]

#: cycles through every distinct batch, at least.  Each cycle runs on a
#: freshly set-up stack, so set-ups, recoveries and the repeats of every
#: batch are spread over the whole run; each metric takes the
#: least-disturbed repeat (or, for setup_s, the median)
MIN_CYCLES = 3
#: no cycle starts once the cycles so far took this long, whatever
#: MIN_CYCLES says
MAX_TIMED_S = 100.0
#: every K-th published view is audited against the maintainer
VIEW_CHECK_EVERY = 10
#: the core threshold of hyper_served's vertices_with_core_at_least reads
SCAN_K = 2
#: generator seed of hyper_served's substrate: the group-size law is
#: heavy-tailed, so the largest hyperedge (and the super-linear cold seed
#: and peak memory with it) swings 2x from one generator seed to the next
HYPER_BASE_SEED = 0
#: |layer sum / traced visible time - 1| the traced run accepts
LAYER_SUM_TOLERANCE = 0.05


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    kind: str                    #: "graph" or "hyper"
    size: Tuple                  #: generator arguments
    batch_size: int              #: BatchProtocol.mixed(batch_size)
    rounds: int                  #: distinct protocol rounds; odd (traced run)
    reads: int                   #: point reads per batch
    served: bool                 #: CoreServer over a durable layer
    replicas: int = 0
    scan: bool = False           #: one vertices_with_core_at_least per batch
    crash_rounds: int = 1        #: rounds applied past the last checkpoint
    parallel_rounds: int = 0     #: threads=2 rerun rounds (traced run)


SPECS: Dict[str, Spec] = {
    "graph_trickle": Spec(
        "graph_trickle", "graph", (16_000, 16), batch_size=10, rounds=35,
        reads=20, served=True, replicas=1, crash_rounds=2,
    ),
    "graph_bulk": Spec(
        "graph_bulk", "graph", (24_000, 16), batch_size=2700, rounds=35,
        reads=20, served=False, parallel_rounds=2,
    ),
    "hyper_served": Spec(
        "hyper_served", "hyper", (5_000, 3_500, 6.0), batch_size=64,
        rounds=35, reads=200, served=True, scan=True, crash_rounds=2,
    ),
}


def tiny(spec: Spec) -> Spec:
    """The same workload at smoke-test size."""
    size = {"graph": (300, 6), "hyper": (200, 150, 4.0)}[spec.kind]
    return dataclasses.replace(
        spec, size=size, batch_size=min(spec.batch_size, 8), rounds=3,
        reads=min(spec.reads, 5), crash_rounds=1,
        parallel_rounds=min(spec.parallel_rounds, 1),
    )


#: (name, unit) of every end-to-end metric, reported on every workload
END_TO_END = [
    ("setup_s", "s"), ("visible_p50_ms", "ms"), ("visible_p90_ms", "ms"),
    ("changes_per_s", "1/s"), ("read_p50_us", "us"), ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: the regions ThreadRuntime times (chunked map_ranges dispatch)
PARALLEL_REGIONS = ("maintain_h_columnar", "frontier_csr")

#: (name, unit) of every per-layer metric; a layer absent from a
#: workload's path reports 0
PER_LAYER = [
    ("serve.submit_us", "us"), ("serve.pump_self_ms", "ms"),
    ("serve.publish_ms", "ms"), ("serve.read_us", "us"),
    ("serve.coalesced_frac", "ratio"), ("serve.queue_depth_max", "count"),
    ("replication.self_ms", "ms"), ("replication.replica_receive_ms", "ms"),
    ("replication.bytes_per_batch", "B"), ("replication.max_lag_batches", "count"),
    ("durability.self_ms", "ms"), ("durability.wal_append_ms", "ms"),
    ("durability.checkpoint_ms", "ms"), ("durability.wal_bytes_per_change", "B"),
    ("recovery.restore_s", "s"), ("recovery.replay_s", "s"),
    ("recovery.batches_replayed", "count"),
    ("core.apply_ms", "ms"), ("core.self_ms", "ms"), ("core.touched_frac", "ratio"),
    ("core.changed_per_touched", "ratio"), ("core.columnar_share", "ratio"),
    ("engine.classify_apply_ms", "ms"), ("engine.sweep_converge_ms", "ms"),
    ("graph.batch_build_ms", "ms"),
    ("setup.substrate_s", "s"), ("setup.seed_s", "s"), ("setup.checkpoint_s", "s"),
    ("setup.replica_bootstrap_s", "s"),
    *((f"parallel.region_s.{r}", "s") for r in PARALLEL_REGIONS),
    ("parallel.thread_speedup", "ratio"),
    ("trace.overhead_frac", "ratio"), ("trace.layer_sum_frac", "ratio"),
    ("host.py_loop_ms", "ms"), ("host.np_loop_ms", "ms"),
]

#: spans on a batch's submit-to-visible path (their self times add up)
BATCH_PATH_SPANS = (
    "serve.submit", "serve.pump", "serve.publish",
    "replication.apply", "replication.ship", "replication.receive",
    "durability.apply", "durability.wal_append", "durability.checkpoint",
    "core.apply", "engine.classify_apply", "engine.sweep_converge",
    "graph.batch_build",
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Inputs:
    base: object          #: the initial DynamicGraph / DynamicHypergraph
    batches: List         #: flattened rounds: prep, mixed, restore, ...
    units: List[int]      #: structural units (edges or pins) per batch
    reads: List[List]     #: read targets per batch slot
    probe_vertex: object
    columns: Optional[List] = None   #: graph_bulk: (deleted, inserted) int64 edges


def make_inputs(spec: Spec, seed: int) -> Inputs:
    if spec.kind == "graph":
        base = powerlaw_social(*spec.size, seed=seed)
    else:
        base = affiliation_hypergraph(*spec.size, seed=HYPER_BASE_SEED)
    proto = BatchProtocol(base, seed=seed)
    batches = [b for _ in range(spec.rounds) for b in proto.mixed(spec.batch_size)]
    per_unit = 2 if spec.kind == "graph" else 1
    units = [len(b.changes) // per_unit for b in batches]
    verts = sorted(base.vertices())
    rng = random.Random(seed * 7919 + 17)
    reads = [[verts[rng.randrange(len(verts))] for _ in range(spec.reads)]
             for _ in batches]
    columns = None
    if not spec.served:
        columns = [
            tuple(np.array(sorted({c.edge for c in b.changes if c.insert == ins}),
                           dtype=np.int64).reshape(-1, 2)
                  for ins in (False, True))
            for b in batches
        ]
    return Inputs(base, batches, units, reads, verts[0], columns)


def build_columnar(deleted: np.ndarray, inserted: np.ndarray) -> ColumnarBatch:
    """The bulk client's batch: one columnar batch from int64 edge arrays."""
    d = ColumnarBatch.from_graph_edges(deleted, False)
    i = ColumnarBatch.from_graph_edges(inserted, True)
    return ColumnarBatch(
        np.concatenate((d.col_a, i.col_a)), np.concatenate((d.col_b, i.col_b)),
        np.concatenate((d.insert, i.insert)), is_hyper=False,
    )


# ---------------------------------------------------------------------------
# the stack
# ---------------------------------------------------------------------------
class Stack:
    """One built stack plus its constructor timings."""

    def __init__(self, spec: Spec, inputs: Inputs, directory: Path) -> None:
        self.directory = directory
        self.primary_dir = directory / "primary"
        self.durable = self.replicated = self.server = self.facade = None
        t0 = time.perf_counter()
        if spec.kind == "graph":
            sub = ArrayGraph.from_graph(inputs.base)
        else:
            sub = ArrayHypergraph.from_hypergraph(inputs.base)
        t1 = time.perf_counter()
        if spec.served:
            self.algo = make_maintainer(sub, "mod", engine="array")
        else:
            self.facade = CoreMaintainer(sub, "mod", engine="array")
            self.algo = self.facade.impl
        t2 = time.perf_counter()
        if spec.served:
            self.durable = DurableMaintainer(
                self.algo, self.primary_dir, sync_policy="batch")
        t3 = time.perf_counter()
        if spec.replicas:
            self.replicated = ReplicatedMaintainer(
                self.durable, replicas=spec.replicas,
                directory_root=directory / "replicas")
        t4 = time.perf_counter()
        self.top = self.replicated or self.durable or self.facade
        v = inputs.probe_vertex
        if spec.served:
            self.server = CoreServer(self.top, max_batch=1 << 20)
            first = self.server.core(v).value
        else:
            first = self.facade.kappa_of(v)
        t5 = time.perf_counter()
        self.first_query_ok = first == self.algo.tau.get(v, 0)
        self.times = {
            "setup.substrate_s": t1 - t0, "setup.seed_s": t2 - t1,
            "setup.checkpoint_s": t3 - t2 if spec.served else 0.0,
            "setup.replica_bootstrap_s": t4 - t3 if spec.replicas else 0.0,
            "setup_s": t5 - t0,
        }

    def replicas(self):
        return self.replicated.replicas if self.replicated is not None else []

    def close(self) -> None:
        for r in self.replicas():
            r.close()
        if self.durable is not None:
            self.durable.wal.close()


# ---------------------------------------------------------------------------
# tracing the stack
# ---------------------------------------------------------------------------
def _wal_bytes(wal) -> int:
    return sum(p.stat().st_size for p in wal.segments())


def install_spans(tr: Tracer, spec: Spec, stack: Stack) -> None:
    """Timing proxies on every layer's public entry points."""
    algo = stack.algo
    tau = algo.tau
    counts = tr.counts
    tr.install(algo, "apply_batch", "core.apply")
    tr.install(algo.backend, "maintain_h_columnar", "engine.classify_apply")
    tr.install(algo.backend, "sweep_and_converge", "engine.sweep_converge")

    def count_delta(delta) -> None:
        counts["delta"] += len(delta)
        counts["changed"] += sum(1 for v, old in delta.items() if tau.get(v) != old)

    if not spec.served:
        # no server: a counting-only publisher measures the delta size,
        # and its whole cost is the tracer's own
        tr.set_attr(algo, "view_publisher", tr.bookkeeping(count_delta))
        return

    def admission(decision, _token, changes) -> None:
        counts["offered"] += len(changes)
        counts["coalesced"] += decision.annihilated + decision.duplicates
        counts["queue_depth_max"] = max(counts["queue_depth_max"], decision.queue_depth)

    server, durable = stack.server, stack.durable
    tr.install(server, "submit", "serve.submit", after=admission)
    tr.install(server, "pump", "serve.pump")
    tr.install(server, "core", "serve.read")
    tr.install(algo, "view_publisher", "serve.publish",
               after=lambda _r, _t, delta: count_delta(delta))
    tr.install(durable, "apply_batch", "durability.apply")
    tr.install(durable, "checkpoint", "durability.checkpoint")
    tr.install(
        durable.wal, "append_batch", "durability.wal_append",
        before=lambda *_a: _wal_bytes(durable.wal),
        after=lambda _r, before, *_a: counts.update(
            wal_bytes=_wal_bytes(durable.wal) - before),
    )
    if stack.replicated is not None:
        rep = stack.replicated
        tr.install(rep, "apply_batch", "replication.apply")
        for replica, link in zip(rep.replicas, rep.links):
            tr.install(replica, "receive", "replication.receive")
            tr.install(link, "ship", "replication.ship",
                       after=lambda _r, _t, shipment: counts.update(
                           shipped_bytes=len(shipment.payload)))


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
class Gates:
    """Oracle and path checks; every failure is an operation that failed."""

    def __init__(self) -> None:
        self.failed: List[str] = []
        self.checked = 0

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed.append(what)


def _views_agree(stack: Stack, spec: Spec) -> bool:
    algo = stack.algo
    view = stack.server.view()
    if view.boundary != algo.batches_processed or view.kappa() != algo.tau:
        return False
    if spec.scan:
        want = {v for v, k in algo.tau.items() if k >= SCAN_K}
        return set(stack.server.vertices_with_core_at_least(SCAN_K).value) == want
    return True


@dataclasses.dataclass
class Phase:
    """What the cycles measured.  ``visible``, ``cycle_s`` and ``read``
    hold, per batch slot, one entry per untraced repeat."""

    visible: List[List[float]]
    cycle_s: List[List[float]]       #: batch + its reads
    read: List[List[float]]          #: mean latency of the batch's point reads
    traced_visible: List[float] = dataclasses.field(default_factory=list)
    traced_units: int = 0
    traced_bookkeeping_ns: int = 0
    max_lag: int = 0
    columnar_batches: int = 0
    applied: int = 0
    rounds: int = 0
    cycles: int = 0
    batches: int = 0
    attempted: int = 0
    failed: int = 0

    @classmethod
    def for_slots(cls, n: int) -> "Phase":
        return cls(*([[] for _ in range(n)] for _ in range(3)))

    @property
    def columnar_share(self) -> float:
        return self.columnar_batches / max(1, self.applied)


def _cycle(spec: Spec, inputs: Inputs, stack: Stack, ph: Phase,
           tr: Optional[Tracer], gates: Gates, recover: Callable[[], None]) -> None:
    """Warm up one round (excluded), then apply every protocol round once.
    With a tracer, every other round is traced; the round count is odd,
    so each round is traced in alternate cycles.  ``recover()`` runs,
    untimed, halfway through and at the end."""
    algo = stack.algo
    build = build_columnar
    clock = time.perf_counter

    def one_batch(slot: int) -> bool:
        if spec.served:
            dec = stack.server.submit(inputs.batches[slot].changes)
            rep = stack.server.pump()
            return dec.accepted and rep.batches == 1 and not rep.failures and not rep.remaining
        try:
            stack.facade.apply_batch(build(*inputs.columns[slot]))
        except Exception:  # counted as failed; the end-of-cycle gates then trip
            return False
        return True

    def read(slot: int, record: bool) -> int:
        """The slot's point reads, timed as one block (a read takes well
        under a microsecond on ``graph_bulk``), then checked."""
        targets = inputs.reads[slot]
        bad = 0
        if spec.served:
            core = stack.server.core
            t0 = clock()
            results = [core(v) for v in targets]
            t1 = clock()
            tau = algo.tau
            bad += sum(res.status != "fresh" or res.value != tau.get(v, 0)
                       for v, res in zip(targets, results))
            if spec.scan:
                bad += stack.server.vertices_with_core_at_least(SCAN_K).status != "fresh"
        else:
            kappa_of = stack.facade.kappa_of
            t0 = clock()
            for v in targets:
                kappa_of(v)
            t1 = clock()
        if record:
            ph.read[slot].append((t1 - t0) / len(targets))
        return bad

    for slot in range(3):
        gates.check(one_batch(slot), "warm-up batch failed")
        read(slot, False)
    columnar0, applied0 = algo.backend.columnar_batches, algo.batches_processed
    for r in range(spec.rounds):
        if r == spec.rounds // 2:
            recover()
        traced = tr is not None and ph.rounds % 2 == 0
        if traced:
            install_spans(tr, spec, stack)
            build = tr.wrap("graph.batch_build", build_columnar)
        for s in range(3 * r, 3 * r + 3):
            bk0 = tr.bookkeeping_ns if traced else 0
            t0 = clock()
            ok = one_batch(s)
            t1 = clock()
            ph.failed += read(s, not traced) + (not ok)
            t2 = clock()
            ph.attempted += 1 + spec.reads + spec.scan
            ph.batches += 1
            if traced:
                ph.traced_visible.append(t1 - t0)
                ph.traced_units += inputs.units[s]
                ph.traced_bookkeeping_ns += tr.bookkeeping_ns - bk0
                if stack.replicated is not None:
                    ph.max_lag = max(ph.max_lag, stack.replicated.max_lag())
            else:
                ph.visible[s].append(t1 - t0)
                ph.cycle_s[s].append(t2 - t0)
            if spec.served and ph.batches % VIEW_CHECK_EVERY == 0:
                gates.check(_views_agree(stack, spec), f"view at batch {ph.batches}")
        if traced:
            tr.uninstall()
            build = build_columnar
        ph.rounds += 1
    ph.columnar_batches += algo.backend.columnar_batches - columnar0
    ph.applied += algo.batches_processed - applied0
    ph.cycles += 1
    recover()


def _end_of_cycle_gates(spec: Spec, stack: Stack, gates: Gates) -> None:
    if spec.served:
        gates.check(_views_agree(stack, spec), "final view")
    if stack.replicated is not None:
        stack.replicated.sync_replicas()
        for r in stack.replicated.replicas:
            gates.check(r.kappa() == stack.algo.tau, "replica kappa != primary kappa")


def _crash_image(spec: Spec, inputs: Inputs, stack: Stack, workdir: Path) -> Path:
    """Checkpoint, apply ``crash_rounds`` more rounds through the durable
    stack, and copy its directory as it stands: the state a crash at that
    point leaves.  The rounds return the graph to its initial state."""
    if spec.served:
        durable = stack.top
        durable.checkpoint()
    else:
        # the bulk stack has no durable layer while timed: a temporary one
        # (baseline checkpoint) logs the crash rounds, then is dropped
        durable = DurableMaintainer(stack.algo, stack.primary_dir, sync_policy="batch")
    for i in range(spec.crash_rounds * 3):
        durable.apply_batch(inputs.batches[i])
    image = workdir / "crash-image"
    shutil.copytree(stack.primary_dir, image)
    if not spec.served:
        durable.wal.close()
    return image


class Recoveries:
    """Recoveries of fresh copies of a crash image, each timed from
    ``CoreMaintainer.recover(copy, engine="array")`` to its first answered
    read, copy time excluded, and checked against the oracle ``truth``."""

    def __init__(self, spec: Spec, image: Path, truth: Dict, probe_vertex,
                 time_restore: bool, gates: Gates) -> None:
        self.spec, self.image, self.truth = spec, image, truth
        self.v, self.time_restore, self.gates = probe_vertex, time_restore, gates
        self.recover_s: List[float] = []
        self.restore_s: List[float] = []
        self.replayed = 0

    def __call__(self) -> None:
        gates, truth = self.gates, self.truth
        copy = self.image.with_name(f"crash-{len(self.recover_s)}")
        shutil.copytree(self.image, copy)
        if self.time_restore:
            t0 = time.perf_counter()
            restore_maintainer(Checkpoint.load(list_checkpoints(copy)[-1]), engine="array")
            self.restore_s.append(time.perf_counter() - t0)
            gc.collect()
        t0 = time.perf_counter()
        rec = CoreMaintainer.recover(copy, engine="array")
        first = rec.kappa_of(self.v)
        self.recover_s.append(time.perf_counter() - t0)
        self.replayed = rec.last_recovery.batches_replayed
        gates.check(rec.engine == "array", "recovered engine is not array")
        gates.check(first == truth.get(self.v, 0), "recovered first read")
        gates.check(rec.kappa() == truth, "recovered kappa != peel")
        gates.check(self.replayed == self.spec.crash_rounds * 3, "replay suffix length")
        rec.impl.close(final_checkpoint=False)
        del rec
        shutil.rmtree(copy, ignore_errors=True)
        gc.collect()


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool,
                 workdir: Path, corrupt_kappa: Optional[Callable] = None) -> Dict:
    """Run one workload end to end; returns the result record.

    ``corrupt_kappa`` (tests only) is applied to the maintained kappa the
    end-of-run oracle gate reads, to prove the gate trips.
    """
    inputs = make_inputs(spec, seed)
    gates = Gates()
    tr = Tracer() if trace else None
    ph = Phase.for_slots(len(inputs.batches))
    setups: List[Dict[str, float]] = []
    recover = None
    parallel = {}
    timed_s = 0.0
    while True:
        gc.collect()
        stack = Stack(spec, inputs, workdir / f"setup-{len(setups)}")
        setups.append(stack.times)
        gates.check(stack.first_query_ok, f"setup {len(setups)}: first query")
        gates.check(stack.algo.engine == "array", "primary engine is not array")
        for r in stack.replicas():
            gates.check(r.maintainer.engine == "array", "replica engine is not array")
        if recover is None:
            initial_kappa = stack.algo.kappa()
            image = _crash_image(spec, inputs, stack, workdir)
            recover = Recoveries(spec, image, peel(stack.algo.sub),
                                 inputs.probe_vertex, trace, gates)
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        _cycle(spec, inputs, stack, ph, tr, gates, recover)
        timed_s += time.perf_counter() - t0
        last = (ph.cycles >= MIN_CYCLES and timed_s >= seconds) or timed_s >= MAX_TIMED_S
        if last and tr is not None and spec.parallel_rounds:
            parallel = _parallel_rerun(spec, inputs, stack, initial_kappa, gates)
        _end_of_cycle_gates(spec, stack, gates)
        if last:
            kappa = stack.algo.kappa()
            if corrupt_kappa is not None:
                kappa = corrupt_kappa(kappa)
            gates.check(kappa == peel(stack.algo.sub),
                        "maintained kappa != peel at end of run")
        gc.unfreeze()
        stack.close()
        shutil.rmtree(stack.directory, ignore_errors=True)
        del stack  # before the next set-up, so two stacks never coexist
        if last:
            break
    if not spec.served:
        gates.check(ph.columnar_share == 1.0,
                    f"columnar share {ph.columnar_share} != 1.0")

    visible = least_disturbed(ph.visible)
    everything = [t for xs in ph.visible for t in xs]
    units = [u for u, xs in zip(inputs.units, ph.visible) if xs]
    record = {
        "metrics": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "visible_p50_ms": percentile(visible, 50) * 1e3,
            "visible_p90_ms": percentile(visible, 90) * 1e3,
            "changes_per_s": sum(units) / sum(least_disturbed(ph.cycle_s)),
            "read_p50_us": percentile(least_disturbed(ph.read), 50) * 1e6,
            "recover_s": min(recover.recover_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "samples": {
            "batches": ph.batches, "cycles": ph.cycles, "slots": len(visible),
            "untraced_batches": len(everything),
            "traced_batches": len(ph.traced_visible),
            "reads": spec.reads * sum(len(xs) for xs in ph.read),
            "beyond_p90": beyond(visible, 90), "setups": len(setups),
            "recoveries": len(recover.recover_s),
        },
        "series": {
            "visible_ms": [[round(t * 1e3, 3) for t in xs] for xs in ph.visible],
            "cycle_ms": [[round(t * 1e3, 3) for t in xs] for xs in ph.cycle_s],
            "whole_run_visible_p50_ms": percentile(everything, 50) * 1e3,
            "whole_run_visible_p90_ms": percentile(everything, 90) * 1e3,
            "whole_run_read_p50_us":
                percentile([t for xs in ph.read for t in xs], 50) * 1e6,
            "setup_s": [s["setup_s"] for s in setups],
            "recover_s": recover.recover_s,
        },
    }
    if tr is not None:
        record["layers"] = _layer_metrics(
            spec, tr, ph, setups, n_vertices=len(initial_kappa),
            restore_s=recover.restore_s, recover_s=recover.recover_s,
            replayed=recover.replayed, parallel=parallel, gates=gates,
        )
    record["attempted"] = ph.attempted + gates.checked
    record["failed"] = ph.failed + len(gates.failed)
    record["gate_failures"] = gates.failed
    return record


def _parallel_rerun(spec: Spec, inputs: Inputs, stack: Stack,
                    initial_kappa: Dict, gates: Gates) -> Dict[str, float]:
    """Apply the same rounds to the serial maintainer and to a threads=2
    twin, alternating, and compare their engine time."""
    rt = ThreadRuntime(2)
    try:
        twin = CoreMaintainer(ArrayGraph.from_graph(inputs.base), "mod", rt,
                              engine="array", tau=initial_kappa)
        sides = (("serial", stack.facade), ("threads", twin))
        engine_ns = {label: 0 for label, _m in sides}
        for r in range(spec.parallel_rounds):
            for label, m in sides:
                tr = Tracer()
                tr.install(m.impl.backend, "maintain_h_columnar", "engine")
                tr.install(m.impl.backend, "sweep_and_converge", "engine")
                for s in range(3 * r, 3 * r + 3):
                    m.apply_batch(build_columnar(*inputs.columns[s]))
                tr.uninstall()
                engine_ns[label] += tr.total_ns["engine"]
        gates.check(twin.kappa() == stack.algo.tau, "threads=2 kappa != serial kappa")
        n = 3 * spec.parallel_rounds
        out = {f"parallel.region_s.{name}": rt.region_seconds.get(name, 0.0) / n
               for name in PARALLEL_REGIONS}
        out["parallel.thread_speedup"] = engine_ns["serial"] / max(1, engine_ns["threads"])
        return out
    finally:
        rt.close()


def _layer_metrics(spec: Spec, tr: Tracer, ph: Phase, setups, *, n_vertices,
                   restore_s, recover_s, replayed, parallel,
                   gates: Gates) -> Dict[str, float]:
    n = len(ph.traced_visible)

    def ms(span: str) -> float:
        return tr.self_ns[span] / max(1, n) / 1e6

    c = tr.counts
    out = {name: 0.0 for name, _unit in PER_LAYER}
    if spec.served:
        out["serve.submit_us"] = ms("serve.submit") * 1e3
        out["serve.pump_self_ms"] = ms("serve.pump")
        out["serve.publish_ms"] = ms("serve.publish")
        out["serve.read_us"] = tr.total_ns["serve.read"] / max(1, tr.calls["serve.read"]) / 1e3
        out["serve.coalesced_frac"] = c["coalesced"] / max(1, c["offered"])
        out["serve.queue_depth_max"] = c["queue_depth_max"]
        out["durability.self_ms"] = ms("durability.apply")
        out["durability.wal_append_ms"] = ms("durability.wal_append")
        out["durability.checkpoint_ms"] = ms("durability.checkpoint")
        out["durability.wal_bytes_per_change"] = c["wal_bytes"] / max(1, ph.traced_units)
    if spec.replicas:
        out["replication.self_ms"] = ms("replication.apply") + ms("replication.ship")
        out["replication.replica_receive_ms"] = ms("replication.receive")
        out["replication.bytes_per_batch"] = c["shipped_bytes"] / max(1, n)
        out["replication.max_lag_batches"] = ph.max_lag
    out["recovery.restore_s"] = statistics.median(restore_s)
    out["recovery.replay_s"] = statistics.median(
        max(0.0, t - r) for t, r in zip(recover_s, restore_s))
    out["recovery.batches_replayed"] = replayed
    out["core.apply_ms"] = tr.total_ns["core.apply"] / max(1, n) / 1e6
    out["core.self_ms"] = ms("core.apply")
    out["core.touched_frac"] = c["delta"] / max(1, n) / max(1, n_vertices)
    out["core.changed_per_touched"] = c["changed"] / max(1, c["delta"])
    out["core.columnar_share"] = ph.columnar_share
    out["engine.classify_apply_ms"] = ms("engine.classify_apply")
    out["engine.sweep_converge_ms"] = ms("engine.sweep_converge")
    out["graph.batch_build_ms"] = ms("graph.batch_build")
    for key in ("setup.substrate_s", "setup.seed_s", "setup.checkpoint_s",
                "setup.replica_bootstrap_s"):
        out[key] = statistics.median(s[key] for s in setups)
    out.update(parallel)
    out["trace.overhead_frac"] = (
        percentile(ph.traced_visible, 50)
        / percentile([t for xs in ph.visible for t in xs], 50) - 1.0)
    layer_ns = sum(tr.self_ns[s] for s in BATCH_PATH_SPANS)
    visible_ns = sum(ph.traced_visible) * 1e9 - ph.traced_bookkeeping_ns
    out["trace.layer_sum_frac"] = layer_ns / visible_ns
    gates.check(abs(out["trace.layer_sum_frac"] - 1.0) <= LAYER_SUM_TOLERANCE,
                f"layer sum {out['trace.layer_sum_frac']:.4f} of traced visible time")
    return out
