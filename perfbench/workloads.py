"""The benchmark's four workloads and the correctness oracle they share.

Every workload draws its inputs from one seeded cross-modal dataset with
laion-sim's geometry (48-d cosine, 20 clusters, modality gap 1.0, 3 facets)
and drives the program only through its public API: ``VectorStore`` for
the three in-process workloads, ``ClusterRouter`` behind a ``FrontDoor`` for
the cluster one.  Each workload has three steps the runner times apart:
``setup`` (what ``setup_s`` measures), ``measure(seconds)`` (the timed
closed loop) and ``finish`` (checks that need the run to be over,
such as WAL recovery).  Answers are checked outside the timed regions
against brute-force top-10 over the live id set at the time of the search.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pathlib
import resource
import tempfile
import time

import numpy as np

from repro.cluster import ClusterRouter, FrontDoor, Overloaded
from repro.datasets.crossmodal import CrossModalConfig, make_cross_modal_dataset
from repro.durability import recover
from repro.store import VectorStore

DIM = 48
K = 10
N_CORPUS = 2000        # vectors loaded at set-up
N_INSERT_POOL = 4000   # held-out vectors that mixed-rw inserts
N_HISTORY = 1000       # history queries fitted at set-up
N_QUERIES = 2048       # OOD test queries the loops cycle through
GEOMETRY_SEED = 1      # the seed laion-sim's registry uses for load_dataset seed 0
RECALL_FLOOR = 0.3     # mean recall below this marks a broken search path
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Inputs:
    """One run's inputs, drawn by ``seed`` from a fixed laion-sim geometry.

    The geometry (cluster centres and weights, modality-gap direction) is
    drawn once from ``GEOMETRY_SEED`` with laion-sim's parameters and is
    the same for every seed; redrawing it per seed moved throughput by a
    fifth between seeds, which no bound could tell from a regression.  The
    seed picks the corpus, the insert pool, the history and the test
    queries from that one dataset.
    """

    def __init__(self, seed: int):
        config = CrossModalConfig(
            n_base=N_CORPUS + N_INSERT_POOL, n_train=2 * N_HISTORY,
            n_test=2 * N_QUERIES, dim=DIM, n_clusters=20, cluster_std=0.12,
            gap_scale=1.0, query_spread=0.4, n_facets=3, metric="cosine",
            seed=GEOMETRY_SEED)
        dataset = make_cross_modal_dataset("laion-sim", config)
        rng = np.random.default_rng(seed)
        self.vectors = dataset.base[rng.permutation(config.n_base)]
        self.corpus = self.vectors[:N_CORPUS]    # the rest is the insert pool
        self.history = dataset.train_queries[
            rng.choice(config.n_train, N_HISTORY, replace=False)]
        self.queries = dataset.test_queries[
            rng.choice(config.n_test, N_QUERIES, replace=False)]


def _unit(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


class Oracle:
    """Mirror of the store's live ids with brute-force cosine top-k."""

    def __init__(self, vectors: np.ndarray, n_live: int):
        self.unit = _unit(vectors)
        self.live = np.zeros(vectors.shape[0], dtype=bool)
        self.live[:n_live] = True
        self.n_issued = n_live
        self.wrong = 0
        self.errors: list[str] = []
        self.recall_sum = 0.0
        self.n_checked = 0

    def truth(self, queries: np.ndarray) -> np.ndarray:
        """Exact top-k live ids for each query row."""
        live_ids = np.flatnonzero(self.live)
        dists = 1.0 - _unit(np.atleast_2d(queries)) @ self.unit[live_ids].T
        return live_ids[np.argpartition(dists, K - 1, axis=1)[:, :K]]

    def fail(self, message: str) -> None:
        self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, query: np.ndarray, ids, dists, truth: np.ndarray) -> bool:
        """Check one answer; counts recall, returns False when it is wrong."""
        ids = np.asarray(ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        problem = None
        if ids.size < min(K, int(self.live.sum())):
            problem = f"{ids.size} results, expected {K}"
        elif np.unique(ids).size != ids.size:
            problem = f"duplicate ids {ids.tolist()}"
        elif ids.size and (ids.min() < 0 or ids.max() >= self.n_issued):
            problem = f"ids never issued: {ids.tolist()}"
        elif ids.size and not self.live[ids].all():
            problem = f"tombstoned ids returned: {ids[~self.live[ids]].tolist()}"
        elif ids.size:
            exact = 1.0 - self.unit[ids] @ _unit(query)
            if np.abs(exact - dists).max() > 1e-4:
                problem = "returned distances do not match the vectors"
        if problem is not None:
            self.fail(problem)
            return False
        self.recall_sum += np.intersect1d(ids, truth).size / K
        self.n_checked += 1
        return True

    def check_many(self, queries: np.ndarray, answers: list,
                   truth: np.ndarray) -> int:
        """Check many ``SearchResult`` answers at once; returns the wrong ones.

        Full answers are checked in one vectorized pass with the same rules
        as :meth:`check`; short or failing ones go through :meth:`check` so
        that their problem is recorded.
        """
        full = [i for i, a in enumerate(answers) if a.ids.size == K]
        ids = np.array([answers[i].ids for i in full],
                       dtype=np.int64).reshape(-1, K)
        dists = np.array([answers[i].distances for i in full],
                         dtype=np.float64).reshape(-1, K)
        rows = np.sort(ids, axis=1)
        ok = (rows[:, 1:] != rows[:, :-1]).all(axis=1)
        ok &= (ids >= 0).all(axis=1) & (ids < self.n_issued).all(axis=1)
        ok &= self.live[np.clip(ids, 0, self.live.size - 1)].all(axis=1)
        exact = 1.0 - np.einsum("qkd,qd->qk", self.unit[ids],
                                _unit(queries[full]))
        ok &= np.abs(exact - dists).max(axis=1) <= 1e-4
        hits = (ids[:, :, None] == truth[full][:, None, :]).any(axis=2)
        self.recall_sum += hits[ok].sum() / K
        self.n_checked += int(ok.sum())
        recheck = set(range(len(answers))) - {full[i] for i in np.flatnonzero(ok)}
        return sum(not self.check(queries[i], answers[i].ids,
                                  answers[i].distances, truth[i])
                   for i in sorted(recheck))

    @property
    def recall(self) -> float:
        return self.recall_sum / self.n_checked if self.n_checked else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _maybe_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Shared shape: ``setup``, ``warm``, ``measure``, ``counters``, ``finish``."""

    def __init__(self, inputs: Inputs, scratch: pathlib.Path, seed: int):
        self.inputs = inputs
        self.scratch = scratch
        self.rng = np.random.default_rng(seed + 1)
        self.oracle = Oracle(inputs.vectors, N_CORPUS)
        self.failed = 0
        self.attempted = 0
        self.notes: list[str] = []

    def wait_hook(self, start):  # only the cluster workload waits
        pass

    def rss_peak_mb(self) -> float:
        return _self_rss_mb()

    def finish(self) -> bool:
        """Checks that need the measuring to be over; False on a mismatch."""
        return True

    def close(self) -> None:
        """Release the program's processes and files (safe to repeat)."""
        store = getattr(self, "store", None)
        if store is not None:
            store.close()


class ReadBatch(Workload):
    """Closed loop, one caller: ``VectorStore.search_batch`` blocks of 64."""

    compressed = False
    batch = 64
    ef = 64

    def setup(self):
        self.store = VectorStore(dim=DIM, metric="cosine",
                                 compressed=self.compressed)
        self.store.add(self.inputs.corpus)
        self.store.fit_history(self.inputs.history)

    def warm(self):
        self.truth = self.oracle.truth(self.inputs.queries)
        self.store.search_batch(self.inputs.queries[:4 * self.batch], k=K,
                                ef=self.ef, batch_size=self.batch)
        self.cursor = 0

    def counters(self) -> dict:
        searcher = self.store.searcher
        return {"ndc": self.store.dc.ndc, "adc_scored": searcher.adc_scored,
                "rerank_ndc": searcher.rerank_ndc}

    def measure(self, seconds: float, tracer=None) -> dict:
        queries = self.inputs.queries
        n_slices = queries.shape[0] // self.batch
        latencies, answers = [], []
        busy = 0.0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            lo = (self.cursor % n_slices) * self.batch
            self.cursor += 1
            block = queries[lo:lo + self.batch]
            with _maybe_span(tracer, "bench.request"):
                t0 = time.perf_counter()
                results = self.store.search_batch(block, k=K, ef=self.ef,
                                                  batch_size=self.batch)
                elapsed = time.perf_counter() - t0
            busy += elapsed
            latencies.append(1e3 * elapsed)
            answers.append((lo, results))
        hops = 0
        for lo, results in answers:
            self.attempted += len(results)
            hops += sum(r.n_hops for r in results)
            self.failed += self.oracle.check_many(
                queries[lo:lo + self.batch], results,
                self.truth[lo:lo + self.batch])
        n_queries = self.batch * len(answers)
        return {"n_queries": n_queries, "throughput": n_queries / busy,
                "latencies_ms": latencies, "hops": hops,
                "latency_what": f"search_batch call of {self.batch} queries"}


class ReadBatchPQ(ReadBatch):
    """The same loop on the PQ-resident store (store-default rerank/pq_ks)."""

    compressed = True


class MixedRW(Workload):
    """Closed loop, one client, on a durable store with the inline scheduler.

    Op mix: 50% scalar search (ef=45), 20% add of one held-out vector, 20%
    delete of one live id, 10% observe of a served query.
    """

    ops = ("search", "add", "delete", "observe")
    mix = (0.5, 0.2, 0.2, 0.1)
    ef = 45

    def setup(self):
        self.wal_dir = pathlib.Path(tempfile.mkdtemp(prefix="mixed-rw-",
                                                     dir=self.scratch))
        self.store = VectorStore(dim=DIM, metric="cosine",
                                 wal_dir=self.wal_dir)
        self.store.add(self.inputs.corpus)
        self.store.fit_history(self.inputs.history)
        self.store.checkpoint()

    def warm(self):
        self.store.search(self.inputs.queries[0], k=K, ef=self.ef)
        self.next_pool = N_CORPUS
        self.inserted = 0
        self.observes = 0
        self.ndc = 0

    def _wal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.wal_dir.glob("wal-*.log"))

    def counters(self) -> dict:
        wal = self.store.wal
        return {"fsyncs": wal.n_fsyncs, "wal_records": wal.n_records,
                "wal_bytes": self._wal_bytes(),
                "user_bytes": self.inserted * DIM * 4,
                "observes": self.observes, "ndc": self.ndc}

    def measure(self, seconds: float, tracer=None) -> dict:
        store, oracle, queries = self.store, self.oracle, self.inputs.queries
        latencies = {op: [] for op in self.ops}
        all_ms = []
        busy = 0.0
        n_search = 0
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            op = self.ops[self.rng.choice(4, p=self.mix)]
            self.attempted += 1
            ok = True
            if op == "search":
                q = queries[self.rng.integers(N_QUERIES)]
                ndc0 = store.dc.ndc
                with _maybe_span(tracer, "bench.request"):
                    t0 = time.perf_counter()
                    hits = store.search(q, k=K, ef=self.ef)
                    elapsed = time.perf_counter() - t0
                self.ndc += store.dc.ndc - ndc0
                n_search += 1
                ok = oracle.check(q, [h[0] for h in hits],
                                  [h[1] for h in hits], oracle.truth(q)[0])
            elif op == "add":
                row = self.next_pool
                if row >= oracle.live.shape[0]:
                    raise RuntimeError("insert pool exhausted; enlarge "
                                       "N_INSERT_POOL for this run length")
                self.next_pool += 1
                with _maybe_span(tracer, "bench.request"):
                    t0 = time.perf_counter()
                    ids = store.add(self.inputs.vectors[row][None, :])
                    elapsed = time.perf_counter() - t0
                self.inserted += 1
                if ids != [oracle.n_issued]:
                    oracle.fail(f"add returned {ids}, expected "
                                f"[{oracle.n_issued}]")
                    ok = False
                oracle.live[oracle.n_issued] = True
                oracle.n_issued += 1
            elif op == "delete":
                victim = int(self.rng.choice(np.flatnonzero(oracle.live)))
                with _maybe_span(tracer, "bench.request"):
                    t0 = time.perf_counter()
                    store.delete([victim])
                    elapsed = time.perf_counter() - t0
                oracle.live[victim] = False
            else:
                q = queries[self.rng.integers(N_QUERIES)]
                with _maybe_span(tracer, "bench.request"):
                    t0 = time.perf_counter()
                    accepted = store.observe(q)
                    elapsed = time.perf_counter() - t0
                self.observes += 1
                if not accepted:
                    oracle.fail("observe shed by the repair queue")
                    ok = False
            if not ok:
                self.failed += 1
            busy += elapsed
            latencies[op].append(1e3 * elapsed)
            all_ms.append(1e3 * elapsed)
        return {"n_queries": n_search, "throughput": len(all_ms) / busy,
                "latencies_ms": all_ms, "per_op_ms": latencies,
                "latency_what": "one operation of the mix"}

    def finish(self) -> bool:
        """Close, recover from the WAL and compare with the mirror."""
        self.store.close()
        t0 = time.perf_counter()
        recovered, report = recover(self.wal_dir, attach_wal=False)
        try:
            n_ids = recovered.dc.size
            dead = recovered.deleted_ids
        finally:
            recovered.close()
        expect_dead = set(np.flatnonzero(
            ~self.oracle.live[:self.oracle.n_issued]).tolist())
        self.notes.append(
            f"recovery: {time.perf_counter() - t0:.2f} s, {n_ids} ids, "
            f"{len(dead)} deleted, report consistent={report.consistent}")
        ok = (n_ids == self.oracle.n_issued and dead == expect_dead
              and report.consistent)
        if not ok:
            self.oracle.fail(
                f"recovered store differs from the mirror: {n_ids} ids vs "
                f"{self.oracle.n_issued}, {len(dead ^ expect_dead)} deleted "
                "ids differ")
        return ok


class ClusterBurst(Workload):
    """Closed loop of 64-request bursts into a FrontDoor over 2 shards.

    Each burst sends 64 requests at once through
    ``FrontDoor(window_ms=2, max_batch=64, k=10, ef=45, executor_workers=2)``
    and waits for all of them before the next; the door coalesces a burst
    into one ``ClusterRouter.search_batch`` block.  The load stays CPU-bound
    in the router and the shard processes rather than idle between paced
    arrivals, so process wake-ups weigh little in the figures.
    """

    burst = 64
    ef = 45

    def setup(self):
        self.base_dir = pathlib.Path(tempfile.mkdtemp(prefix="cluster-",
                                                      dir=self.scratch))
        self.router = ClusterRouter(dim=DIM, metric="cosine", n_shards=2,
                                    n_replicas=1, base_dir=self.base_dir)
        self.router.load(self.inputs.corpus,
                         train_queries=self.inputs.history)

    def warm(self):
        self.truth = self.oracle.truth(self.inputs.queries)
        self.router.search(self.inputs.queries[0], k=K, ef=self.ef)
        self.cursor = 0
        self.burst_start = 0.0
        self.waits_ms: list[float] = []
        self.door_total = {"dispatched": 0, "blocks": 0, "shed": 0,
                           "brownout_blocks": 0}

    def wait_hook(self, start):
        self.waits_ms.append(1e3 * (start - self.burst_start))

    def _worker_pids(self) -> list[int]:
        return [h.process.pid for row in self.router.handles for h in row
                if h.process is not None]

    def counters(self) -> dict:
        ticks = 0
        for pid in self._worker_pids():
            fields = pathlib.Path(f"/proc/{pid}/stat").read_text() \
                .rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        stats = self.router.router_stats()
        return {"worker_cpu_ms": 1e3 * ticks / _CLOCK_TICKS,
                "retries": stats["retries"], "failures": stats["failures"],
                "wait_ms": float(np.mean(self.waits_ms)) if self.waits_ms
                else 0.0, **self.door_total}

    def rss_peak_mb(self) -> float:
        total = _self_rss_mb()
        for pid in self._worker_pids():
            for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    async def _run(self, seconds: float, tracer) -> tuple[list, list]:
        door = FrontDoor(self.router, window_ms=2, max_batch=64, k=K,
                         ef=self.ef, executor_workers=2)
        queries = self.inputs.queries
        n_slices = queries.shape[0] // self.burst
        latencies, answers = [], []
        before = door.stats()
        try:
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                lo = (self.cursor % n_slices) * self.burst
                self.cursor += 1
                block = queries[lo:lo + self.burst]
                # The span's self time is the front door and the event
                # loop; the router block runs in the door's executor.
                span = (contextlib.nullcontext() if tracer is None else
                        tracer.span("cluster.frontdoor", adopt_threads=True))
                with span:
                    self.burst_start = t0 = time.perf_counter()
                    results = await asyncio.gather(
                        *(door.search(q) for q in block),
                        return_exceptions=True)
                    elapsed = time.perf_counter() - t0
                latencies.append(1e3 * elapsed)
                answers.append((lo, results))
        finally:
            await door.drain()
        after = door.stats()
        for key in self.door_total:
            self.door_total[key] += after[key] - before[key]
        blocks = after["blocks"] - before["blocks"]
        self.notes.append(
            f"front door: {blocks} blocks, mean batch "
            f"{(after['dispatched'] - before['dispatched']) / max(blocks, 1):.1f}"
            f", {after['shed'] - before['shed']} shed, "
            f"{after['brownout_blocks'] - before['brownout_blocks']} browned out")
        return latencies, answers

    def measure(self, seconds: float, tracer=None) -> dict:
        latencies, answers = asyncio.run(self._run(seconds, tracer))
        queries = self.inputs.queries
        for lo, results in answers:
            self.attempted += len(results)
            served, rows = [], []
            for i, result in enumerate(results):
                if isinstance(result, Overloaded):
                    self.oracle.fail("request shed by the front door")
                elif isinstance(result, BaseException):
                    self.oracle.fail(f"{type(result).__name__}: {result}")
                elif result.degraded:
                    self.oracle.fail("degraded answer (brownout or deadline)")
                else:
                    served.append(result)
                    rows.append(lo + i)
                    continue
                self.failed += 1
            self.failed += self.oracle.check_many(queries[rows], served,
                                                  self.truth[rows])
        n_queries = self.burst * len(answers)
        return {"n_queries": n_queries,
                "throughput": n_queries / (1e-3 * sum(latencies)),
                "latencies_ms": latencies,
                "latency_what": f"burst of {self.burst} requests through "
                                "the front door"}

    def close(self) -> None:
        router = getattr(self, "router", None)
        if router is not None:
            router.close()


WORKLOADS = {
    "read-batch": ReadBatch,
    "read-batch-pq": ReadBatchPQ,
    "mixed-rw": MixedRW,
    "cluster-burst": ClusterBurst,
}
