"""Which program functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<what>``; the layer part is the program module the
function belongs to.  Two wrap sets exist: :func:`install_setup` times the
coarse set-up steps (index build, history fit, PQ training, checkpoint,
shard load) and :func:`install_hot` the calls on the serving path.  They
are installed separately so that tracing the hot path's many small calls
does not slow the set-up spans down.
"""

from __future__ import annotations

import repro.cluster.protocol as protocol
import repro.cluster.resilience as resilience
import repro.cluster.router as router_module
import repro.serving as serving
from repro.cluster import ClusterRouter
from repro.core.fixer import NGFixer
from repro.core.maintenance import IndexMaintainer
from repro.distances.computer import DistanceComputer
from repro.durability.wal import WriteAheadLog
from repro.graphs.hnsw import HNSW
from repro.graphs.search import BatchSearchEngine, VisitedTable
from repro.quantization.adc import ADCComputer
from repro.quantization.pq import ProductQuantizer
from repro.store import VectorStore

from tracing import Tracer


def install_setup(tracer: Tracer) -> None:
    tracer.wrap(HNSW, "__init__", "graphs.hnsw_build")
    tracer.wrap(NGFixer, "fit", "core.fit")
    tracer.wrap(ProductQuantizer, "fit", "quantization.pq_train")
    tracer.wrap(VectorStore, "checkpoint", "durability.checkpoint")
    tracer.wrap(ClusterRouter, "load", "cluster.load")


def install_hot(tracer: Tracer, wait_hook=None) -> None:
    """Wrap the serving-path functions of every layer.

    ``wait_hook(start)`` runs when the router starts a block; the cluster
    workload uses it to measure how long a burst waits in the front door.
    """
    counts = tracer.counts

    def count_rows(args, kwargs, result, span):
        counts["kernel_rows"] += len(args[1])

    def count_hops(args, kwargs, result, span):
        counts["hops"] += result.n_hops

    def count_edges(args, kwargs, result, span):
        counts["edges_added"] += sum(r.edges_added + r.rfix_edges
                                     for r in result)

    def count_encoded(args, kwargs, result, span):
        counts["bytes"] += len(result)

    def count_decoded(args, kwargs, result, span):
        counts["bytes"] += len(args[0]) + len(args[1])

    def count_rpc(args, kwargs, result, span):
        counts["rpcs"] += 1

    def router_block(args, kwargs, result, span):
        if wait_hook is not None:
            wait_hook(span[1])

    # graphs
    tracer.wrap(BatchSearchEngine, "search_batch", "graphs.engine")
    tracer.wrap(BatchSearchEngine, "_search_block", "graphs.engine_block")
    tracer.wrap(VisitedTable, "filter_unvisited", "graphs.visited_filter")
    tracer.wrap(serving, "greedy_search", "graphs.greedy_search", count_hops)
    tracer.wrap(HNSW, "insert", "graphs.hnsw_insert")
    # serving
    tracer.wrap(serving.EpochView, "neighbors_block", "serving.gather")
    tracer.wrap(serving.EpochManager, "pin", "serving.pin")
    tracer.wrap(serving.EpochManager, "cut", "serving.cut")
    tracer.wrap(serving.MaintenanceScheduler, "run_pending", "serving.repair")
    tracer.wrap(serving.ServingSearcher, "search", "serving.searcher")
    tracer.wrap(serving.ServingSearcher, "search_batch", "serving.searcher")
    # distances
    tracer.wrap(DistanceComputer, "block_to_queries", "distances.kernel",
                count_rows)
    tracer.wrap(DistanceComputer, "to_query", "distances.kernel", count_rows)
    # quantization
    tracer.wrap(ADCComputer, "block_to_queries", "quantization.adc_kernel")
    tracer.wrap(ADCComputer, "to_query", "quantization.adc_kernel")
    tracer.wrap(ADCComputer, "begin_block", "quantization.table")
    tracer.wrap(serving, "visited_shortlist", "quantization.shortlist")
    tracer.wrap(serving, "exact_rerank", "quantization.rerank")
    # core
    tracer.wrap(IndexMaintainer, "insert", "core.insert")
    tracer.wrap(IndexMaintainer, "delete", "core.delete")
    tracer.wrap(IndexMaintainer, "compact", "core.compact")
    tracer.wrap(NGFixer, "fix_query", "core.fix_query", count_edges)
    # durability
    for attr in ("log_insert", "log_delete", "log_observe", "log_merge_cut",
                 "log_build"):
        tracer.wrap(WriteAheadLog, attr, "durability.append")
    tracer.wrap(WriteAheadLog, "_sync_locked", "durability.sync")
    # store
    for attr in ("search", "search_batch", "add", "delete", "observe"):
        tracer.wrap(VectorStore, attr, "store.facade")
    # cluster (router side; shard workers were forked before this runs)
    tracer.wrap(ClusterRouter, "search_batch", "cluster.router_block",
                router_block)
    tracer.wrap(router_module, "scatter_gather", "cluster.scatter_gather")
    tracer.wrap(router_module, "merge_topk_batch", "cluster.merge")
    for module in (resilience, router_module):
        tracer.wrap(module, "send_msg", "cluster.codec", count_rpc)
        tracer.wrap(module, "recv_msg", "cluster.codec")
    tracer.wrap(protocol, "encode", None, count_encoded)
    tracer.wrap(protocol, "decode", None, count_decoded)


def per_layer_metrics(summary: dict, setup_summary: dict, counts: dict,
                      deltas: dict, n_queries: int,
                      overhead: float) -> dict[str, float]:
    """Derive every per-layer metric of one traced run.

    ``summary`` covers the traced measuring phase and ``setup_summary`` the
    traced set-up; ``deltas`` holds program counters read before and after
    the traced phase; ``n_queries`` counts the search requests answered in
    it.  A metric whose layer the workload never exercised reads 0.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def mean_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    def per_kq_ms(seconds):
        return 1e6 * seconds / n_queries if n_queries else 0.0

    def per_query(value):
        return value / n_queries if n_queries else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def setup_s(name):
        return setup_summary.get(name, {}).get("total_s", 0.0)

    return {
        "graphs.engine_self_ms_per_kq": per_kq_ms(
            self_s("graphs.engine") + self_s("graphs.engine_block")),
        "graphs.rounds_per_block": ratio(calls("serving.gather"),
                                         calls("graphs.engine_block")),
        "graphs.visited_filter_ms_per_kq": per_kq_ms(
            total("graphs.visited_filter")),
        "graphs.hops_per_query": per_query(counts.get("hops", 0)),
        "graphs.greedy_search_ms": mean_ms("graphs.greedy_search"),
        "graphs.hnsw_insert_ms": mean_ms("graphs.hnsw_insert"),
        "graphs.hnsw_build_s": setup_s("graphs.hnsw_build"),
        "serving.gather_ms_per_kq": per_kq_ms(total("serving.gather")),
        "serving.pin_us": 1e3 * mean_ms("serving.pin"),
        "serving.pins_per_query": per_query(calls("serving.pin")),
        "serving.cuts": calls("serving.cut"),
        "serving.cut_ms": mean_ms("serving.cut"),
        "serving.repair_ms": mean_ms("serving.repair"),
        "serving.searcher_self_ms_per_kq": per_kq_ms(self_s("serving.searcher")),
        "distances.ndc_per_query": per_query(deltas.get("ndc", 0)),
        "distances.kernel_ms_per_kq": per_kq_ms(total("distances.kernel")),
        "distances.rows_per_call": ratio(counts.get("kernel_rows", 0),
                                         calls("distances.kernel")),
        "quantization.adc_scored_per_query": per_query(
            deltas.get("adc_scored", 0)),
        "quantization.adc_kernel_ms_per_kq": per_kq_ms(
            total("quantization.adc_kernel")),
        "quantization.table_ms_per_kq": per_kq_ms(total("quantization.table")),
        "quantization.shortlist_ms_per_kq": per_kq_ms(
            total("quantization.shortlist")),
        "quantization.rerank_ms_per_kq": per_kq_ms(
            total("quantization.rerank")),
        "quantization.rerank_ndc_per_query": per_query(
            deltas.get("rerank_ndc", 0)),
        "quantization.pq_train_s": setup_s("quantization.pq_train"),
        "core.insert_ms": mean_ms("core.insert"),
        "core.delete_ms": mean_ms("core.delete"),
        "core.compactions": calls("core.compact"),
        "core.compact_ms": mean_ms("core.compact"),
        "core.fix_query_ms": mean_ms("core.fix_query"),
        "core.edges_added_per_observe": ratio(counts.get("edges_added", 0),
                                              deltas.get("observes", 0)),
        "core.fit_s": setup_s("core.fit"),
        "durability.append_us": 1e3 * mean_ms("durability.append"),
        "durability.fsyncs_per_kwrite": ratio(
            1e3 * deltas.get("fsyncs", 0), deltas.get("wal_records", 0)),
        "durability.sync_ms": mean_ms("durability.sync"),
        "durability.wal_bytes_per_user_byte": ratio(
            deltas.get("wal_bytes", 0), deltas.get("user_bytes", 0)),
        "durability.checkpoint_s": setup_s("durability.checkpoint"),
        "store.self_us_per_op": 1e3 * ratio(1e3 * self_s("store.facade"),
                                            calls("store.facade")),
        "cluster.frontdoor_mean_batch": ratio(deltas.get("dispatched", 0),
                                              deltas.get("blocks", 0)),
        "cluster.frontdoor_wait_ms": deltas.get("wait_ms", 0.0),
        "cluster.frontdoor_shed": deltas.get("shed", 0),
        "cluster.router_block_ms": mean_ms("cluster.router_block"),
        "cluster.scatter_gather_ms": mean_ms("cluster.scatter_gather"),
        "cluster.merge_ms": mean_ms("cluster.merge"),
        "cluster.codec_ms": mean_ms("cluster.codec"),
        "cluster.bytes_per_query": per_query(counts.get("bytes", 0)),
        "cluster.worker_cpu_ms_per_query": per_query(
            deltas.get("worker_cpu_ms", 0)),
        "cluster.rpcs_per_query": per_query(counts.get("rpcs", 0)),
        "cluster.retries": deltas.get("retries", 0),
        "cluster.failures": deltas.get("failures", 0),
        "cluster.load_s": setup_s("cluster.load"),
        "trace.overhead": overhead,
    }


def layer_table(summary: dict, wall_s: float) -> list[str]:
    """Layer and span rows: calls, self time and share of the traced wall."""
    layers: dict[str, list] = {}
    for name, entry in summary.items():
        row = layers.setdefault(name.split(".")[0], [0, 0.0, []])
        row[0] += entry["calls"]
        row[1] += entry["self_s"]
        row[2].append((name, entry))
    lines = [f"  {'layer / span':<32}{'calls':>9}{'self ms':>11}{'share':>8}"]
    covered = 0.0
    for layer, (n, self_time, spans) in sorted(layers.items(),
                                               key=lambda kv: -kv[1][1]):
        covered += self_time
        lines.append(f"  {layer:<32}{int(n):>9}{1e3 * self_time:>11.1f}"
                     f"{100 * self_time / wall_s:>7.1f}%")
        for name, entry in sorted(spans, key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"    {name:<30}{int(entry['calls']):>9}"
                         f"{1e3 * entry['self_s']:>11.1f}"
                         f"{100 * entry['self_s'] / wall_s:>7.1f}%")
    lines.append(f"  {'(sum of self times)':<32}{'':>9}{1e3 * covered:>11.1f}"
                 f"{100 * covered / wall_s:>7.1f}%  of {1e3 * wall_s:.1f} ms "
                 "in root spans")
    return lines
