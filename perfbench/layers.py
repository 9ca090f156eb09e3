"""The traced layers: what is wrapped, what each layer should move, and
the per-layer metrics computed from the recorded spans.

``TARGETS`` names the program's public entry points the traced run wraps
(span name -> ``module:function`` or ``module:Class.method``).
``LAYER_MAP`` records, for every per-layer metric group, the end-to-end
metric and workload it is expected to move; later changes cite these
names. ``per_layer_metrics`` turns spans into the metrics listed under
``per_layer`` in BENCHMARK.json.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import Span, Target, claimed_time, self_times
from stats import percentile, tail_at


def _nbytes(*arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


def _spmm_attrs(args, kwargs, result):
    # (self, a, b): sparse operand a, dense b; bytes from tensor shapes.
    a, b = args[1], args[2]
    width = b.shape[1] if getattr(b, "ndim", 1) > 1 else 1
    nnz = len(a.data)
    return {"macs": nnz * width,
            "bytes": _nbytes(a.data, a.indices, a.indptr, b, result)}


def _coo_spmm_attrs(args, kwargs, result):
    # (self, weights, rows, cols, x, num_rows)
    weights, rows, cols, x = args[1:5]
    width = x.shape[1] if x.ndim > 1 else 1
    return {"macs": len(weights) * width,
            "bytes": _nbytes(weights, rows, cols, x, result)}


TARGETS: Tuple[Target, ...] = (
    Target("graphs.load_dataset", "repro.graphs.datasets:load_dataset"),
    Target("partition.partition_graph",
           "repro.partition.layout:partition_graph"),
    Target("nn.train_model", "repro.nn.training:train_model",
           lambda a, k, r: {"epochs": r.epochs_run}),
    Target("nn.forward", "repro.nn.models.base:GNNModel.forward",
           subclasses=True),
    Target("nn.backward", "repro.nn.tensor:Tensor.backward"),
    Target("nn.dropout", "repro.nn.functional:dropout"),
    Target("nn.gather_rows", "repro.nn.functional:gather_rows"),
    Target("nn.edge_spmm", "repro.nn.functional:edge_spmm"),
    Target("nn.matmul", "repro.nn.tensor:matmul"),
    Target("nn.segment_softmax", "repro.nn.functional:segment_softmax"),
    Target("nn.segment_max", "repro.nn.functional:segment_max",
           lambda a, k, r: {"elems": int(a[0].data.size)}),
    Target("sparse.spmm", "repro.sparse.kernels:KernelBackend.spmm",
           _spmm_attrs, subclasses=True),
    Target("sparse.spmm",
           "repro.sparse.kernels:KernelBackend.spmm_row_product",
           _spmm_attrs, subclasses=True),
    Target("sparse.spmm",
           "repro.sparse.kernels:KernelBackend.spmm_column_product",
           _spmm_attrs, subclasses=True),
    Target("sparse.spmm", "repro.sparse.kernels:KernelBackend.coo_spmm",
           _coo_spmm_attrs, subclasses=True),
    Target("algorithm.run_gcod", "repro.algorithm.pipeline:GCoDTrainer.run",
           lambda a, k, r: {"kept": r.final_graph.adj.nnz
                            / max(r.partitioned_graph.adj.nnz, 1)}),
    Target("algorithm.admm",
           "repro.algorithm.admm:admm_sparsify_polarize"),
    Target("algorithm.structural",
           "repro.algorithm.structural:structural_sparsify"),
    Target("evaluation.gcod", "repro.evaluation.context:EvalContext.gcod"),
    Target("evaluation.speedups",
           "repro.evaluation.context:EvalContext.speedups_over_cpu"),
    Target("hardware.extract_workload",
           "repro.hardware.workload:extract_workload"),
    Target("hardware.platform_run",
           "repro.hardware.accelerators.base:Accelerator.run",
           subclasses=True),
    Target("hardware.event_sim",
           "repro.hardware.event_sim:EventDrivenAggregator.run",
           lambda a, k, r: {"events": r.events_processed,
                            "cycles": float(r.cycles)}),
    Target("hardware.evaluate_workload",
           "repro.hardware.pipeline:evaluate_workload"),
    Target("sweep.run", "repro.sweep.engine:run_sweep",
           lambda a, k, r: {"evaluated": r.points_evaluated,
                            "hits": len(r.cache_hits),
                            "points": len(r.results)}),
    Target("sweep.plan", "repro.sweep.engine:plan_sweep"),
    *(Target("sweep.aggregate", f"repro.sweep.aggregate:{fn}")
      for fn in ("sweep_report_text", "long_form_result", "pareto_result",
                 "pareto_frontier", "seed_variance_result")),
    *(Target("runtime.keys", f"repro.runtime.keys:{fn}")
      for fn in ("make_key", "stable_hash", "canonical_json", "graph_key",
                 "gcod_key", "trace_key", "sweep_point_key",
                 "sweep_manifest_key", "experiment_key")),
    Target("runtime.store_put", "repro.runtime.store:ArtifactStore.put"),
    Target("runtime.store_get", "repro.runtime.store:ArtifactStore.get",
           lambda a, k, r: {"hit": r is not None}),
    Target("runtime.blob_write",
           "repro.runtime.backends:LocalDirBackend.write",
           lambda a, k, r: {"bytes": len(a[3])}),
    Target("runtime.blob_read",
           "repro.runtime.backends:LocalDirBackend.read",
           lambda a, k, r: {"bytes": len(r) if r is not None else 0}),
    Target("serve.handle", "repro.serve.service:InferenceService.handle",
           lambda a, k, r: {"op": r.op, "status": r.status,
                            "source": r.source, "batch_id": r.batch_id}),
    Target("serve.compute",
           "repro.serve.service:InferenceService._warm_summary",
           bind_request=True),
    Target("serve.compute",
           "repro.serve.service:InferenceService._train_summary",
           bind_request=True),
)

#: Span layers reported with busy (``.s``) and self (``.self_s``) time.
SPAN_LAYERS = (
    "graphs.load_dataset", "partition.partition_graph", "nn.train_model",
    "nn.forward", "nn.backward", "nn.dropout", "nn.gather_rows",
    "nn.edge_spmm", "nn.matmul", "nn.segment_softmax", "nn.segment_max",
    "sparse.spmm", "algorithm.run_gcod", "algorithm.admm",
    "algorithm.structural", "evaluation.gcod", "evaluation.speedups",
    "hardware.extract_workload", "hardware.platform_run",
    "hardware.event_sim", "hardware.evaluate_workload", "sweep.run",
    "sweep.plan", "sweep.aggregate", "runtime.keys", "runtime.store_put",
    "runtime.store_get", "serve.handle", "serve.compute",
)

#: Layers whose call counts are reported (``.calls``).
COUNTED_LAYERS = (
    "nn.segment_max", "sparse.spmm", "hardware.extract_workload",
    "hardware.platform_run", "hardware.event_sim", "runtime.keys",
    "algorithm.run_gcod",
)

#: Timing end-to-end metrics whose traced/untraced ratio is reported.
OVERHEAD_METRICS = ("setup_s", "result_s")

#: For each layer: its per-layer metrics, the end-to-end metric it should
#: move, on which workloads, and what it should read elsewhere. Kept here
#: because BENCHMARK.json's keys are fixed by its schema; later changes
#: cite these names.
LAYER_MAP: Tuple[Dict[str, Any], ...] = (
    {"layer": "segment kernels",
     "metrics": ["nn.segment_max.s", "nn.segment_max.calls",
                 "nn.segment_max.elems", "nn.backward.s"],
     "moves": "result_s (train_s)", "workloads": ["train-resgcn"],
     "expect": "nn.segment_max.* is 0 on sweep-dse and serve-mixed"},
    {"layer": "training loop",
     "metrics": ["nn.train_model.s", "nn.forward.s", "nn.dropout.s",
                 "nn.gather_rows.s", "nn.edge_spmm.s", "nn.matmul.s",
                 "nn.segment_softmax.s"],
     "moves": "result_s (train_s on train-resgcn, cold_p50_s on "
              "serve-mixed)",
     "workloads": ["train-resgcn", "serve-mixed"]},
    {"layer": "sparse kernels",
     "metrics": ["sparse.spmm.s", "sparse.spmm.calls", "sparse.spmm.macs",
                 "sparse.spmm.bytes"],
     "moves": "result_s (cold_p50_s)", "workloads": ["serve-mixed"]},
    {"layer": "GCoD steps",
     "metrics": ["partition.partition_graph.s", "algorithm.admm.s",
                 "algorithm.structural.s", "algorithm.step1_s",
                 "algorithm.step2_s", "algorithm.step3_s",
                 "algorithm.epochs_run", "algorithm.kept_edge_frac"],
     "moves": "result_s (train_s; cold_p50_s)",
     "workloads": ["train-resgcn", "serve-mixed"]},
    {"layer": "hardware model",
     "metrics": ["hardware.extract_workload.s",
                 "hardware.extract_workload.calls",
                 "hardware.platform_run.s", "hardware.platform_run.calls",
                 "hardware.event_sim.s", "hardware.event_sim.events",
                 "hardware.event_sim.us_per_event",
                 "hardware.evaluate_workload.s", "hardware.sim_cycles"],
     "moves": "result_s (seconds per grid)", "workloads": ["sweep-dse"],
     "expect": "under 1% of train-resgcn; hardware.sim_cycles must stay "
               "identical under any host-only change"},
    {"layer": "sweep driver",
     "metrics": ["sweep.plan.s", "sweep.aggregate.s",
                 "sweep.points_evaluated", "sweep.store_hit_ratio"],
     "moves": "result_s (seconds per grid)", "workloads": ["sweep-dse"]},
    {"layer": "runtime store and keys",
     "metrics": ["runtime.keys.s", "runtime.keys.calls",
                 "runtime.store_put.s", "runtime.store_put.bytes",
                 "runtime.store_get.s", "runtime.store_get.bytes"],
     "moves": "result_s on sweep-dse, setup_s everywhere, result_s "
              "(cold_p50_s) on serve-mixed",
     "workloads": ["sweep-dse", "serve-mixed"]},
    {"layer": "serve",
     "metrics": ["serve.handle_ms.p50", "serve.handle_ms.p99",
                 "serve.queue_wait_ms.p99", "serve.warm_hit_ratio",
                 "serve.requests_per_dispatch", "serve.gen_lag_ms.p99"],
     "moves": "serve.max_warm_qps, serve.warm_p50_ms, "
              "serve.warm_p99_ms and serve.mixed_warm_p99_ms",
     "workloads": ["serve-mixed"],
     "expect": "serve.queue_wait_ms.p99 accounts for the gap between "
               "serve.mixed_warm_p99_ms and serve.warm_p99_ms"},
    {"layer": "graphs",
     "metrics": ["graphs.load_dataset.s"],
     "moves": "setup_s", "workloads": ["all"]},
)


def _sum_attr(spans: Sequence[Span], name: str, key: str) -> float:
    return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))


def _steps(spans: Sequence[Span]) -> Tuple[float, float, float]:
    """Per-step host time of every GCoD run, summed over runs.

    Step 1 runs from the pipeline start to ADMM, step 2 from ADMM to the
    structural sparsification, step 3 from there to the pipeline end.
    """
    by_parent: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)

    def first_descendant(sid: int, name: str) -> Optional[Span]:
        todo, found = [sid], []
        while todo:
            for child in by_parent.get(todo.pop(), ()):
                if child.name == name:
                    found.append(child)
                todo.append(child.sid)
        return min(found, key=lambda s: s.start) if found else None

    step1 = step2 = step3 = 0.0
    for run in (s for s in spans if s.name == "algorithm.run_gcod"):
        admm = first_descendant(run.sid, "algorithm.admm")
        structural = first_descendant(run.sid, "algorithm.structural")
        if admm is None or structural is None:
            continue
        step1 += admm.start - run.start
        step2 += structural.start - admm.start
        step3 += run.end - structural.start
    return step1, step2, step3


def serve_request_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Server-side request metrics from ``serve.handle`` spans."""
    queries = [s for s in spans if s.name == "serve.handle"
               and s.attrs.get("op") == "query"]
    out = {"serve.handle_ms.p50": 0.0, "serve.handle_ms.p99": 0.0,
           "serve.queue_wait_ms.p99": 0.0, "serve.warm_hit_ratio": 0.0,
           "serve.requests_per_dispatch": 0.0}
    if not queries:
        return out
    handle_ms = [s.duration * 1e3 for s in queries]
    out["serve.handle_ms.p50"] = percentile(handle_ms, 50.0)
    out["serve.handle_ms.p99"] = tail_at(handle_ms, 99.0)[0]
    gcod_by_request: Dict[int, float] = {}
    for s in spans:
        if s.name == "evaluation.gcod" and s.request is not None:
            gcod_by_request[s.request] = (gcod_by_request.get(s.request, 0.0)
                                          + s.duration)
    warm = [s for s in queries if s.attrs.get("source") == "warm"]
    if warm:
        waits = [(s.duration - gcod_by_request.get(s.sid, 0.0)) * 1e3
                 for s in warm]
        out["serve.queue_wait_ms.p99"] = tail_at(waits, 99.0)[0]
    out["serve.warm_hit_ratio"] = len(warm) / len(queries)
    cold = [s for s in queries if s.attrs.get("source") == "cold"]
    dispatches = {s.attrs.get("batch_id") for s in cold}
    if dispatches:
        out["serve.requests_per_dispatch"] = len(cold) / len(dispatches)
    return out


def per_layer_metrics(spans: Sequence[Span],
                      window: Tuple[float, float]) -> Dict[str, float]:
    """Busy/self time, counts and ratios per layer, plus the share of
    ``window`` that no root span claims."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        mine = [s for s in spans if s.name == layer]
        out[f"{layer}.s"] = float(sum(s.duration for s in mine))
        out[f"{layer}.self_s"] = float(sum(selfs[s.sid] for s in mine))
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = float(sum(1 for s in spans
                                          if s.name == layer))
    out["nn.segment_max.elems"] = _sum_attr(spans, "nn.segment_max", "elems")
    out["sparse.spmm.macs"] = _sum_attr(spans, "sparse.spmm", "macs")
    out["sparse.spmm.bytes"] = _sum_attr(spans, "sparse.spmm", "bytes")
    step1, step2, step3 = _steps(spans)
    out["algorithm.step1_s"] = step1
    out["algorithm.step2_s"] = step2
    out["algorithm.step3_s"] = step3
    out["algorithm.epochs_run"] = _sum_attr(spans, "nn.train_model",
                                            "epochs")
    runs = [s for s in spans if s.name == "algorithm.run_gcod"]
    out["algorithm.kept_edge_frac"] = (
        sum(s.attrs["kept"] for s in runs) / len(runs) if runs else 0.0)
    events = _sum_attr(spans, "hardware.event_sim", "events")
    out["hardware.event_sim.events"] = events
    out["hardware.event_sim.us_per_event"] = (
        out["hardware.event_sim.s"] / events * 1e6 if events else 0.0)
    out["hardware.sim_cycles"] = _sum_attr(spans, "hardware.event_sim",
                                           "cycles")
    out["sweep.points_evaluated"] = _sum_attr(spans, "sweep.run",
                                              "evaluated")
    gets = [s for s in spans if s.name == "runtime.store_get"]
    out["sweep.store_hit_ratio"] = (
        sum(1 for s in gets if s.attrs.get("hit")) / len(gets)
        if gets else 0.0)
    out["runtime.store_put.bytes"] = _sum_attr(spans, "runtime.blob_write",
                                               "bytes")
    out["runtime.store_get.bytes"] = _sum_attr(spans, "runtime.blob_read",
                                               "bytes")
    out.update(serve_request_metrics(spans))
    wall = window[1] - window[0]
    out["trace.wall_s"] = wall
    out["trace.unclaimed_frac"] = (
        1.0 - claimed_time(spans, window) / wall if wall > 0 else 0.0)
    return out
