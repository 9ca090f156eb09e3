"""The benchmark workloads.

Each workload is driven through the program's public entry points, the
same ones the CLI uses: :meth:`EvalContext.gcod` and
:meth:`EvalContext.speedups_over_cpu` (train-resgcn),
:func:`repro.sweep.run_sweep` (sweep-dse) and a ``python -m repro serve``
subprocess (serve-mixed). The workload seed drives graph generation,
grid order and the arrival schedule; the program only sees the inputs
generated from it.

A workload has three parts, timed by the runner:

* ``setup(traced)`` — one set-up repetition (graphs, set-up training,
  server start and warm-up). The runner repeats it and reports the median.
* ``measure(seconds, rounds)`` — the timed work, with its output checks.
  Returns a :class:`Measurement`.
* ``close()`` — stop every process the workload started.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import (
    backlog_grows,
    due_times,
    find_max_rate,
    latencies_with_misses,
    median,
    open_loop_latency,
    rung_passes,
    summarize,
    tail_at,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from repro.evaluation import EvalContext  # noqa: E402  (path set by run.py)


class SweepContext(EvalContext):
    """An :class:`EvalContext` with a one-epoch, one-step budget, so the
    sweep's set-up training takes seconds; the timed sweep trains
    nothing."""

    def gcod_config(self):
        return replace(super().gcod_config(), pretrain_epochs=1,
                       retrain_epochs=1, admm_iterations=1,
                       admm_inner_steps=1)


class ResGCNContext(EvalContext):
    """The 28-layer ResGCN budget: two pretraining epochs, one ADMM step
    and one retraining epoch after each sparsification step."""

    def gcod_config(self):
        return replace(super().gcod_config(), pretrain_epochs=2,
                       retrain_epochs=1, admm_iterations=1,
                       admm_inner_steps=1)


@dataclass
class Measurement:
    """What one measured phase produced."""

    result_s: float
    attempted: int
    failed: int
    details: Dict[str, Any] = field(default_factory=dict)
    #: per-layer values measured by the workload itself (trace runs)
    layer: Dict[str, float] = field(default_factory=dict)
    #: RSS of helper processes, MB
    child_rss_mb: float = 0.0
    #: clock reading when the measured work ended (before final checks)
    work_end: float = 0.0
    #: digest of the checked outputs; the same seed must give the same one
    #: with and without tracing
    output_digest: str = ""


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def summary_ok(summary: Dict[str, Any], partitioned_nnz: int,
               final_nnz: int) -> List[str]:
    """Invariant violations of one GCoD run (empty when it is sound)."""
    bad = []
    for key in ("accuracy_pretrain", "accuracy_after_tuning",
                "accuracy_final", "dense_fraction"):
        value = summary[key]
        if not (isinstance(value, float) and 0.0 <= value <= 1.0):
            bad.append(f"{key}={value!r} outside [0, 1]")
    if final_nnz > partitioned_nnz:
        bad.append(f"final nnz {final_nnz} > partitioned {partitioned_nnz}")
    return bad


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.errors: List[str] = []

    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, rounds: Optional[int] = None
                ) -> Measurement:
        raise NotImplementedError

    def remote_spans(self) -> List[Dict[str, Any]]:
        return []

    def close(self) -> None:
        pass


def _keep_going(start: float, seconds: float, done: int,
                rounds: Optional[int], last: float) -> bool:
    """Whether to start another round: a fixed count, or until the next
    round would overrun ``seconds`` (at least one round either way)."""
    if rounds is not None:
        return done < rounds
    if done == 0:
        return True
    return time.perf_counter() - start + last <= seconds


# ---------------------------------------------------------------------------
# train-resgcn
# ---------------------------------------------------------------------------
#: The fig09/fig10 platforms each trained graph is costed on.
PLATFORMS = ("hygcn", "awb-gcn", "gcod", "gcod-8bit")


class TrainResGCN(Workload):
    """Cold GCoD Steps 1-3 of the 28-layer ResGCN (max aggregation) on
    ogbn-arxiv at a reduced scale, each run costed with
    ``speedups_over_cpu``; one round = one run on each of several graphs.

    Generated graphs differ in size from seed to seed (ogbn-arxiv edge
    counts vary by about 9%), so the round averages over
    ``GRAPHS_PER_ROUND`` graphs derived from the run seed.
    """

    name = "train-resgcn"
    DATASET, ARCH, SCALE = "ogbn-arxiv", "resgcn", 0.003
    GRAPHS_PER_ROUND = 5

    def _contexts(self) -> List[EvalContext]:
        """One context per derived graph seed, its graph generated."""
        out = []
        for j in range(self.GRAPHS_PER_ROUND):
            ctx = ResGCNContext(seed=self.seed * self.GRAPHS_PER_ROUND + j)
            ctx.dataset_scales = {self.DATASET: self.SCALE}
            ctx.graph(self.DATASET)
            out.append(ctx)
        return out

    def setup(self, traced: bool = False) -> None:
        # Graph generation plus one training epoch, so lazy imports and the
        # allocator's first growth happen before timing.
        from repro.nn import build_model, train_model

        graph = self._contexts()[0].graph(self.DATASET)
        train_model(build_model(self.ARCH, graph, rng=self.seed), graph,
                    epochs=1)

    def measure(self, seconds, rounds=None):
        round_s: List[float] = []
        run_s: List[float] = []
        digests = set()
        attempted = failed = 0
        start = time.perf_counter()
        while _keep_going(start, seconds, len(round_s), rounds,
                          round_s[-1] if round_s else 0.0):
            contexts = self._contexts()  # graphs made outside the timing
            outputs = []
            t_round = time.perf_counter()
            for ctx in contexts:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = ctx.gcod(self.DATASET, self.ARCH)
                    speedups = ctx.speedups_over_cpu(self.DATASET, self.ARCH,
                                                     PLATFORMS)
                except Exception as exc:  # counted, reported, not raised
                    failed += 1
                    self.errors.append(f"seed {ctx.seed}: "
                                       f"{type(exc).__name__}: {exc}")
                    continue
                run_s.append(time.perf_counter() - t0)
                summary = result.to_summary_dict()
                bad = summary_ok(summary, result.partitioned_graph.adj.nnz,
                                 result.final_graph.adj.nnz)
                bad += [f"speedup[{k}]={v!r}" for k, v in speedups.items()
                        if not (math.isfinite(v) and v > 0)]
                if bad:
                    failed += 1
                    self.errors.append(f"seed {ctx.seed}: {bad}")
                outputs.append((summary, speedups))
            round_s.append(time.perf_counter() - t_round)
            digests.add(digest(outputs))
        work_end = time.perf_counter()
        if len(digests) > 1:
            failed += 1
            self.errors.append(f"rounds disagree: {sorted(digests)}")
        return Measurement(
            result_s=sum(round_s) / len(round_s),
            attempted=attempted, failed=failed,
            work_end=work_end, output_digest=",".join(sorted(digests)),
            details={"round_s": round_s, "run_s": run_s,
                     "runs_per_round": self.GRAPHS_PER_ROUND},
        )


# ---------------------------------------------------------------------------
# sweep-dse
# ---------------------------------------------------------------------------
#: Graph scales of the sweep. At 0.5 the hardware model's array work, not
#: interpreter overhead, carries a point, and round times drifted about a
#: third as much with the host's speed as at 0.1 (5% against 17%).
SWEEP_SCALES = {"cora": 0.5, "citeseer": 0.5}


class SweepDSE(Workload):
    """``run_sweep(jobs=1)`` over single-model and workload-DAG grids into
    a fresh store, with every training dependency warmed in set-up."""

    name = "sweep-dse"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from repro.sweep import SweepSpec

        rng = random.Random(seed)

        def shuffled(values):
            values = list(values)
            rng.shuffle(values)
            return tuple(values)

        hw = {"bits": shuffled((8, 32)),
              "hw_scale": shuffled((0.5, 1.0, 2.0)),
              "tech_node": shuffled((7, 16, 28))}
        self.specs = (
            SweepSpec(name="bench-single", title="single-model points",
                      axes={"dataset": shuffled(("cora", "citeseer")),
                            **hw}),
            SweepSpec(name="bench-dag", title="workload-DAG points",
                      axes={"workload": shuffled(
                          ("cora/gcn+citeseer/gat",
                           "cora/gcn>citeseer/gcn")), **hw}),
        )
        self.trained_store: Optional[str] = None
        self._n = 0

    def _context(self, root: str) -> EvalContext:
        from repro.runtime.store import ArtifactStore

        ctx = SweepContext(seed=self.seed, store=ArtifactStore(root))
        ctx.dataset_scales = dict(SWEEP_SCALES)
        return ctx

    def _fresh_dir(self, tag: str) -> str:
        self._n += 1
        return os.path.join(self.workdir, f"{tag}-{self._n}")

    def setup(self, traced=False):
        from repro.runtime.runner import warm_tasks
        from repro.sweep import plan_sweep

        root = self._fresh_dir("trained")
        ctx = self._context(root)
        for spec in self.specs:
            warm_tasks(plan_sweep(ctx, spec).tasks, ctx)
        if self.trained_store is not None:
            shutil.rmtree(self.trained_store, ignore_errors=True)
        self.trained_store = root

    def _round(self, root: str):
        from repro.sweep import run_sweep, sweep_report_text

        ctx = self._context(root)
        texts, results, point_ms, evaluated = [], [], [], 0
        marks: List[float] = []

        def progress(msg: str) -> None:
            now = time.perf_counter()
            if msg.lstrip().startswith("[") and marks:
                point_ms.append((now - marks[-1]) * 1e3)
            marks.append(now)

        t0 = time.perf_counter()
        for spec in self.specs:
            report = run_sweep(ctx, spec, jobs=1, progress=progress)
            texts.append(sweep_report_text(spec, report.results))
            results.extend(report.results)
            evaluated += report.points_evaluated
            marks.clear()
        return time.perf_counter() - t0, texts, results, point_ms, evaluated

    def measure(self, seconds, rounds=None):
        round_s, digests = [], set()
        op_ms: Dict[int, List[float]] = {}
        attempted = failed = points = 0
        texts: List[str] = []
        results: list = []
        root = None
        start = time.perf_counter()
        while _keep_going(start, seconds, len(round_s), rounds,
                          round_s[-1] if round_s else 0.0):
            # A fresh store holding the trained pipelines: hard links, so
            # no pipeline bytes are rewritten between rounds (the store
            # only ever replaces files, never edits them in place). Round
            # stores are removed with the scratch directory, after timing.
            root = self._fresh_dir("round")
            shutil.copytree(self.trained_store, root, copy_function=os.link)
            try:
                wall, texts, results, ms, evaluated = self._round(root)
            except Exception as exc:  # counted, reported, not raised
                failed += 1
                attempted += 1
                self.errors.append(f"sweep round: {type(exc).__name__}: "
                                   f"{exc}")
                break
            round_s.append(wall)
            for i, value in enumerate(ms):
                op_ms.setdefault(i, []).append(value)
            attempted += len(results)
            points += len(results)
            bad = [r for r in results if not (
                math.isfinite(r.speedup_vs_awb) and r.speedup_vs_awb > 0
                and r.gcod_latency_s > 0)]
            if evaluated != len(results) or bad:
                failed += max(len(bad), 1)
                self.errors.append(f"round: {evaluated} evaluated of "
                                   f"{len(results)}, {len(bad)} bad")
            digests.add(digest(texts))
        layer = {}
        work_end = time.perf_counter()
        if root is not None and round_s:
            failed += self._check_warm(root, texts)
            layer["hardware.sim_cycles"] = float(
                sum(r.agg_sim_cycles for r in results))
        if len(digests) > 1:
            failed += 1
            self.errors.append(f"rounds disagree: {sorted(digests)}")
        return Measurement(
            result_s=sum(round_s) / len(round_s) if round_s else math.inf,
            attempted=max(attempted, 1), failed=failed,
            layer=layer, work_end=work_end,
            output_digest=",".join(sorted(digests)),
            details={"round_s": round_s,
                     "points_per_round": points // max(len(round_s), 1),
                     "sweep_points_per_s": (points / sum(round_s)
                                            if round_s else 0.0),
                     "point_ms": summarize(
                         [median(v) for v in op_ms.values()]),
                     "paper": paper_comparison(results)},
        )

    def _check_warm(self, root: str, cold_texts: Sequence[str]) -> int:
        """A warm re-run evaluates nothing and prints the same bytes."""
        from repro.sweep import run_sweep, sweep_report_text

        ctx = self._context(root)
        failed = 0
        for spec, cold in zip(self.specs, cold_texts):
            report = run_sweep(ctx, spec, jobs=1)
            warm = sweep_report_text(spec, report.results)
            if report.points_evaluated != 0 or warm != cold:
                failed += 1
                self.errors.append(
                    f"warm re-run of {spec.name}: "
                    f"{report.points_evaluated} evaluated, "
                    f"text {'same' if warm == cold else 'differs'}")
        return failed


def paper_comparison(results) -> Dict[str, Any]:
    """Simulated GCoD speedup over AWB-GCN and bandwidth relative to HyGCN
    beside the paper's values (evaluation/reference.py), single-model
    points at the default design. Fast-profile scale; never gated."""
    from repro.evaluation.reference import (
        ABLATION_SPEEDUP_OVER_AWB,
        BANDWIDTH_VS_HYGCN,
    )

    out: Dict[str, Any] = {"scale": "fast-profile, reduced epoch budget; "
                                    "not gated"}
    for bits, paper_key in ((32, "gcod"), (8, "gcod-8bit")):
        pts = [r for r in results if r.bits == bits and r.hw_scale == 1.0
               and r.tech_node == 16 and r.coord("workload") is None]
        if not pts:
            continue
        out[f"{bits}bit"] = {
            "speedup_vs_awb": [round(r.speedup_vs_awb, 4) for r in pts],
            "paper_speedup_vs_awb_range": list(ABLATION_SPEEDUP_OVER_AWB),
            "bandwidth_vs_hygcn": [
                round(1.0 - r.bw_reduction_vs_hygcn, 4) for r in pts],
            "paper_bandwidth_vs_hygcn": BANDWIDTH_VS_HYGCN[paper_key],
        }
    return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
#: Generation scales the server runs with (small, so a cold key trains in
#: about a second).
SERVE_SCALES = "cora=0.1,citeseer=0.1"
#: Keys trained in set-up; warm queries pick among them.
WARM_KEYS = (("cora", "gcn", None), ("citeseer", "gcn", None))
#: Untrained keys the mixed phase asks for, each once per run in a seeded
#: order and at seeded positions: the same set every run, so the cold
#: latency does not depend on which keys a seed happened to pick.
COLD_KEYS = (("cora", "gin", None), ("cora", "sage", None),
             ("cora", "gin", "tiled"), ("cora", "gat", None))
#: The base warm rate (queries/s): the first rung of the rate search, and
#: the rate of the mixed phase.
BASE_RATE = 200.0
#: Tail-latency limit for max_warm_qps, ms: generous next to the ~3-10 ms
#: median, so a rung fails when the server falls behind rather than on a
#: single scheduling stall of the host.
WARM_LIMIT_MS = 100.0
WARMUP_QUERIES = 200


class ServerProcess:
    """A ``repro serve`` subprocess on a free port (optionally traced)."""

    def __init__(self, store: str, seed: int, spans_out: Optional[str],
                 log_path: str):
        args = ["--cache-dir", store, "serve", "--port", "0",
                "--seed", str(seed), "--dataset-scale", SERVE_SCALES]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   "--spans-out", spans_out, "--"] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env)
        self.port = self._wait_listening(timeout=60.0)

    def _wait_listening(self, timeout: float) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    continue
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.split("listening on")[1].split()[0]
                               .rsplit(":", 1)[1])
        finally:
            sel.close()
        self.stop()
        raise RuntimeError("repro serve did not start")

    def _status(self, field: str) -> int:
        """An integer field of the server's /proc status (0 once gone)."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith(field + ":"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def peak_rss_mb(self) -> float:
        return self._status("VmHWM") / 1024.0  # the field is in KiB

    def threads(self) -> int:
        return self._status("Threads")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()
        self.log.close()


@dataclass
class Sent:
    rid: str
    key: Tuple[str, str, Optional[str]]
    cold: bool
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    response: Optional[Dict[str, Any]] = None


class LoadClient:
    """Open-loop NDJSON client: one connection, one thread, pipelined."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.sock, selectors.EVENT_READ)
        self.buf = b""
        self.pending: Dict[str, Sent] = {}
        self._ids = 0

    def request(self, key, cold: bool, due: float) -> Sent:
        self._ids += 1
        return Sent(f"q{self._ids}", key, cold, due)

    def _send(self, item: Sent) -> None:
        dataset, arch, backend = item.key
        payload = {"id": item.rid, "op": "query", "dataset": dataset,
                   "arch": arch}
        if backend is not None:
            payload["kernel_backend"] = backend
        item.sent = time.perf_counter()
        self.pending[item.rid] = item
        self.sock.sendall((json.dumps(payload) + "\n").encode())

    def _receive(self, timeout: float) -> None:
        if not self.sel.select(timeout=max(0.0, timeout)):
            return
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        for line in lines:
            if not line.strip():
                continue
            response = json.loads(line)
            item = self.pending.pop(response.get("id"), None)
            if item is not None:
                item.done = now
                item.response = response

    def run(self, schedule: Sequence[Sent], drain_s: float = 30.0
            ) -> List[int]:
        """Send each request at its due time; returns the outstanding
        count sampled at every arrival. Waits up to ``drain_s`` after the
        last send for the replies."""
        outstanding: List[int] = []
        i = 0
        while i < len(schedule):
            now = time.perf_counter()
            while i < len(schedule) and schedule[i].due <= now:
                self._send(schedule[i])
                outstanding.append(len(self.pending))
                i += 1
            if i < len(schedule):
                self._receive(min(schedule[i].due - time.perf_counter(),
                                  0.05))
        deadline = time.perf_counter() + drain_s
        while self.pending and time.perf_counter() < deadline:
            self._receive(min(0.05, deadline - time.perf_counter()))
        return outstanding

    def close(self) -> None:
        self.sel.close()
        self.sock.close()


class ServeMixed(Workload):
    """Open loop against ``repro serve``: a search for the highest
    sustained warm rate, then a fixed-rate phase in which the
    ``COLD_KEYS`` arrive at seeded positions, one per slice of the
    phase."""

    name = "serve-mixed"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        self.server: Optional[ServerProcess] = None
        self.store: Optional[str] = None
        self.spans_files: List[str] = []
        self._n = 0
        self.sent: List[Sent] = []
        self.server_rss_mb = 0.0
        self.server_threads = 0

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server_rss_mb = max(self.server_rss_mb,
                                     self.server.peak_rss_mb())
            self.server.stop()
            self.server = None

    def setup(self, traced=False):
        self._stop_server()
        self._n += 1
        self.store = os.path.join(self.workdir, f"store-{self._n}")
        spans_out = None
        if traced:
            spans_out = os.path.join(self.workdir, f"spans-{self._n}.json")
            self.spans_files.append(spans_out)
        self.server = ServerProcess(self.store, self.seed, spans_out,
                                    os.path.join(self.workdir, "serve.log"))
        client = LoadClient(self.server.port)
        try:
            # Train the warm keys (cold queries), then warm the memo.
            now = time.perf_counter()
            client.run([client.request(k, True, now) for k in WARM_KEYS],
                       drain_s=120.0)
            now = time.perf_counter()
            warmup = [client.request(WARM_KEYS[i % len(WARM_KEYS)], False,
                                     now) for i in range(WARMUP_QUERIES)]
            client.run(warmup, drain_s=30.0)
        finally:
            client.close()
        if any(s.response is None or s.response.get("status") != "ok"
               for s in warmup):
            raise RuntimeError("serve warm-up failed")

    def _warm_key(self):
        return WARM_KEYS[self.rng.randrange(len(WARM_KEYS))]

    def _phase(self, client: LoadClient, rate: float, seconds: float,
               cold_keys: Sequence = ()) -> Tuple[List[Sent], List[int]]:
        count = max(1, int(round(rate * seconds)))
        start = time.perf_counter() + 0.05
        dues = due_times(start, rate, count)
        # Cold arrivals: one per equal slice of the phase, at a seeded
        # position in the slice's first tenth, so each trains alone.
        cold_at = {}
        for j, key in enumerate(cold_keys):
            lo = j * count // len(cold_keys)
            span = max(1, count // len(cold_keys) // 10)
            cold_at[lo + self.rng.randrange(span)] = key
        schedule = [client.request(cold_at[i], True, due) if i in cold_at
                    else client.request(self._warm_key(), False, due)
                    for i, due in enumerate(dues)]
        outstanding = client.run(schedule, drain_s=60.0)
        self.sent.extend(schedule)
        return schedule, outstanding

    @staticmethod
    def _latency_ms(items: Sequence[Sent]) -> List[float]:
        out = []
        for s in items:
            ok = s.response is not None and s.response.get("status") == "ok"
            latency, _ = open_loop_latency(s.due, s.sent,
                                           s.done if ok else None)
            out.append(latency)
        return [x * 1e3 for x in latencies_with_misses(out)]

    def measure(self, seconds, rounds=None):
        client = LoadClient(self.server.port)
        steps: List[Dict[str, Any]] = []
        # Every rung sends as many queries as the base rung (a sixth of the
        # run), so the same tail percentile is judged on each.
        arrivals = max(1, int(round(BASE_RATE * seconds / 6.0)))

        def rung(rate: float) -> Tuple[List[float], bool]:
            schedule, outstanding = self._phase(client, rate,
                                                arrivals / rate)
            ms = self._latency_ms(schedule)
            value, label = tail_at(ms, 99.0)
            grows = backlog_grows(outstanding, len(schedule))
            steps.append({"rate": rate, "tail_ms": value,
                          "tail_label": label, "n": len(ms),
                          "backlog_grows": grows})
            return ms, rung_passes(value, grows, WARM_LIMIT_MS)

        try:
            base_ms, base_ok = rung(BASE_RATE)
            max_qps = (find_max_rate(lambda rate: rung(rate)[1], BASE_RATE)
                       if base_ok else 0.0)
            cold = list(COLD_KEYS)
            self.rng.shuffle(cold)
            schedule, _ = self._phase(client, BASE_RATE, seconds / 2.0,
                                      cold)
        finally:
            client.close()
        work_end = time.perf_counter()
        mixed_warm = self._latency_ms([s for s in schedule if not s.cold])
        cold_s = [x / 1e3 for x in
                  self._latency_ms([s for s in schedule if s.cold])]
        lags = [max(0.0, s.sent - s.due) * 1e3 for s in self.sent]
        warm_p99, warm_label = tail_at(base_ms, 99.0)
        mixed_p99, mixed_label = tail_at(mixed_warm, 99.0)
        self.server_threads = max(self.server_threads,
                                  self.server.threads())
        child_rss = max(self.server_rss_mb, self.server.peak_rss_mb())
        attempted = len(self.sent)
        failed, output_digest = self._check(self.sent)
        self.sent = []
        return Measurement(
            result_s=median(cold_s),
            attempted=attempted, failed=failed, child_rss_mb=child_rss,
            work_end=work_end, output_digest=output_digest,
            layer={"serve.max_warm_qps": max_qps,
                   "serve.gen_lag_ms.p99": tail_at(lags, 99.0)[0],
                   "serve.warm_p50_ms": median(base_ms),
                   "serve.warm_p99_ms": warm_p99,
                   "serve.mixed_warm_p99_ms": mixed_p99},
            details={"rate_steps": steps, "warm_limit_ms": WARM_LIMIT_MS,
                     "max_warm_qps": max_qps,
                     "warm_p50_ms": median(base_ms), "warm_p99_ms": warm_p99,
                     "warm_tail_label": warm_label, "warm_n": len(base_ms),
                     "mixed_warm_p99_ms": mixed_p99,
                     "mixed_tail_label": mixed_label,
                     "mixed_warm_n": len(mixed_warm),
                     "cold_p50_s": median(cold_s), "cold_n": len(cold_s),
                     "cold_s": cold_s,
                     "gen_lag_ms_p99": tail_at(lags, 99.0)[0],
                     "server_threads": self.server_threads},
        )

    def _check(self, sent: Sequence[Sent]) -> Tuple[int, str]:
        """Every reply is ok and equals its key's stored run summary.
        Returns the failure count and a digest of the replies."""
        from repro.runtime.store import ArtifactStore

        failed = 0
        expected: Dict[Tuple, Any] = {}
        outputs = {}
        for s in sent:
            response = s.response
            if response is None or response.get("status") != "ok":
                failed += 1
                self.errors.append(f"{s.rid} {s.key}: "
                                   f"{response and response.get('error')}")
                continue
            if s.key not in expected:
                dataset, arch, backend = s.key
                ctx = EvalContext(profile="fast", seed=self.seed,
                                  kernel_backend=backend,
                                  store=ArtifactStore(self.store))
                ctx.dataset_scales = {
                    k: float(v) for k, v in
                    (p.split("=") for p in SERVE_SCALES.split(","))}
                stored = ctx.store.get(ctx.gcod_store_key(dataset, arch))
                expected[s.key] = (None if stored is None else json.loads(
                    json.dumps(stored.to_summary_dict())))
            if response.get("result") != expected[s.key]:
                failed += 1
                self.errors.append(f"{s.rid} {s.key}: result differs from "
                                   "the stored run")
            outputs[str(s.key)] = response.get("result")
        return failed, digest(outputs)

    def remote_spans(self):
        self._stop_server()  # the launcher writes its spans on exit
        out = []
        for path in self.spans_files:
            if os.path.exists(path):
                with open(path) as fh:
                    out.extend(json.load(fh))
        return out

    def close(self):
        self._stop_server()


WORKLOADS = {cls.name: cls for cls in
             (TrainResGCN, SweepDSE, ServeMixed)}
