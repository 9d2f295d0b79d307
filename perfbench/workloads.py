"""The benchmark's two collection-round workloads, and its probes.

Every workload builds its inputs from the seed before anything is timed,
then runs closed-loop rounds through the library's public API. A round
returns its timings plus the outputs the correctness gate checks; the
gate runs after the round, outside every timer and every trace patch.

* ``sparse-numeric`` — piecewise over ``gaussian_dataset`` with
  ``m ≪ d``: records → ``LDPClient.report_batch`` → ``LDPClient.encode``
  → ``LDPServer.ingest_encoded`` in 10 batches, then an L1 HDR4ME
  estimate. The client path dominates; HDR4ME is small. Its traced
  run also regenerates one Fig. 4 panel as a gated probe.
* ``dense-federated`` — piecewise over ``cov19_like`` with ``m = d``:
  frames are encoded before timing; two closed-loop senders feed two
  ``EdgeAggregator``s (file checkpoints and pushes every few frames),
  which push to one root; the round ends with an L2 estimate at the
  root. The only workload through transport, federation and storage.

Probes run after the timed rounds, on the rounds' inputs, and are
reported as per-layer metrics only. :class:`Fig4Panel` — one
``run_mse_sweep`` cov19 × piecewise panel at three budgets, the only
path through ``experiments`` and ``protocol`` — is such a probe; its
Fig. 4 shape assertions still gate the run.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

import repro.experiments as experiments
import repro.session.server as session_server
from repro import (
    LDPClient,
    LDPServer,
    NumericAttribute,
    Recalibrator,
    Schema,
)
from repro.datasets import cov19_like, gaussian_dataset, load_dataset
from repro.federation import EdgeAggregator, RootAggregator, serve_root
from repro.hdr4me import improvement_guarantee
from repro.session import sample_attribute_mask
from repro.storage import open_store
from repro.transport import AsyncReportSender

from spans import PatchTarget, Tracer

EPSILON = 1.0

#: Largest relative gap allowed between a round's raw MSE and Theorem 1's
#: ``predicted_mse()``. A round's MSE averages hundreds of independent
#: squared deviations (≥ 500 entries at the paper shapes), so sampling
#: noise stays well inside this; a mechanism or aggregation bug does not.
MSE_TOLERANCE = 0.35

#: A federated round that has not finished by then is stuck, not slow
#: (a round takes a few seconds); it fails instead of hanging the run.
ROUND_TIMEOUT = 60.0

#: Spans of the traced run: the public functions each layer is entered
#: through. ``repro.session.server.decode_batch`` is the wire decoder as
#: ``LDPServer.ingest_encoded`` calls it.
TRACE_TARGETS: Tuple[PatchTarget, ...] = (
    (LDPClient, "report_batch", "session.report_batch"),
    (LDPClient, "encode", "wire.encode"),
    (LDPServer, "ingest_encoded", "session.ingest"),
    (session_server, "decode_batch", "wire.decode"),
    (LDPServer, "estimate", "session.estimate"),
    (LDPServer, "deviation_model", "framework.deviation_model"),
    (Recalibrator, "recalibrate", "hdr4me.recalibrate"),
    (RootAggregator, "merged", "federation.merge"),
    (AsyncReportSender, "send_encoded", "transport.send"),
    (EdgeAggregator, "stop", "transport.drain"),
)


@dataclass
class RoundResult:
    """One round: timings, operations attempted and what the gate checks."""

    round_s: float
    #: The round's own set-up, timed just before ``round_s`` starts.
    setup_s: float
    operations: int
    outputs: Dict[str, Any]
    counts: Dict[str, float] = field(default_factory=dict)
    acks: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


class RecalibrationCapture:
    """Keeps the ``(recalibrator, theta_hat, model)`` of each HDR4ME call."""

    def __init__(self) -> None:
        self.calls: List[Tuple[Any, np.ndarray, Any]] = []

    def wrap(self, fn):
        def capture(recalibrator, theta_hat, model, *args, **kwargs):
            self.calls.append((recalibrator, np.array(theta_hat), model))
            return fn(recalibrator, theta_hat, model, *args, **kwargs)

        return capture


def _mse(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean((np.asarray(estimate) - truth) ** 2))


def _timed(fn, *args, **kwargs) -> float:
    started = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - started


def _estimate_outputs(estimate) -> Dict[str, Any]:
    return {
        "users": estimate.users,
        "reports": sum(a.reports for a in estimate.attributes),
        "raw": np.concatenate([a.raw for a in estimate.attributes]),
        "enhanced": np.concatenate([a.enhanced for a in estimate.attributes]),
    }


def _hex(values: np.ndarray) -> List[str]:
    return [float(v).hex() for v in values]


def predicted_mse(server: LDPServer) -> float:
    """Theorem 1's MSE over every estimated entry of ``server``."""
    models = [server.deviation_model(name) for name in server.schema.names]
    entries = sum(model.ndim for model in models)
    return sum(model.predicted_mse() * model.ndim for model in models) / entries


def check_estimate(
    outputs: Dict[str, Any], truth: np.ndarray, users: int, reports: int,
    predicted: float,
) -> List[str]:
    """The gate shared by the session workloads."""
    failures = []
    raw_mse = _mse(outputs["raw"], truth)
    hdr4me_mse = _mse(outputs["enhanced"], truth)
    if outputs["users"] != users:
        failures.append("users %d != %d" % (outputs["users"], users))
    if outputs["reports"] != reports:
        failures.append("reports %d != n*m = %d" % (outputs["reports"], reports))
    if not hdr4me_mse < raw_mse:
        failures.append(
            "HDR4ME MSE %.6g is not below raw MSE %.6g" % (hdr4me_mse, raw_mse)
        )
    gap = abs(raw_mse / predicted - 1.0)
    if not gap <= MSE_TOLERANCE:
        failures.append(
            "raw MSE %.6g is %.0f%% off Theorem 1's %.6g"
            % (raw_mse, 100 * gap, predicted)
        )
    return failures


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: One-line shape, printed with every run.
    shape = ""

    def run_round(self, index: int, tracer: Tracer) -> RoundResult:
        raise NotImplementedError

    def nominal_operations(self) -> int:
        """Operations a round attempts (charged as failed if it raises)."""
        raise NotImplementedError

    def check(self, result: RoundResult) -> List[str]:
        raise NotImplementedError

    def probes(
        self, captured: RecalibrationCapture
    ) -> Tuple[Dict[str, float], List[RoundResult]]:
        """Labelled probes, run outside the timed rounds on their inputs.

        Returns the probe timings and the probe runs that carry a gate
        (already checked; their operations count as attempted).
        """
        return hdr4me_probes(captured), []


def hdr4me_probes(captured: RecalibrationCapture) -> Dict[str, float]:
    """λ* selection and the Theorem 3/4 guarantee on a round's inputs."""
    probes = {"hdr4me.lambda_s": 0.0, "hdr4me.guarantee_s": 0.0}
    for recalibrator, theta_hat, model in captured.calls:
        probes["hdr4me.lambda_s"] += _timed(
            recalibrator.select_lambdas, theta_hat, model
        )
        probes["hdr4me.guarantee_s"] += _timed(
            improvement_guarantee, model, recalibrator.norm
        )
    return probes


class InProcessWorkload(Workload):
    """Client and server in one process, frames through the wire codec."""

    batches = 10
    norm = "l1"

    def __init__(self, seed: int, schema: Schema, sampled: int, protocol: str,
                 records: np.ndarray, truth: np.ndarray) -> None:
        self.seed = seed
        self.schema = schema
        self.sampled = sampled
        self.protocol = protocol
        self.records = records
        self.truth = truth
        self.chunks = np.array_split(records, self.batches)
        self.recalibrator = Recalibrator(norm=self.norm)

    def _build(self) -> Tuple[LDPClient, LDPServer]:
        args = (self.schema, EPSILON, self.sampled, self.protocol)
        return LDPClient(*args), LDPServer(*args)

    def nominal_operations(self) -> int:
        return self.batches + 1

    def run_round(self, index: int, tracer: Tracer) -> RoundResult:
        building = time.perf_counter()
        client, server = self._build()
        setup_s = time.perf_counter() - building
        gen = np.random.default_rng([self.seed, index])
        frame_bytes = 0
        with tracer.span("round"):
            started = time.perf_counter()
            for chunk in self.chunks:
                frame = client.encode(client.report_batch(chunk, gen))
                frame_bytes += len(frame)
                server.ingest_encoded(frame)
            estimate = server.estimate(postprocess=self.recalibrator)
            ended = time.perf_counter()
        outputs = _estimate_outputs(estimate)
        outputs["server"] = server
        return RoundResult(
            round_s=ended - started,
            setup_s=setup_s,
            operations=self.nominal_operations(),
            outputs=outputs,
            counts={
                "session.reports_folded": outputs["reports"],
                "wire.bytes_per_report": frame_bytes / outputs["reports"],
            },
        )

    def check(self, result: RoundResult) -> List[str]:
        users = self.records.shape[0]
        predicted = predicted_mse(result.outputs["server"])
        return check_estimate(
            result.outputs, self.truth, users, users * self.sampled, predicted
        )

    def probes(
        self, captured: RecalibrationCapture
    ) -> Tuple[Dict[str, float], List[RoundResult]]:
        gen = np.random.default_rng(self.seed)
        d = self.schema.dimensions
        validate = sum(_timed(self.schema.validate_matrix, c) for c in self.chunks)
        sample = sum(
            _timed(sample_attribute_mask, len(c), d, self.sampled, gen)
            for c in self.chunks
        )
        panel = Fig4Panel(self.seed, self.tiny)
        sweep = panel.run()
        sweep.failures.extend(panel.check(sweep))
        return {
            "session.validate_s": validate,
            "session.sample_s": sample,
            "experiments.sweep_s": sweep.round_s,
            "datasets.load_s": _timed(panel.load),
            **hdr4me_probes(captured),
        }, [sweep]


class SparseNumeric(InProcessWorkload):
    name = "sparse-numeric"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.tiny = tiny
        users, dims, sampled = (2_000, 200, 20) if tiny else (50_000, 500, 50)
        self.shape = "piecewise gaussian n=%d d=%d m=%d eps=%g, %d batches, L1" % (
            users, dims, sampled, EPSILON, self.batches,
        )
        records = gaussian_dataset(users, dims, rng=np.random.default_rng(seed))
        schema = Schema([NumericAttribute("x%04d" % j) for j in range(dims)])
        super().__init__(seed, schema, sampled, "piecewise", records, records.mean(axis=0))


def _histogram_mean(snapshots: Sequence[Dict[str, Any]], metric: str) -> float:
    count = total = 0.0
    for snapshot in snapshots:
        for value in snapshot["metrics"][metric]["values"].values():
            count += value["count"]
            total += value["sum"]
    return total / count if count else 0.0


def _metric_sum(snapshots: Sequence[Dict[str, Any]], metric: str) -> float:
    return float(
        sum(sum(s["metrics"][metric]["values"].values()) for s in snapshots)
    )


class DenseFederated(Workload):
    name = "dense-federated"
    edges = 2
    norm = "l2"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        users, dims, frames, every = (2_000, 100, 8, 2) if tiny else (20_000, 750, 40, 5)
        self.users, self.every = users, every
        self.shape = (
            "piecewise cov19 n=%d d=m=%d eps=%g, %d frames, 2 senders -> 2 edges "
            "(push+file checkpoint every %d frames) -> root, L2" % (
                users, dims, EPSILON, frames, every,
            )
        )
        gen = np.random.default_rng(seed)
        data = cov19_like(users, dims, rng=gen)
        self.truth = data.mean(axis=0)
        self.schema = Schema([NumericAttribute("x%04d" % j) for j in range(dims)])
        self.recalibrator = Recalibrator(norm=self.norm)
        client = LDPClient(self.schema, EPSILON, protocols="piecewise")
        self.frames = [
            client.report_encoded(chunk, gen) for chunk in np.array_split(data, frames)
        ]
        self.frame_bytes = sum(len(frame) for frame in self.frames)
        del data
        # The gate's reference: one-shot in-process ingestion of the frames.
        reference = LDPServer(self.schema, EPSILON, protocols="piecewise")
        for frame in self.frames:
            reference.ingest_encoded(frame)
        expected = reference.estimate(postprocess=self.recalibrator)
        outputs = _estimate_outputs(expected)
        self.expected_raw = _hex(outputs["raw"])
        self.expected_enhanced = _hex(outputs["enhanced"])
        self.predicted = predicted_mse(reference)
        self.reports = users * dims

    def nominal_operations(self) -> int:
        # Frames, the pushes the cadence implies (periodic + final), one estimate.
        per_edge = len(self.frames) // self.edges
        return len(self.frames) + self.edges * (per_edge // self.every + 1) + 1

    def _edge(self, k: int, round_dir: Path) -> EdgeAggregator:
        return EdgeAggregator(
            self.schema,
            EPSILON,
            protocols="piecewise",
            store=open_store("file://%s" % (round_dir / ("edge%d.json" % k))),
            checkpoint_every_frames=self.every,
            push_every_frames=self.every,
            edge_id=bytes([0x10 + k]) * 16,
        )

    async def _start(self, round_dir: Path, topology: Dict[str, Any]) -> None:
        """Root, edges and connected senders; recorded in ``topology``."""
        topology["root"] = await serve_root(self.schema, EPSILON, protocols="piecewise")
        port = topology["root"].port
        for k in range(self.edges):
            edge = self._edge(k, round_dir)
            await edge.start("127.0.0.1", port)
            topology["edges"].append(edge)
        contract = topology["root"].contract
        for edge in topology["edges"]:
            topology["senders"].append(
                await AsyncReportSender.connect("127.0.0.1", edge.port, contract)
            )

    async def _stop(self, topology: Dict[str, Any]) -> None:
        """Tear down whatever ``topology`` still runs (after a failure too)."""
        try:
            for sender in topology["senders"]:
                await sender.close()
            while topology["edges"]:
                await topology["edges"].pop().stop(abort_connections=True)
        finally:
            root = topology.pop("root", None)
            if root is not None:
                await root.stop()

    def run_round(self, index: int, tracer: Tracer) -> RoundResult:
        round_dir = self.workdir / ("round-%d" % index)
        round_dir.mkdir(parents=True)
        try:
            return asyncio.run(
                asyncio.wait_for(self._round(round_dir, tracer), ROUND_TIMEOUT)
            )
        finally:
            shutil.rmtree(round_dir)

    async def _round(self, round_dir: Path, tracer: Tracer) -> RoundResult:
        topology: Dict[str, Any] = {"edges": [], "senders": []}
        acks: List[float] = []

        async def send(sender: AsyncReportSender, frames: List[bytes]) -> None:
            for frame in frames:
                started = time.perf_counter()
                await sender.send_encoded(frame)
                acks.append(time.perf_counter() - started)
            await sender.close()

        try:
            starting = time.perf_counter()
            await self._start(round_dir, topology)
            setup_s = time.perf_counter() - starting
            root, edges = topology["root"], list(topology["edges"])
            with tracer.span("round"):
                started = time.perf_counter()
                await asyncio.gather(
                    *(
                        send(sender, self.frames[k :: self.edges])
                        for k, sender in enumerate(topology["senders"])
                    )
                )
                draining = time.perf_counter()
                while topology["edges"]:
                    await topology["edges"].pop(0).stop()
                await root.wait_for_users(self.users)
                await topology.pop("root").stop()
                estimating = time.perf_counter()
                estimate = root.estimate(postprocess=self.recalibrator)
                ended = time.perf_counter()
        finally:
            await self._stop(topology)
        edge_stats = [edge.stats_snapshot() for edge in edges]
        root_stats = root.stats_snapshot()
        counters = [s["counters"] for s in edge_stats]
        pushes = [s["federation"] for s in edge_stats]
        depths = [
            value["time_weighted_mean"]
            for s in edge_stats
            for value in s["metrics"]["gateway_queue_depth"]["values"].values()
        ]
        counts = {
            "session.reports_folded": sum(a.reports for a in estimate.attributes),
            "wire.bytes_per_report": self.frame_bytes / self.reports,
            "transport.frames_accepted": sum(c["frames_accepted"] for c in counters),
            "transport.frames_rejected": sum(c["frames_rejected"] for c in counters),
            "transport.bytes_received": sum(c["bytes_received"] for c in counters),
            "transport.fold_mean_s": _histogram_mean(edge_stats, "gateway_fold_seconds"),
            "transport.queue_depth_mean": statistics.fmean(depths) if depths else 0.0,
            "transport.backpressure_stall_s": _metric_sum(
                edge_stats, "gateway_backpressure_stall_seconds_total"
            ),
            "federation.pushes": sum(p["pushes_completed"] for p in pushes),
            "federation.delta_pushes": sum(p["delta_pushes"] for p in pushes),
            "federation.pushes_rejected": root_stats["counters"]["pushes_rejected"],
            "federation.push_bytes": root_stats["counters"]["bytes_received"],
            "federation.root_fold_mean_s": _histogram_mean([root_stats], "root_fold_seconds"),
            "federation.drain_s": estimating - draining,
            "storage.checkpoints": sum(c["checkpoints_written"] for c in counters),
            "storage.checkpoint_bytes": _metric_sum(
                edge_stats, "gateway_checkpoint_bytes_total"
            ),
            "storage.checkpoint_mean_s": _histogram_mean(
                edge_stats, "gateway_checkpoint_seconds"
            ),
        }
        return RoundResult(
            round_s=ended - started,
            setup_s=setup_s,
            operations=len(self.frames) + counts["federation.pushes"] + 1,
            outputs=_estimate_outputs(estimate),
            counts=counts,
            acks=acks,
        )

    def check(self, result: RoundResult) -> List[str]:
        failures = check_estimate(
            result.outputs, self.truth, self.users, self.reports, self.predicted
        )
        if _hex(result.outputs["raw"]) != self.expected_raw:
            failures.append("root raw estimate differs from one-shot ingestion")
        if _hex(result.outputs["enhanced"]) != self.expected_enhanced:
            failures.append("root HDR4ME estimate differs from one-shot ingestion")
        counts = result.counts
        if counts["transport.frames_rejected"] or counts["federation.pushes_rejected"]:
            failures.append(
                "rejections: %d frames, %d pushes"
                % (counts["transport.frames_rejected"], counts["federation.pushes_rejected"])
            )
        if counts["transport.frames_accepted"] != len(self.frames):
            failures.append(
                "%d of %d frames accepted"
                % (counts["transport.frames_accepted"], len(self.frames))
            )
        if counts["federation.delta_pushes"] < 1:
            failures.append("no delta push")
        return failures


class Fig4Panel:
    """One Fig. 4 panel: what a researcher regenerating Fig. 4 waits for."""

    dataset, mechanism = "cov19", "piecewise"
    epsilons = (0.1, 0.8, 3.2)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.users = 1_000 if tiny else 10_000

    def load(self) -> np.ndarray:
        """The sweep's dataset generation, on its own."""
        return load_dataset(self.dataset, self.users, rng=np.random.default_rng(self.seed))

    def run(self) -> RoundResult:
        started = time.perf_counter()
        result = experiments.run_mse_sweep(
            dataset=self.dataset,
            mechanism=self.mechanism,
            users=self.users,
            repeats=1,
            epsilons=self.epsilons,
            rng=np.random.default_rng(self.seed),
        )
        return RoundResult(
            round_s=time.perf_counter() - started,
            setup_s=0.0,
            operations=len(result.rows),
            outputs={label: result.series(label) for label in ("baseline", "l1", "l2")},
        )

    def check(self, result: RoundResult) -> List[str]:
        # The Fig. 4 shape assertions of benchmarks/bench_fig4.py.
        baseline, l1, l2 = (result.outputs[k] for k in ("baseline", "l1", "l2"))
        failures = []
        if not baseline[-1] < baseline[0]:
            failures.append("baseline MSE does not fall as epsilon grows")
        if not (l1[0] < 0.25 * baseline[0] and l2[0] < 0.25 * baseline[0]):
            failures.append("HDR4ME gains < 4x at the smallest epsilon")
        if not (l1 <= baseline * 1.5).all():
            failures.append("L1 worse than 1.5x the baseline somewhere")
        return failures


WORKLOADS = {
    cls.name: cls for cls in (SparseNumeric, DenseFederated)
}
