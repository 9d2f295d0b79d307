"""Collection-round benchmark at the paper's shapes, with a per-layer trace.

Run one workload::

    python3 perfbench/run.py --workload sparse-numeric --seed 1 --seconds 15 --trace 0

or every workload, each in its own process (so peak memory never carries
over from one workload to the next)::

    python3 perfbench/run.py --workload all --seconds 15

Inputs come from ``--seed``; input generation and a warm-up happen
before the ``--seconds`` of timed rounds. A run starts no round it
expects to end past ``--seconds``. Each round times its own set-up
(client and server, or root, edges and senders), so set-up is sampled
across the whole run. Every round
passes the correctness gate or is counted failed, with all its
operations. BLAS and OpenMP pools are held to one thread: the load is
one process on a few shared cores. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any check failed and 2 when the library sources are
missing.

``--trace 0`` reports the end-to-end metrics (medians over the run's
rounds, tracing off). ``--trace 1`` alternates untraced and traced
rounds: traced rounds wrap each layer's public entry points in spans
(see ``spans.py``) and report per-layer self times, the library's own
counters, probes (labelled ``probe`` in the trace file, run after the
rounds on the same inputs; a probe with a gate counts its operations
as attempted), the tracing overhead and the share of the
round no top-level span covers. Spans are written to
``.perfbench/trace-<workload>-<seed>.json`` under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Before numpy is first imported (by workloads.py, lazily).
for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Span name → per-layer metric reported as its self time per round.
SPAN_METRICS = {
    "session.report_batch": "session.report_batch_s",
    "session.ingest": "session.ingest_s",
    "session.estimate": "session.estimate_raw_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "framework.deviation_model": "framework.deviation_model_s",
    "hdr4me.recalibrate": "hdr4me.recalibrate_s",
    "federation.merge": "federation.merge_s",
    "transport.drain": "transport.drain_s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def _shown(value: float) -> str:
    """Exact for whole numbers (counts), six significant digits otherwise."""
    return str(int(value)) if float(value).is_integer() else "%.6g" % value


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers input generation


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _safe_round(workload, index, tracer, capture):
    """One round plus its gate; an exception fails the round, not the run.

    A traced round runs with every layer entry point wrapped in a span
    and HDR4ME's inputs captured for the probes; the gate always runs
    unpatched.
    """
    from spans import patch_calls
    from workloads import TRACE_TARGETS, Recalibrator, RoundResult

    gc.collect()  # every round starts from the same collector state
    try:
        with contextlib.ExitStack() as patches:
            if tracer.enabled:
                capture.calls.clear()
                patches.enter_context(tracer.patched(TRACE_TARGETS))
                patches.enter_context(
                    patch_calls([(Recalibrator, "recalibrate", capture.wrap)])
                )
            result = workload.run_round(index, tracer)
    except Exception:  # the benchmark must report, not crash
        traceback.print_exc()
        return RoundResult(0.0, 0.0, workload.nominal_operations(), {},
                           failures=["round raised"])
    result.failures.extend(workload.check(result))
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object printed last."""
    from spans import Tracer, self_times, uncovered_share
    from workloads import WORKLOADS, RecalibrationCapture

    spec = load_spec()
    workdir = OUT_DIR / ("work-%d" % os.getpid())
    cls = WORKLOADS[name]
    workload = cls(seed, workdir / "main", tiny=tiny)
    try:
        if not tiny:
            cls(seed, workdir / "warmup", tiny=True).run_round(0, Tracer(enabled=False))

        reset_peak_rss()
        tracer = Tracer(enabled=False)
        capture = RecalibrationCapture()
        rounds = []
        started = time.perf_counter()
        while True:
            index = len(rounds)
            tracer.enabled, tracer.round_id = trace and index % 2 == 1, index
            rounds.append((tracer.enabled, _safe_round(workload, index, tracer, capture)))
            elapsed = time.perf_counter() - started
            # Stop before a round that would end late.
            if len(rounds) >= (2 if trace else 1) and elapsed * (1 + 1 / len(rounds)) > seconds:
                break
        peak = peak_rss_mb()
        probes, probe_runs = workload.probes(capture) if trace else ({}, [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [result for _, result in rounds] + probe_runs
    attempted = sum(r.operations for r in results)
    failed = sum(r.operations for r in results if r.failures)
    for index, result in enumerate(results):
        label = "round %d" % index if index < len(rounds) else "probe"
        for failure in result.failures:
            print("%s FAILED: %s" % (label, failure))

    timed = [result for _, result in rounds]
    clean = [r for r in timed if not r.failures] or timed
    samples = {
        "setup_s": [r.setup_s for r in clean],
        "round_s": [r.round_s for r in clean],
    }
    print("workload %s: %s (seed %d, %d rounds, %d traced)" % (
        name, workload.shape, seed, len(rounds), sum(t for t, _ in rounds)))
    counts = {}
    for key in sorted({k for r in clean for k in r.counts}):
        counts[key] = statistics.median(r.counts.get(key, 0.0) for r in clean)
    acks = [a for r in clean for a in r.acks]
    if acks:
        print("  acks: p50 %.6g s, p90 %.6g s (n=%d)" % (
            percentile(acks, 50), percentile(acks, 90), len(acks)))
    for key, value in counts.items():
        print("  per round: %s = %s (median of %d rounds)" % (key, _shown(value), len(clean)))

    if not trace:
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["peak_rss_mb"] = peak
        metrics_spec = spec["end_to_end"]
        sample_counts = {k: len(v) for k, v in samples.items()}
    else:
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        traced_ids = [i for i, (t, _) in enumerate(rounds) if t]
        per_round = self_times(tracer.spans)
        for span_name, metric in SPAN_METRICS.items():
            values[metric] = statistics.median(
                per_round.get(i, {}).get(span_name, 0.0) for i in traced_ids
            )
        values.update({k: v for k, v in counts.items() if k in values})
        values.update(probes)
        if acks:
            values["transport.ack_p50_s"] = percentile(acks, 50)
            values["transport.ack_p90_s"] = percentile(acks, 90)
        traced_rounds = [r.round_s for t, r in rounds if t]
        plain_rounds = [r.round_s for t, r in rounds if not t]
        values["trace.round_s"] = statistics.median(traced_rounds)
        values["trace.overhead_s"] = values["trace.round_s"] - statistics.median(plain_rounds)
        values["trace.uncovered_share"] = statistics.median(
            uncovered_share(tracer.spans).values() or [1.0]
        )
        metrics_spec = spec["per_layer"]
        sample_counts = {"acks": len(acks), "traced rounds": len(traced_rounds)}
        _write_trace(name, seed, tracer, per_round, probes, counts)
        layers = {}
        for round_id in traced_ids:
            for span_name, seconds in per_round.get(round_id, {}).items():
                layer = layers.setdefault(span_name.split(".")[0], {})
                layer[round_id] = layer.get(round_id, 0.0) + seconds
        print("  layer self times (median over traced rounds): %s" % ", ".join(
            "%s %.4f s" % (layer, statistics.median(by_round.get(i, 0.0) for i in traced_ids))
            for layer, by_round in sorted(layers.items())))

    metrics = {}
    for metric in metrics_spec:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("  %-32s %14s %s" % (metric["name"], _shown(value), metric["unit"]))
    print("  samples: %s" % ", ".join("%s n=%d" % kv for kv in sample_counts.items()))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _write_trace(name, seed, tracer, per_round, probes, counts) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-%d.json" % (name, seed))
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "spans": [vars(span) for span in tracer.spans],
                "self_times": {str(k): v for k, v in per_round.items()},
                "probes": [{"name": k, "seconds": v, "probe": True} for k, v in probes.items()],
                "counts": counts,
            },
            handle,
        )
    print("  spans written to %s" % path.relative_to(ROOT))


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own child process; metrics keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in load_spec()["workloads"]):
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, key)] = value
    return merged


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no library sources at src/repro under %s" % ROOT, file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    elif args.workload in names:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    else:
        parser.error("unknown workload %r (known: %s, all)" % (args.workload, ", ".join(names)))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
