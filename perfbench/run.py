"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed.
``--trace 1`` measures the per-layer metrics: it splits ``--seconds``
between an untraced leg and a traced leg of the same plan, and reports
the spans of the traced leg plus the tracing overhead between the two.
Op times and ``setup_s`` are scaled to a reference host speed
(README.md, "Host speed"). Every line before the last is for people;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from layers import SortCheck, install_client, install_library
from spans import Patcher, Tracer, summarize
from stats import median, tail
from workloads import (
    PROBE_REFERENCE_S,
    HostProbe,
    Leg,
    Server,
    drive_serial,
    drive_serve,
    figure_ops,
    load_reference,
    matrix_ops,
)

HERE = Path(__file__).resolve().parent

#: Set-up is timed this many times per run and the median reported,
#: scaled to the reference host speed like the in-process op times.
SETUP_REPEATS = 9

WORKLOADS = ("figure-sweep", "matrix-exact", "serve-daemon", "serve-fleet")

#: The paper's quoted peak slowdowns of the constructed inputs (Fig. 4).
PAPER_PEAK_SLOWDOWN_PCT = {"fig4-thrust": 50.49, "fig4-mgpu": 33.82}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result as JSON here")
    return parser.parse_args(argv)


# -- run metadata --------------------------------------------------------------

_ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "asimd", "sve")


def run_metadata(root: Path) -> dict:
    """Host, toolchain, backend and code identity of this run."""
    import numpy

    from repro.dmm import fused

    cpu_model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "Model") and cpu_model in ("unknown", platform.machine()):
                    cpu_model = value.strip()
                elif key in ("flags", "Features") and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "isa_flags": [f for f in _ISA_FLAGS if f in flags],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fused_backend": fused.active_backend(),
        "REPRO_FORCE_NUMPY": os.environ.get(fused.FORCE_NUMPY_ENV),
        "commit": _commit(root),
        "source_digest": _source_digest(root),
    }


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """Digest of the program's sources, for checkouts that are not git
    repositories."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# -- set-up ----------------------------------------------------------------------


def probe_setup(root: Path, workload: str) -> float:
    """Seconds from spawning a fresh interpreter until the workload's
    imports and objects are built (``setup_probe.py`` prints ``ready``)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - began
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def scaled_setup(samples: list[float], probes: list[float]) -> float:
    """Median set-up time at the reference host speed; ``probes`` holds a
    host probe time taken right after each sample."""
    return median(samples) * PROBE_REFERENCE_S / median(probes)


# -- end-to-end metrics --------------------------------------------------------


def end_to_end(leg, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced leg, plus details.

    Op times are scaled to the reference host speed by the leg's
    ``speed_scale``; the details keep the times as measured."""
    latencies_ms = [x * 1000.0 for x in leg.all_latencies()]
    if not latencies_ms:
        raise RuntimeError(f"no op succeeded: {leg.first_error}")
    tail_stat = tail(latencies_ms) or {
        "value": max(latencies_ms), "percentile": 100.0, "beyond": 0,
        "samples": len(latencies_ms),
    }
    measured = {
        "ops_per_s": (leg.attempted - leg.failed) / leg.wall_s,
        "op_p50_ms": median(latencies_ms),
        "op_tail_ms": tail_stat["value"],
    }
    scale = leg.speed_scale
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": measured["ops_per_s"] / scale,
        "op_p50_ms": measured["op_p50_ms"] * scale,
        "op_tail_ms": measured["op_tail_ms"] * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "op_tail": {k: v for k, v in tail_stat.items() if k != "value"},
        "measured": measured,
        "speed_scale": scale,
        **service_figures(leg),
    }
    return metrics, details


def service_figures(leg) -> dict:
    """Per-endpoint latency, job time, error rate and generator CPU."""
    def p50_s(kind: str) -> float:
        values = leg.latencies.get(kind)
        return median(values) if values else 0.0

    return {
        "error_rate": leg.failed / leg.attempted,
        "simulate_p50_ms": p50_s("simulate") * 1000.0,
        "sweep_p50_ms": p50_s("sweep") * 1000.0,
        "job_s": p50_s("job"),
        "bench_cpu_s": leg.cpu_s,
        "wall_s": leg.wall_s,
        "first_error": leg.first_error,
        **leg.notes,
    }


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(spans: dict, counts: dict, memo: tuple[int, int], service: dict) -> dict:
    """Fold span summaries, counters and service stats into the per-layer
    metrics."""

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    hits, misses = memo
    dmm_busy = busy("dmm.fused") + busy("dmm.conflicts")
    accesses = counts.get("dmm.accesses", 0)
    flight, compute = busy("service.batching.flight"), busy("service.server.compute")
    out = {
        "sort.pairwise.busy_s": busy("sort.pairwise"),
        "sort.pairwise.self_s": spans.get("sort.pairwise", {}).get("self_s", 0.0),
        "dmm.accesses": accesses,
        "dmm.ns_per_access": dmm_busy * 1e9 / accesses if accesses else 0.0,
        "dmm.memo.hits": hits,
        "dmm.memo.misses": misses,
        "dmm.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sort.serialize.decode_s": busy("sort.serialize.decode"),
        "sort.serialize.encode_s": busy("sort.serialize.encode"),
        "service.protocol.parse_s": busy("service.protocol.parse"),
        "service.protocol.key_s": busy("service.protocol.key"),
        "service.batching.flight_s": flight,
        "service.server.compute_s": compute,
        "service.server.queue_s": max(0.0, flight - compute),
    }
    for layer in (
        "sort.networks", "mergepath.fused", "mergepath.partition", "mergepath.kernels",
        "dmm.fused", "dmm.conflicts", "mitigation.remap", "sort.bitonic", "sort.multiway",
        "inputs.generate", "adversary.construct", "analytic", "bench.runner.point",
        "service.client",
    ):
        out[f"{layer}.busy_s"] = busy(layer)
    for counter in (
        "mergepath.partition.lanes", "analytic.sorts", "engine.route.analytic",
        "engine.route.fused", "engine.route.vectorized", "bench.runner.instrumented_sorts",
    ):
        out[counter] = counts.get(counter, 0)
    out.update(service)
    return out


def _service_counters(before: dict, after: dict) -> tuple[dict, tuple[int, int]]:
    """Batching, router and scheduler counters from two ``/stats`` replies
    of the address the clients talk to, and the memo hit/miss delta."""

    def delta(*path) -> int:
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    primary, coalesced = delta("batching", "primary"), delta("batching", "coalesced")
    shards = after.get("shard_requests", {})
    shard_counts = [shards[url] - before.get("shard_requests", {}).get(url, 0) for url in shards]
    chunks = after.get("chunks", {})
    out = {
        "service.batching.primary": primary,
        "service.batching.coalesced": coalesced,
        "service.batching.coalesce_ratio": coalesced / (primary + coalesced) if primary + coalesced else 0.0,
        "service.batching.rejected": delta("backpressure", "rejected"),
        "service.shard.forwards": sum(shard_counts),
        "service.shard.balance": min(shard_counts) / max(shard_counts) if shard_counts and max(shard_counts) else 0.0,
        "service.scheduler.chunks": sum(chunks.get(s, 0) for s in ("done", "failed"))
        - sum(before.get("chunks", {}).get(s, 0) for s in ("done", "failed")),
        "service.scheduler.requeues": delta("chunk_retries"),
    }
    memo = (delta("memo_process", "hits"), delta("memo_process", "misses"))
    return out, memo


def merge_spans(*summaries: dict) -> dict:
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in into:
                into[key] += entry[key]
    return out


# -- the workloads -------------------------------------------------------------


def _ops(workload: str, seed: int, reference: dict):
    return (figure_ops if workload == "figure-sweep" else matrix_ops)(seed, reference)


def _serial_leg(workload, seed, seconds, reference, probe, *, traced: bool, **limits):
    """One in-process leg; returns (leg, span summary, counters, memo delta).

    ``limits`` go to :func:`workloads.drive_serial`."""
    from repro.dmm.memo import ConflictMemo

    ops = _ops(workload, seed, reference)
    tracer = Tracer()
    patcher = Patcher(tracer)
    check = SortCheck(patcher)
    if traced:
        install_library(patcher)
    before = ConflictMemo.process_stats()
    try:
        leg = drive_serial(ops, seconds, check, probe, **limits)
    finally:
        patcher.restore()
    after = ConflictMemo.process_stats()
    memo = (after.hits - before.hits, after.misses - before.misses)
    return leg, summarize(tracer.spans), dict(tracer.counts), memo


def run_serial(args, root, reference, probe) -> tuple[dict, dict, object]:
    if args.trace == 0:
        setups, probes = [], []
        for _ in range(SETUP_REPEATS):
            setups.append(probe_setup(root, args.workload))
            probes.append(probe())
        leg, _, _, _ = _serial_leg(
            args.workload, args.seed, args.seconds, reference, probe, traced=False
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, details = end_to_end(leg, scaled_setup(setups, probes), rss_mb)
        details["setup_samples_s"] = setups
        return metrics, details, leg
    # The traced run measures as long as an untraced one: half untraced,
    # then the same ops of the same plan traced.
    base, _, _, _ = _serial_leg(
        args.workload, args.seed, args.seconds / 2, reference, probe, traced=False, min_ops=1
    )
    leg, spans, counts, memo = _serial_leg(
        args.workload, args.seed, 0.0, reference, probe, traced=True, count=base.attempted
    )
    metrics = layer_metrics(spans, counts, memo, _service_counters({}, {})[0])
    metrics.update(_leg_layers(base, leg))
    details = {"untraced": service_figures(base), "traced": service_figures(leg)}
    return metrics, details, _combined(base, leg)


def _leg_layers(base, leg, *, client_cpu_s: float = 0.0, hop_ms: float = 0.0) -> dict:
    """Overhead, op totals, the per-endpoint figures of the untraced leg,
    the load generator's CPU time and the router hop."""
    figures = service_figures(base)
    return {
        "service.client.cpu_s": client_cpu_s,
        "service.shard.hop_ms": hop_ms,
        "trace.overhead_pct": (
            median(leg.all_latencies()) * leg.speed_scale
            / (median(base.all_latencies()) * base.speed_scale) - 1.0
        ) * 100.0,
        "bench.ops.count": leg.attempted,
        "bench.ops.busy_s": sum(leg.all_latencies()),
        "simulate_p50_ms": figures["simulate_p50_ms"],
        "sweep_p50_ms": figures["sweep_p50_ms"],
        "job_s": figures["job_s"],
        "error_rate": figures["error_rate"],
    }


def _combined(*legs):
    """A leg-like total of attempted/failed over several legs."""
    total = Leg()
    for leg in legs:
        total.attempted += leg.attempted
        total.errors += leg.errors
        total.wrong += leg.wrong
        total.first_error = total.first_error or leg.first_error
    return total


def run_serve(args, root, reference, probe, workdir: Path) -> tuple[dict, dict, object]:
    fleet = args.workload == "serve-fleet"
    shards = 2 if fleet else 1
    # A traced run measures as long as an untraced one, split over its legs.
    seconds = args.seconds / (4 if fleet else 2) if args.trace else args.seconds

    def leg_on(server, *, fleet_plan=fleet):
        return drive_serve(server, args.seed, seconds, reference, probe, fleet=fleet_plan)

    if args.trace == 0:
        setups, probes = [], []
        for _ in range(SETUP_REPEATS - 1):
            with Server(root, workdir, shards=shards).start() as server:
                setups.append(server.setup_s)
                probes.append(probe())
        with Server(root, workdir, shards=shards).start() as server:
            setups.append(server.setup_s)
            probes.append(probe())
            leg = leg_on(server)
            rss_mb = server.peak_rss_mb()
        metrics, details = end_to_end(leg, scaled_setup(setups, probes), rss_mb)
        details["setup_samples_s"] = setups
        return metrics, details, leg

    legs = []
    hop_ms = 0.0
    if fleet:
        # The router hop: the daemon plan, without jobs, sent to one
        # daemon and to the fleet.
        for hop_shards in (1, shards):
            with Server(root, workdir, shards=hop_shards).start() as server:
                legs.append(leg_on(server, fleet_plan=False))
        daemon, direct = legs
        hop_ms = service_figures(direct)["simulate_p50_ms"] - service_figures(daemon)["simulate_p50_ms"]
    with Server(root, workdir, shards=shards).start() as server:
        base = leg_on(server)
    trace_out = workdir / "server-trace.json"
    tracer = Tracer()
    patcher = Patcher(tracer)
    with Server(root, workdir, shards=shards, trace_out=trace_out).start() as server:
        before = server.stats()
        install_client(patcher)
        try:
            leg = leg_on(server)
        finally:
            patcher.restore()
        after = server.stats()
    with open(trace_out) as fh:
        server_trace = json.load(fh)
    service, memo = _service_counters(before, after)
    spans = merge_spans(summarize(tracer.spans), server_trace["spans"])
    counts = dict(tracer.counts)
    for name, value in server_trace["counts"].items():
        counts[name] = counts.get(name, 0) + value
    metrics = layer_metrics(spans, counts, memo, service)
    metrics.update(_leg_layers(base, leg, client_cpu_s=base.cpu_s, hop_ms=hop_ms))
    details = {"untraced": service_figures(base), "traced": service_figures(leg)}
    if fleet:
        details["hop_daemon"] = service_figures(daemon)
        details["hop_fleet"] = service_figures(direct)
    legs += [base, leg]
    return metrics, details, _combined(*legs)


# -- output --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the server and probe it started
    # are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repository checkout (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    reference = load_reference()
    meta = run_metadata(root)
    # The run and every process it starts (server, probe, set-up probes)
    # share one CPU. The closed loop is sequential, so a second CPU adds
    # little but cross-CPU wake-ups, whose cost on a shared host moves
    # with other tenants' load far more than the probe's time does; and
    # the probe times the very CPU the work runs on.
    meta["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {meta["pinned_cpu"]})
    bench = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    workdir = root / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with HostProbe() as probe:
            if args.workload.startswith("serve-"):
                metrics, details, leg = run_serve(args, root, reference, probe, workdir)
            else:
                metrics, details, leg = run_serial(args, root, reference, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name, value in PAPER_PEAK_SLOWDOWN_PCT.items():
        key = f"{name}.peak_slowdown_pct"
        source = details.get("untraced", details)
        if key in source:
            details[key] = {"simulated": source[key], "paper": value}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print("# details " + json.dumps(details, sort_keys=True, default=str))
    for name, unit in units.items():
        print(f"# {name:34s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": leg.failed == 0,
        "attempted": leg.attempted,
        "failed": leg.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "meta": meta, "details": details, "result": result}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
