"""What one op of each workload is, how its output is checked, and the
loops that drive ops for a measured leg.

``figure-sweep`` and ``matrix-exact`` run in this process, one op at a
time. ``serve-daemon`` and ``serve-fleet`` start ``repro serve`` as its
own OS process and drive it from a closed loop of one client here.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plan import MATRIX_TILES, SERVE_CONFIG, figure_plan, matrix_plan, request_key, serve_plan

__all__ = [
    "HostProbe",
    "Leg",
    "MIN_OPS",
    "Server",
    "drive_serial",
    "drive_serve",
    "serve_ops",
    "figure_ops",
    "matrix_ops",
]

#: A leg keeps going past its deadline until this many ops ran, so the
#: tail percentile always has samples to stand on.
MIN_OPS = 20

#: Seconds between host probes in a serve leg. A probe there pauses the
#: closed loop; its time is left out of the leg's.
SERVE_PROBE_EVERY_S = 0.5

#: Seconds between job status polls. A job's latency is known only to
#: the poll that sees it done, so a coarse poll puts job latencies on a
#: lattice whose step a percentile jumps by.
JOB_POLL_S = 0.002

#: Attempts per request when the server answers 429 with Retry-After.
ATTEMPTS = 6

REFERENCE_PATH = Path(__file__).with_name("reference.json")


# -- output digests (shared with reference.py) --------------------------------


def points_digest(points) -> list:
    """Simulated statistics of sweep points, in order."""
    return [
        [p.input_name, p.num_elements, p.replays_per_element, p.shared_cycles]
        for p in points
    ]


def cells_digest(result) -> list:
    """Simulated statistics of every matrix cell, in grid order."""
    return [
        [c.input_name, c.backend, c.mitigation, c.total_replays, c.shared_cycles]
        for c in result.cells
    ]


def result_digest(result) -> list:
    """Simulated statistics of one sort."""
    return [result.num_elements, result.total_replays(), result.total_shared_cycles()]


def values_digest(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _json_round_trip(value):
    # The reference went through JSON; compare like with like.
    return json.loads(json.dumps(value))


# -- legs ----------------------------------------------------------------------


#: Seconds ``probe.host_probe()`` takes at the reference host speed.
#: Time metrics of in-process legs are scaled by this over the run's
#: median probe time (see README.md, "Host speed").
PROBE_REFERENCE_S = 0.020


class HostProbe:
    """``probe.py`` as a child process; calling it times one probe there.
    It runs on the one CPU the whole run is pinned to (``run.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe exited")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Leg:
    """Everything one measured leg observed."""

    #: Seconds per successful op, by op kind.
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    #: Ops that raised, timed out or were refused after every retry.
    errors: int = 0
    #: Ops that completed with a wrong output.
    wrong: int = 0
    wall_s: float = 0.0
    #: CPU time of this process during the leg (the load generator, for
    #: the serve workloads).
    cpu_s: float = 0.0
    #: Seconds of each host probe run between ops; their time is not
    #: part of ``wall_s``.
    probes: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    first_error: str | None = None

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    @property
    def speed_scale(self) -> float:
        """Reference probe time over this leg's median probe time: the
        factor that takes this leg's op times to the reference host
        speed (1.0 when no probe ran)."""
        if not self.probes:
            return 1.0
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    def all_latencies(self) -> list[float]:
        return [x for values in self.latencies.values() for x in values]

    def record(self, kind: str, seconds: float, ok: bool | None, error=None) -> None:
        self.attempted += 1
        if ok is None:
            self.errors += 1
            if self.first_error is None:
                self.first_error = f"{kind}: {error}"
        elif not ok:
            self.wrong += 1
            if self.first_error is None:
                self.first_error = f"{kind}: wrong output"
        else:
            self.latencies.setdefault(kind, []).append(seconds)


def drive_serial(
    ops, seconds: float, sort_check, probe, *, min_ops=MIN_OPS, count=None, probe_every=0.0
) -> Leg:
    """Run ``(kind, run, check)`` ops back to back for ``seconds`` and at
    least ``min_ops`` ops, or for exactly ``count`` ops when given.

    Only ``run()`` is timed; ``check(output, leg)`` compares the output
    with the reference afterwards, and an op during which ``sort_check``
    (when given) saw an unsorted sort output is wrong too. ``probe`` (a
    :class:`HostProbe`) runs after the first op and then after an op
    once ``probe_every`` seconds passed since the last probe, outside
    the op's time and the leg's wall time.
    """
    leg = Leg()
    probing = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds

    def more() -> bool:
        if count is not None:
            return leg.attempted < count
        return time.perf_counter() < deadline or leg.attempted < min_ops

    def unsorted() -> int:
        return sort_check.unsorted if sort_check is not None else 0

    last_probe = -float("inf")
    while more():
        kind, run, check = next(ops)
        before = unsorted()
        began = time.perf_counter()
        try:
            output = run()
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            leg.record(kind, 0.0, None, exc)
            continue
        elapsed = time.perf_counter() - began
        ok = check(output, leg) and unsorted() == before
        leg.record(kind, elapsed, ok)
        paused = time.perf_counter()
        if paused - last_probe >= probe_every:
            leg.probes.append(probe())
            last_probe = time.perf_counter()
            probing += last_probe - paused
    leg.wall_s = time.perf_counter() - start - probing
    leg.cpu_s = time.process_time() - cpu0
    return leg


# -- figure-sweep --------------------------------------------------------------


def run_panel(panel, op_seed: int) -> list:
    """One Fig. 4/5 panel, run the way ``repro-mergesort figure`` runs it.

    It uses the figure builders' own defaults, a fresh engine and no
    disk cache, so it costs what one CLI invocation costs. Returns the
    random-input points followed by the worst-case points.
    """
    from repro.bench import figures
    from repro.engine import dispatch
    from repro.engine.dispatch import execute_items
    from repro.engine.tasks import sweep_items
    from repro.gpu.device import get_device
    from repro.sort.presets import preset

    _, preset_name, device_name = panel
    config = preset(preset_name)
    defaults = inspect.signature(figures.figure4).parameters
    items = sweep_items(
        config,
        get_device(device_name),
        ("random", "worst-case"),
        [n for n in config.valid_sizes(figures.MAX_ELEMENTS) if n >= figures.MIN_ELEMENTS],
        exact_threshold=defaults["exact_threshold"].default,
        score_blocks=defaults["score_blocks"].default,
        seed=op_seed,
    )
    # A CLI invocation starts without the process-level warm engine.
    dispatch._SHARED_INLINE = None
    return execute_items(items)


def figure_ops(seed: int, reference: dict):
    """Endless ``(kind, run, check)`` stream of Fig. 4/5 panels."""
    from repro.bench.metrics import slowdown_stats

    expected = reference["figure-sweep"]
    for panel, op_seed in figure_plan(seed):
        name = panel[0]

        def check(points, leg, key=f"{name}/{op_seed}", name=name):
            half = len(points) // 2
            peak = slowdown_stats(points[:half], points[half:]).peak_percent
            leg.notes.setdefault(f"{name}.peak_slowdown_pct", peak)
            return _json_round_trip(points_digest(points)) == expected.get(key)

        yield name, (lambda panel=panel, op_seed=op_seed: run_panel(panel, op_seed)), check


# -- matrix-exact --------------------------------------------------------------


def matrix_ops(seed: int, reference: dict):
    """Endless stream of full default matrix grids, every block scored."""
    from repro.bench.matrix import run_matrix

    expected = reference["matrix-exact"]
    for op_seed in matrix_plan(seed):

        def run(op_seed=op_seed):
            return run_matrix(tiles=MATRIX_TILES, seed=op_seed)

        def check(result, leg, key=str(op_seed)):
            cfree = [c for c in result.cells if c.mitigation.startswith("cfree")]
            if not cfree or any(c.total_replays != 0 for c in cfree):
                return False
            return _json_round_trip(cells_digest(result)) == expected.get(key)

        yield "grid", run, check


# -- the service workloads -----------------------------------------------------

_LISTEN = re.compile(r"\[repro\.(service|router)\] listening on (http://\S+)")


class Server:
    """``repro serve`` (or the traced launcher) as a child process.

    ``setup_s`` is the time from spawning the process until ``/healthz``
    answers. Output goes to a log file in ``workdir``, never a pipe, so
    a chatty server cannot block on it.
    """

    def __init__(self, root: Path, workdir: Path, *, shards: int, trace_out: Path | None = None):
        self.root = root
        self.workdir = workdir
        self.shards = shards
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self.setup_s = 0.0

    def start(self, timeout: float = 60.0) -> "Server":
        serve = ["serve", "--port", "0"]
        if self.shards > 1:
            serve += ["--shards", str(self.shards)]
        if self.trace_out is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = str(Path(__file__).with_name("serve_launcher.py"))
            argv = [sys.executable, launcher, str(self.trace_out), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        log_path = self.workdir / f"serve-{time.monotonic_ns()}.log"
        began = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            self._wait_ready(log_path, began + timeout)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - began
        return self

    def _wait_ready(self, log_path: Path, deadline: float) -> None:
        from repro.errors import ReproError
        from repro.service.client import ServiceClient

        front = "router" if self.shards > 1 else "service"
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early; see {log_path.read_text()!r}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not come up in time")
            if self.url is None:
                found = _LISTEN.findall(log_path.read_text())
                fronts = [url for kind, url in found if kind == front]
                if fronts:
                    self.url = fronts[0]
            if self.url is not None:
                try:
                    ServiceClient(self.url, timeout=5.0).healthz()
                    break
                except ReproError:
                    pass
            time.sleep(0.005)

    def client(self, timeout: float = 120.0):
        from repro.service.client import ServiceClient

        return ServiceClient(self.url, timeout=timeout)

    def stats(self, url: str | None = None) -> dict:
        from repro.service.client import ServiceClient

        return ServiceClient(url or self.url, timeout=30.0).stats()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Drain through ``POST /shutdown``; kill if it does not exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            self.client(timeout=10.0).shutdown()
        except Exception:  # noqa: BLE001 - fall through to terminate
            self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _serve_config_obj() -> dict:
    from repro.sort.config import SortConfig
    from repro.sort.serialize import config_to_obj

    return config_to_obj(SortConfig(**SERVE_CONFIG))


def serve_op(client, kind: str, request: dict, config: dict):
    """Send one planned request; returns the decoded output."""
    from repro.service.protocol import point_from_obj

    if kind == "simulate":
        return client.simulate(config=config, **request)
    if kind == "sweep":
        return client.sweep(config=config, **request).points
    if kind == "construct":
        return client.construct(config=config, **request)
    ack = client.submit_job({"config": config, **request})
    status = client.wait_for_job(ack["job_id"], timeout=120.0, poll=JOB_POLL_S)
    if status.get("status") != "done":
        raise RuntimeError(f"job {ack['job_id']} ended {status.get('status')!r}")
    return [point_from_obj(p) for p in status["points"]]


def check_serve_output(kind: str, request: dict, output, expected: dict) -> bool:
    want = expected.get(request_key(kind, request))
    if want is None:
        return False
    if kind == "simulate":
        values = output.result.values
        ordered = values is not None and bool(np.all(values[1:] >= values[:-1]))
        got = result_digest(output.result)
        return output.sorted_ok and ordered and _json_round_trip(got) == want
    if kind == "construct":
        permutation = np.array_equal(np.sort(output), np.arange(output.size))
        return permutation and values_digest(output) == want
    return _json_round_trip(points_digest(output)) == want


def send(client, kind: str, request: dict, config: dict):
    """:func:`serve_op` with Retry-After backoff; the waits are part of
    the op's time."""
    from repro.errors import BackpressureError

    for attempt in range(ATTEMPTS):
        try:
            return serve_op(client, kind, request, config)
        except BackpressureError as exc:
            if attempt + 1 == ATTEMPTS:
                raise
            time.sleep(exc.retry_after)


def serve_ops(server: Server, seed: int, reference: dict, *, fleet: bool):
    """Endless ``(kind, run, check)`` stream of planned requests, sent
    over one client connection."""
    config = _serve_config_obj()
    expected = reference["serve"]
    client = server.client()
    for kind, request in serve_plan(seed, fleet=fleet):

        def run(kind=kind, request=request):
            return send(client, kind, request, config)

        def check(output, leg, kind=kind, request=request):
            return check_serve_output(kind, request, output, expected)

        yield kind, run, check


def drive_serve(server: Server, seed: int, seconds: float, reference: dict, probe, *, fleet: bool) -> Leg:
    """Closed loop of one client: the next planned request goes out only
    after the previous reply arrived. Every :data:`SERVE_PROBE_EVERY_S`
    the loop pauses for a host probe while the server is idle."""
    return drive_serial(
        serve_ops(server, seed, reference, fleet=fleet), seconds, None, probe,
        probe_every=SERVE_PROBE_EVERY_S,
    )
