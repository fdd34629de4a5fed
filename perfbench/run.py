#!/usr/bin/env python3
"""End-to-end benchmark of the POM compiler tools (pomc one-shot, pomd).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `pomc` and `pomd` (CMake, Release) into `.bench_build/`, then
runs one workload for S seconds, single-threaded everywhere (`--jobs 1`)
and pinned, with every process it starts, to one CPU:

  dnn_cold     vgg16 and resnet18 at size 64, each compiled through the
               DSE by its own cold `pomc --dse --emit` process.
  kernel_cold  the 16 kernel workloads at size 128, same cold processes.
  pomd_warm    one `pomd` daemon; a single closed-loop client sends
               compile requests (DSE + HLS C) for the same 16 kernels.

Set-up, timed as setup_s (median over repeats): for the cold workloads a
warm-up sweep that compiles every input once, whose outputs become the
reference each timed compile must reproduce byte-for-byte; for pomd_warm
starting the daemon and warming its caches with one request per input.

The seed fixes the order of each round over the inputs. Every input is
timed at least once, and timings are summarised per input first (its
fastest compile, then the geometric mean or sum over inputs), so where a
run stops does not skew the mix.

Every compile must succeed, fit the device, and reach at least the
latency recorded in perfbench/expected.json; pomd replies must equal
the one-shot `pomc` output for the same input.

The last line of stdout is one JSON object with the end-to-end metrics
(`--trace 0`) or the per-layer split of a sweep (`--trace 1`, which
also writes the benchmark's spans, with each cold process's own spans
nested, as a Chrome trace in `.bench_build/run/<workload>/trace.json`).
"""

import argparse
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN = BUILD / "run"
POMC = BUILD / "tools" / "pomc"
POMD = BUILD / "tools" / "pomd"

KERNELS = ["gemm", "bicg", "gesummv", "2mm", "3mm", "atax", "mvt", "syrk",
           "conv2d", "jacobi1d", "jacobi2d", "heat1d", "seidel",
           "edgedetect", "gaussian", "blur"]
DNN_INPUTS = [(w, 64) for w in ("vgg16", "resnet18")]
KERNEL_INPUTS = [(w, 128) for w in KERNELS]

# Any single compile or request taking longer than this is a hang.
STEP_TIMEOUT_S = 120
MAX_FRAME = 64 << 20

REPORT_RE = re.compile(
    r"latency=(\d+) cycles, DSP=\d+ \((\d+)%\), FF=\d+ \((\d+)%\), "
    r"LUT=\d+ \((\d+)%\)")


class BenchError(Exception):
    """The benchmark cannot run (missing sources, build failure, ...)."""


def build():
    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()
            and (ROOT / "tools").is_dir()):
        raise BenchError(f"no POM sources under {ROOT}; run from a full "
                         "checkout of the repository")
    # Keep compiler temporaries (and anything else) inside the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "pomc",
                  "pomd", "-j", jobs])
    with open(log_path, "ab") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=log,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"{' '.join(cmd)}: {e}")
            if rc != 0:
                raise BenchError(f"{' '.join(cmd)} failed (rc {rc}); "
                                 f"see {log_path}")


def percentile(xs, q):
    """Linear-interpolated quantile of a non-empty sample (q in [0, 1])."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Sample:
    """One timed compile of one input."""

    def __init__(self, key, wall_s, output):
        self.key = key            # (workload, size)
        self.wall_s = wall_s
        self.output = output      # (report line, HLS C); None if failed
        self.layers = {}          # per-layer seconds and counts (traced)


class Tracer:
    """The benchmark's own spans, kept in memory, written at the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.events = []

    def span(self, name, start, end, **args):
        if self.enabled:
            self.events.append({
                "name": name, "cat": "bench", "ph": "X", "pid": 1, "tid": 0,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": args})

    def nest(self, events, start):
        """Append a child process's spans, shifted to begin at start."""
        spans = [e for e in events if e.get("ph") == "X"]
        if not self.enabled or not spans:
            return
        base = min(e["ts"] for e in spans)
        for e in spans:
            self.events.append(dict(e, pid=2, ts=(start - self.t0) * 1e6
                                    + e["ts"] - base))

    def write(self, path):
        if self.enabled:
            path.write_text(json.dumps({"traceEvents": self.events}))


def check_output(key, output, expected):
    """Problems with one compile's (report, HLS C); empty when correct."""
    if output is None:
        return ["compile failed"]
    report, hls_c = output
    m = REPORT_RE.search(report)
    if not m:
        return [f"unparseable report {report!r}"]
    latency, *percents = (int(g) for g in m.groups())
    problems = []
    if max(percents) > 100:
        problems.append(f"design exceeds the device ({report})")
    if latency > expected[key]:
        problems.append(f"latency {latency} worse than expected "
                        f"{expected[key]}")
    if "#pragma HLS" not in hls_c or hls_c.count("{") != hls_c.count("}"):
        problems.append("malformed HLS C")
    return problems


def measure(inputs, rng, seconds, compile_one):
    """Closed loop over seeded rounds of the inputs for `seconds`; the
    first round always completes so every input has a sample."""
    samples = []
    start = time.perf_counter()
    while True:
        order = list(inputs)
        rng.shuffle(order)
        for key in order:
            if (len(samples) >= len(inputs)
                    and time.perf_counter() - start >= seconds):
                return samples
            samples.append(compile_one(key))


def wait_or_kill(proc, timeout):
    """Block until proc exits (killing it after timeout); returns rc."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


# ------------------------------------------------------- cold processes


def split_pomc_output(text):
    report = next((line[len("report:"):].strip()
                   for line in text.splitlines()
                   if line.startswith("report:")), "")
    marker = "---- HLS C ----\n"
    hls_c = text.split(marker, 1)[1] if marker in text else ""
    return report, hls_c


def cold_compile(key, workdir, tracer, traced):
    name, size = key
    argv = [str(POMC), name, str(size), "--dse", "--emit", "--jobs", "1"]
    trace_path = workdir / f"{name}.trace.json"
    metrics_path = workdir / f"{name}.metrics.json"
    if traced:
        argv += ["--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)]
    out_path = workdir / f"{name}.out"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        rc = wait_or_kill(proc, STEP_TIMEOUT_S)
        wall = time.perf_counter() - start
    tracer.span(f"compile:{name}", start, start + wall, rc=rc)
    if rc != 0:
        return Sample(key, wall, None)
    sample = Sample(key, wall, split_pomc_output(out_path.read_text()))
    if traced:
        events = json.loads(trace_path.read_text())["traceEvents"]
        tracer.nest(events, start)
        dur = {e["name"].split(":")[0]: e["dur"] / 1e6
               for e in events if e.get("ph") == "X"}
        metrics = {m["name"]: m.get("value", 0) for m in
                   json.loads(metrics_path.read_text())["metrics"]}
        sample.layers = {
            "client": wall - dur["pomc"],
            "driver": dur["pomc"] - dur["dse.autoDSE"],
            "dse": dur["dse.autoDSE"],
            "est_hits": metrics.get("dse.cache.hits", 0),
            "est_misses": metrics.get("dse.cache.misses", 0),
            "node_hits": metrics.get("dse.node_cache.hits", 0),
            "node_misses": metrics.get("dse.node_cache.misses", 0),
        }
    return sample


def run_cold(inputs, rng, seconds, setups, traced, tracer, workdir):
    setup_times = []
    for _ in range(setups):
        start = time.perf_counter()
        reference = {}
        for key in inputs:
            sample = cold_compile(key, workdir, tracer, False)
            if sample.output is None:
                raise BenchError(f"warm-up compile of {key[0]} failed")
            reference[key] = sample.output
        end = time.perf_counter()
        tracer.span("setup", start, end)
        setup_times.append(end - start)

    samples = measure(inputs, rng, seconds,
                      lambda key: cold_compile(key, workdir, tracer, traced))
    return samples, setup_times, reference


# --------------------------------------------------------------- daemon


def recv_exact(s, n):
    chunks = []
    while n > 0:
        chunk = s.recv(min(n, 1 << 20))
        if not chunk:
            raise OSError("daemon closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


class Daemon:
    """A pomd process listening on a socket in the run directory."""

    def __init__(self, workdir, index, version):
        self.version = version    # (POM version, protocol name)
        # Relative: Unix socket paths are limited to ~100 bytes.
        self.sock = os.path.relpath(workdir / f"pomd{index}.sock")
        self.log = open(workdir / f"pomd{index}.log", "wb")
        self.proc = subprocess.Popen(
            [str(POMD), "--socket", self.sock, "--jobs", "1",
             "--workers", "1", "-q"],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.last_stats = None    # previous stats frame (traced runs)
        deadline = time.perf_counter() + 30
        while True:
            try:
                self.call({"method": "ping"})
                return
            except OSError:
                if (self.proc.poll() is not None
                        or time.perf_counter() > deadline):
                    self.stop()
                    raise BenchError("pomd did not come up")
                time.sleep(0.002)

    def call(self, request):
        """Send one request frame; returns the raw response payload."""
        request = dict(request, pom=self.version[0], protocol=self.version[1])
        payload = json.dumps(request).encode()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(STEP_TIMEOUT_S)
            s.connect(self.sock)
            s.sendall(struct.pack(">I", len(payload)) + payload)
            (length,) = struct.unpack(">I", recv_exact(s, 4))
            if length > MAX_FRAME:
                raise OSError("oversized response frame")
            return recv_exact(s, length)

    def stop(self):
        """Shut down (politely, then by force) and reap the process."""
        if self.proc.poll() is None:
            try:
                self.call({"method": "shutdown"})
            except OSError:
                self.proc.send_signal(signal.SIGTERM)
            wait_or_kill(self.proc, 30)
        self.log.close()


def daemon_version():
    text = subprocess.run([str(POMD), "--version"], capture_output=True,
                          text=True, timeout=30).stdout
    m = re.match(r"pomd (\S+) \(protocol ([^,]+),", text)
    if not m:
        raise BenchError(f"unexpected pomd --version output {text!r}")
    return m.group(1), m.group(2)


def daemon_compile(daemon, key, tracer, traced):
    name, size = key
    request = {"method": "compile", "workload": name, "size": size,
               "framework": "pom", "strategy": "greedy", "resources": 1.0,
               "emit": True, "journal": "none"}
    start = time.perf_counter()
    try:
        raw = daemon.call(request)
        wall = time.perf_counter() - start
        resp = json.loads(raw)
    except (OSError, ValueError):
        return Sample(key, time.perf_counter() - start, None)
    tracer.span(f"request:{name}", start, start + wall,
                status=resp.get("status"))
    if resp.get("status") != "ok":
        return Sample(key, wall, None)
    sample = Sample(key, wall, (resp.get("report", ""),
                                resp.get("hls_c", "")))
    if traced:
        # The daemon's service-time histogram sum, diffed around this
        # request, splits the round trip into client and daemon time.
        stats = json.loads(daemon.call({"method": "stats"}))
        prev, daemon.last_stats = daemon.last_stats, stats
        service = (stats["service_ms"]["sum"]
                   - prev["service_ms"]["sum"]) / 1e3
        sample.layers = {
            "client": wall - service,
            "driver": service - resp["seconds"],
            "dse": resp["seconds"],
            "est_hits": resp["cache_hits"],
            "est_misses": resp["cache_misses"],
            "node_hits": stats["node_cache_hits"] - prev["node_cache_hits"],
            "node_misses": (stats["node_cache_misses"]
                            - prev["node_cache_misses"]),
        }
    return sample


def run_warm(inputs, rng, seconds, setups, traced, tracer, workdir):
    version = daemon_version()
    setup_times = []
    daemon = None
    try:
        for i in range(setups):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(workdir, i, version)
            for key in inputs:
                if daemon_compile(daemon, key, tracer, False).output is None:
                    raise BenchError(f"warm-up request for {key[0]} failed")
            end = time.perf_counter()
            tracer.span("setup", start, end)
            setup_times.append(end - start)

        if traced:
            daemon.last_stats = json.loads(daemon.call({"method": "stats"}))
        samples = measure(
            inputs, rng, seconds,
            lambda key: daemon_compile(daemon, key, tracer, traced))
    finally:
        if daemon is not None:
            daemon.stop()

    # The daemon must answer exactly what a one-shot pomc prints.
    reference = {key: cold_compile(key, workdir, Tracer(False), False).output
                 for key in inputs}
    return samples, setup_times, reference


# ---------------------------------------------------------------- main

# name -> (runner, inputs, set-ups per run). One DNN warm-up sweep takes
# ~7 s, so it is repeated only twice; the others take ~0.5 s.
WORKLOADS = {
    "dnn_cold": (run_cold, DNN_INPUTS, 2),
    "kernel_cold": (run_cold, KERNEL_INPUTS, 5),
    "pomd_warm": (run_warm, KERNEL_INPUTS, 5),
}


def summarize(samples, setup_times, traced):
    by_key = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    print(f"{'input':<14} {'n':>4} {'min_ms':>10} {'median_ms':>10} "
          f"{'p90_ms':>10}")
    mins = []
    for (name, size), group in sorted(by_key.items()):
        walls = [s.wall_s * 1e3 for s in group]
        mins.append(min(walls))
        print(f"{name + '@' + str(size):<14} {len(group):>4} "
              f"{mins[-1]:>10.3f} {statistics.median(walls):>10.3f} "
              f"{percentile(walls, 0.9):>10.3f}")
    print(f"setup_s: {' '.join(f'{t:.4f}' for t in setup_times)}")

    if not traced:
        # Gated on each input's fastest compile, not its median: on a
        # shared host, other tenants' load slows every compile for seconds
        # to minutes (up to 1.7x seen). Over ten runs under such load, the
        # run-to-run spread (IQR/median) of the minimum was 0.10 against
        # 0.33 for the median on pomd_warm, and about the same as the
        # median's on the cold workloads.
        return {
            "min_latency_ms": (statistics.geometric_mean(mins), "ms"),
            "min_sweep_s": (sum(mins) / 1e3, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
        }

    # Per-layer split of one sweep over the inputs: the per-input mean
    # of each layer, summed over inputs, so client + driver + dse adds
    # up to the mean time of a whole sweep.
    def per_sweep(layer):
        return sum(sum(s.layers[layer] for s in g) / len(g)
                   for g in by_key.values())

    # Share of lookups served from the cache; 1 when nothing had to be
    # looked up (warm pomd takes every design whole from the estimator
    # cache, so no per-node report is recomputed).
    def rate(hits, misses):
        h = sum(s.layers[hits] for s in samples)
        m = sum(s.layers[misses] for s in samples)
        return h / (h + m) if h + m else 1.0

    return {
        "client_ms": (per_sweep("client") * 1e3, "ms"),
        "driver_ms": (per_sweep("driver") * 1e3, "ms"),
        "dse_ms": (per_sweep("dse") * 1e3, "ms"),
        "estimator_lookups": (per_sweep("est_hits")
                              + per_sweep("est_misses"), "count"),
        "estimator_hit_rate": (rate("est_hits", "est_misses"), "ratio"),
        "node_hit_rate": (rate("node_hits", "node_misses"), "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    traced = bool(args.trace)
    try:
        build()
        # Nothing below runs in parallel (the client waits on each compile
        # or request). On a shared 4-vCPU VM, pinning halved pomd_warm's
        # run-to-run spread and made it 3-5% faster.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        expected = {(e["workload"], e["size"]): e["latency_cycles"] for e in
                    json.loads((ROOT / "perfbench" / "expected.json")
                               .read_text())["inputs"]}
        workdir = RUN / args.workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runner, inputs, setups = WORKLOADS[args.workload]
        tracer = Tracer(traced)
        samples, setup_times, reference = runner(
            inputs, random.Random(args.seed), args.seconds, setups, traced,
            tracer, workdir)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    failed = 0
    problems = set()
    for s in samples:
        issues = check_output(s.key, s.output, expected)
        if not issues and s.output != reference[s.key]:
            issues = ["output differs from the reference compile"]
        if issues:
            failed += 1
            problems.add(f"{s.key[0]}: {'; '.join(issues)}")
    for line in sorted(problems):
        print(f"perfbench: INCORRECT {line}", file=sys.stderr)

    metrics = summarize(samples, setup_times, traced)
    tracer.write(workdir / "trace.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
