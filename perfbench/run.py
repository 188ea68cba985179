#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints the result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: replay-amf, replay-jct,
serve-cluster (see perfbench/README.md). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it print every metric beside its uncorrected value.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("replay-amf", "replay-jct", "serve-cluster")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "mean_jct": "time",
    "solve_ms_p50": "ms",
    "solve_ms_p99": "ms",
    "delta_ms_p50": "ms",
    "direct_solve_ms_p50": "ms",
}


class Stop(Exception):
    """Raised by the SIGINT/SIGTERM handler so every cleanup path runs."""


def on_signal(signum, _frame):
    raise Stop(f"signal {signum}")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die_with_parent():
    # Children get SIGKILL if this script dies without cleaning up
    # (PR_SET_PDEATHSIG), so no server can outlive a run.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL, 0, 0, 0)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "amf.hpp")):
        raise SystemExit("perfbench: run from the repository root (src/amf.hpp not found)")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.abspath(os.path.join(root, base, "perfbench"))
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def run_driver(cmd, cwd, timeout, children):
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    children.append(proc)
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def wait_for(path, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if proc.poll() is not None:
            raise SystemExit(f"perfbench: server exited before creating {path}")
        if time.monotonic() > deadline:
            raise SystemExit(f"perfbench: timed out waiting for {path}")
        time.sleep(0.001)


def http_port(log_path, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(log_path) as f:
            for line in f:
                if "http on 127.0.0.1:" in line:
                    return int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.001)
    raise SystemExit("perfbench: shard did not report its http port")


def stop_all(children):
    """SIGTERM (graceful drain) to every live child, then SIGKILL stragglers."""
    for proc in children:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 10.0
    for proc in children:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def serve_phase(bin_dir, args, seconds, traced_phase, children):
    """One cluster lifetime: two shards and the router, then the client."""
    run_dir = os.path.join(os.path.dirname(bin_dir), f"run-{os.getpid()}-{int(traced_phase)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cluster = []
    try:
        t0 = time.monotonic()
        ports = []
        for i in range(2):
            # One reactor and one executor thread per shard: with three
            # closed-loop connections at most three requests are in flight,
            # so the busy threads of client, router and shards fit 4 cores.
            cmd = [os.path.join(bin_dir, "amf_serve"), "--unix", f"s{i}.sock",
                   "--journal", f"j{i}", "--fsync", "off",
                   "--io-threads", "1", "--executor-threads", "1"]
            if traced_phase:
                cmd += ["--http", "0"]
            with open(os.path.join(run_dir, f"s{i}.log"), "w") as err:
                proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.DEVNULL,
                                        stderr=err, preexec_fn=die_with_parent)
            cluster.append(proc)
            children.append(proc)
        for i, proc in enumerate(cluster):
            wait_for(os.path.join(run_dir, f"s{i}.sock"), proc)
            if traced_phase:
                ports.append(http_port(os.path.join(run_dir, f"s{i}.log"), proc))
        with open(os.path.join(run_dir, "router.log"), "w") as err:
            router = subprocess.Popen(
                [os.path.join(bin_dir, "amf_route"), "--unix", "r.sock",
                 "--shard", "unix:s0.sock", "--shard", "unix:s1.sock"],
                cwd=run_dir, stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=die_with_parent)
        cluster.append(router)
        children.append(router)
        wait_for(os.path.join(run_dir, "r.sock"), router)
        cmd = [os.path.join(bin_dir, "perfbench_driver"), "--workload", "serve-cluster",
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--t0", repr(t0),
               "--router", "r.sock", "--shard", "s0.sock", "--shard", "s1.sock",
               "--traced-phase", "1" if traced_phase else "0"]
        for port in ports:
            cmd += ["--http", str(port)]
        result = run_driver(cmd, run_dir, seconds + 150, children)
        rss = sum(peak_rss_mb(p.pid) for p in cluster)
        alive = all(p.poll() is None for p in cluster)
        stop_all(cluster)
        if not alive or any(p.returncode != 0 for p in cluster):
            result["correct"] = False
            result.setdefault("failures", []).append("a server exited early or uncleanly")
        return result, rss
    finally:
        stop_all(cluster)
        shutil.rmtree(run_dir, ignore_errors=True)


def run_serve(bin_dir, args, children):
    if not args.trace:
        result, rss = serve_phase(bin_dir, args, args.seconds, False, children)
        result["metrics"]["peak_rss_mb"] = rss
        return result
    # Traced run: half the window on an untraced cluster (registry
    # metrics, and the baseline for the tracing overhead), half on a
    # cluster with span tracing on and trace ids stamped (layer self times).
    half = max(1.0, args.seconds / 2.0)
    plain, _ = serve_phase(bin_dir, args, half, False, children)
    traced, _ = serve_phase(bin_dir, args, half, True, children)
    metrics = plain["metrics"]
    for name in ("svc.self_ms", "core.self_ms", "flow.self_ms", "flow.critical_level_ms",
                 "trace.layer_sum_ms"):
        metrics[name] = traced["metrics"][name]
    metrics["trace.overhead"] = plain["raw"]["ops_per_s"] / traced["raw"]["ops_per_s"] - 1.0
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
        "raw": plain["raw"],
        "failures": plain.get("failures", []) + traced.get("failures", []),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)

    root = os.getcwd()
    children = []
    try:
        bin_dir = build(root)
        if args.workload == "serve-cluster":
            result = run_serve(bin_dir, args, children)
        else:
            cmd = [os.path.join(bin_dir, "perfbench_driver"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--t0", repr(time.monotonic())]
            result = run_driver(cmd, root, args.seconds + 150, children)
    except Stop as stop:
        log(f"stopped by {stop}")
        return 130
    finally:
        stop_all(children)

    for failure in result.get("failures", []):
        log(f"check failed: {failure}")
    metrics = {}
    for name, value in sorted(result["metrics"].items()):
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        raw = result.get("raw", {}).get(name)
        beside = f"  (uncorrected {raw:.6g})" if raw is not None and not args.trace else ""
        print(f"{name:32s} {value:14.6g} {unit}{beside}")
    for name, value in sorted(result.get("raw", {}).items()):
        if name not in result["metrics"]:
            print(f"# {name} {value:.6g}")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name == "trace.overhead":
        return "share"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_event"):
        return "count/event"
    if name.endswith("_per_solve"):
        return "count/solve"
    if name.endswith("_per_delta"):
        return "count/delta"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
