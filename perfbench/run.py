#!/usr/bin/env python3
"""End-to-end benchmark of the `wfr` binary (see perfbench/README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `wfr` and the benchmark's helpers from source into .bench_build/,
generates the workload's inputs from the seed, runs the workload against
the real binary for about S seconds, checks every output against the
independent references in refcheck.py, and prints one JSON result as the
last line of stdout.  With --trace 1 it runs perfbench_layers instead and
prints the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import gen
import refcheck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("sweep-campaign", "serve-mixed", "check-differential",
             "simulate-wide")
NPROC = os.cpu_count() or 1
# Fixed thread and connection counts, all within nproc.  Every workload
# runs one worker: on a shared machine a single thread repeats far better
# than two (README.md, "Steadiness").  `wfr serve` runs 1 connection worker
# and 1 sweep worker, driven by one client thread over 2 keep-alive
# connections, so the worker always has a request queued.
CLI_JOBS = 1
SERVE_JOBS = 1
SERVE_CONNS = min(2, NPROC)
# Job count of the traced run's second stream_lines measurement: at the
# workloads' 1 job its ratio to the 1-job figure would always read 1.
STREAM_SCALING_JOBS = min(2, NPROC)
# Seconds between the throwaway `wfr serve` launches that time the
# server's cold set-up while the client runs.
SERVE_SETUP_EVERY_S = 1.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring wfr and the helpers up to date."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                  "wfr", "perfbench_client", "perfbench_layers"])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        if result.returncode != 0:
            log(result.stdout.decode(errors="replace")[-4000:])
            raise SystemExit(f"build failed: {' '.join(step)}")
    return {"wfr": os.path.join(BUILD, "wfr", "cli", "wfr"),
            "client": os.path.join(BUILD, "perfbench_client"),
            "layers": os.path.join(BUILD, "perfbench_layers")}


class Process:
    """A child process whose exit status and peak RSS come from wait4."""

    def __init__(self, args, stdout, stderr=None):
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(args, stdout=stdout,
                                      stderr=stderr or subprocess.DEVNULL)

    def wait(self):
        _, status, usage = os.wait4(self.popen.pid, 0)
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - self.started
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.popen.returncode

    def stop(self):
        if self.popen.returncode is None:
            self.popen.kill()
            self.wait()


def run_timed(args, stdout_path):
    """Runs one `wfr` command to completion; returns (wall s, rss MB, ok)."""
    with open(stdout_path, "wb") as out:
        p = Process(args, out)
        code = p.wait()
    if code != 0:
        log(f"{' '.join(args[:2])} exited {code}")
    return p.wall_s, p.rss_mb, code == 0


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def repeat_rounds(seconds, round_fn):
    """Runs whole rounds until their summed wall time reaches `seconds`;
    returns each round's wall time."""
    walls = []
    while sum(walls) < seconds:
        walls.append(round_fn())
    return walls


class ColdSetup:
    """The program's cold set-up: fresh `wfr` processes on a trivial input,
    each timed from launch to exit (process start, input parsing, exit).
    Every launch is a new process, so none is warm.  A workload launches
    one before each of its timed runs, so the launches spread over the
    whole run, and `setup_s` is the fastest.  Fifteen launches back to back
    all fall inside one spell of interference from other tenants: their
    fastest spread 19-27 % (IQR/median) over ten runs."""

    def __init__(self, args, out_path):
        self.args, self.out_path = args, out_path
        self.walls, self.ok = [], True

    def launch(self):
        wall, _, ok = run_timed(self.args, self.out_path)
        self.walls.append(wall)
        self.ok = self.ok and ok


def with_units(values, section):
    """{name: {"value", "unit"}} for every metric of a BENCHMARK.json
    section, in its order; a metric the run did not measure is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# --- workloads ---------------------------------------------------------------

def sweep_campaign(bins, seed, seconds, work):
    inputs = gen.gen_sweep(seed, work)
    base = [bins["wfr"], "sweep", "--system", inputs["paths"]["system"],
            "--characterization", inputs["paths"]["workflow"], "--stream",
            "--jobs", str(CLI_JOBS)]
    flags = gen.sweep_param_flags(inputs["axes"])
    out_path = os.path.join(work, "sweep.ndjson")
    setup = ColdSetup(base + flags[:1] + [flags[1].split(",")[0]],
                      os.path.join(work, "setup.out"))

    points = refcheck.grid_size(inputs["axes"])
    rss, digests, ok = [], set(), True

    def one_round():
        setup.launch()
        wall, peak, good = run_timed(base + flags, out_path)
        rss.append(peak)
        digests.add(file_digest(out_path))
        nonlocal ok
        ok = ok and good
        return wall

    walls = repeat_rounds(seconds, one_round)
    rows = []
    with open(out_path) as f:
        for line in f:
            if line.startswith("{"):
                rows.append(json.loads(line))
    ok = ok and setup.ok
    errors = [] if ok else ["wfr sweep exited non-zero"]
    if len(digests) != 1:
        errors.append(f"sweep: {len(digests)} different outputs for one grid")
    errors += refcheck.check_sweep_order(rows, inputs["axes"])
    errors += refcheck.check_sweep_model(rows, inputs["system"],
                                         inputs["workflow"], inputs["axes"])
    errors += refcheck.check_sweep_monotonic(rows, inputs["axes"])
    attempted = points * len(walls)
    return {"attempted": attempted, "failed": 0 if ok else attempted,
            "errors": errors, "setup_s": min(setup.walls), "walls": walls,
            "work": points, "peak_rss_mb": max(rss), "op": "points"}


def check_differential(bins, seed, seconds, work):
    spec = gen.gen_check(seed)
    base = [bins["wfr"], "check", "--gen", "irregular", "--jobs",
            str(CLI_JOBS), "--base-seed", str(spec["base_seed"])]
    out_path = os.path.join(work, "check.txt")
    setup = ColdSetup(base + ["--seeds", "1"], os.path.join(work, "setup.out"))

    rss, digests, errors, ok = [], set(), [], True

    def one_round():
        setup.launch()
        wall, peak, good = run_timed(base + ["--seeds", str(spec["seeds"])],
                                     out_path)
        rss.append(peak)
        digests.add(file_digest(out_path))
        nonlocal ok
        ok = ok and good
        return wall

    walls = repeat_rounds(seconds, one_round)
    with open(out_path) as f:
        errors += refcheck.check_check_output(f.read(), spec["seeds"])
    if len(digests) != 1:
        errors.append(f"check: {len(digests)} different reports for one run")
    ok = ok and setup.ok
    if not ok:
        errors.append("wfr check exited non-zero")
    attempted = spec["seeds"] * len(walls)
    return {"attempted": attempted, "failed": 0 if ok else attempted,
            "errors": errors, "setup_s": min(setup.walls), "walls": walls,
            "work": spec["seeds"], "peak_rss_mb": max(rss), "op": "seeds"}


def simulate_wide(bins, seed, seconds, work):
    inputs = gen.gen_wide(seed, work)
    system = inputs["system_path"]
    warm_path = os.path.join(work, "wide-warm.json")
    with open(warm_path, "w") as f:
        json.dump({"name": "warm", "tasks": inputs["dags"][0]["tasks"][:8]}, f)
    out_path = os.path.join(work, "run.txt")
    setup = ColdSetup([bins["wfr"], "run", "--system", system, "--workflow",
                       warm_path], os.path.join(work, "setup.out"))

    rss, tasks, ok = [], 0, True
    round_tasks = sum(len(dag["tasks"]) for dag in inputs["dags"])
    digests = {dag["name"]: set() for dag in inputs["dags"]}
    dag_walls = {dag["name"]: [] for dag in inputs["dags"]}
    errors = []

    def one_round():
        nonlocal tasks, ok
        wall_sum = 0.0
        for dag in inputs["dags"]:
            setup.launch()
            wall, peak, good = run_timed(
                [bins["wfr"], "run", "--system", system, "--workflow",
                 dag["path"]], out_path)
            wall_sum += wall
            dag_walls[dag["name"]].append(wall)
            rss.append(peak)
            tasks += len(dag["tasks"])
            ok = ok and good
            digests[dag["name"]].add(file_digest(out_path))
            with open(out_path) as f:
                head = f.readline()
            want = f"workflow '{dag['name']}': {len(dag['tasks'])} tasks,"
            if not head.startswith(want):
                errors.append(f"{dag['name']}: summary line {head!r}")
        return wall_sum

    walls = repeat_rounds(seconds, one_round)
    for dag in inputs["dags"]:
        if len(digests[dag["name"]]) != 1:
            errors.append(f"{dag['name']}: runs of one DAG differ")
        trace_path = os.path.join(work, f"trace-{dag['name']}.json")
        if not run_timed([bins["wfr"], "run", "--system", system,
                          "--workflow", dag["path"], "--chrome-trace",
                          trace_path], out_path)[2]:
            errors.append(f"{dag['name']}: traced wfr run failed")
            continue
        with open(trace_path) as f:
            errors += refcheck.check_wide(dag, json.load(f), inputs["system"])
    ok = ok and setup.ok
    if not ok:
        errors.append("wfr run exited non-zero")
    # The fastest round is assembled per DAG: each `wfr run` is a repeat
    # of its own, so each DAG's fastest run counts.
    fastest = sum(min(w) for w in dag_walls.values())
    return {"attempted": tasks, "failed": 0 if ok else tasks,
            "errors": errors, "setup_s": min(setup.walls), "walls": walls,
            "fastest": fastest, "work": round_tasks,
            "peak_rss_mb": max(rss), "op": "tasks"}


def wait_healthy(port, deadline_s=30.0):
    request = b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
                s.sendall(request)
                if s.recv(64).startswith(b"HTTP/1.1 200"):
                    return
        except OSError:
            pass
        time.sleep(0.0002)
    raise SystemExit("wfr serve never became healthy")


def start_server(bins):
    """Launches `wfr serve` on a free port; returns (process, port, seconds
    from launch to its first 200 on /healthz)."""
    server = Process([bins["wfr"], "serve", "--port", "0", "--jobs",
                      str(SERVE_JOBS), "--sweep-jobs", "1"], subprocess.PIPE)
    try:
        banner = server.popen.stdout.readline().decode()
        if "listening on http://" not in banner:
            raise SystemExit(f"wfr serve did not start: {banner!r}")
        port = int(banner.split("listening on http://")[1].split()[0]
                   .rsplit(":", 1)[1])
        wait_healthy(port)
    except BaseException:
        server.stop()
        raise
    return server, port, time.perf_counter() - server.started


def stop_server(server):
    """SIGTERM, then wait; True when the server drained and exited 0."""
    server.popen.send_signal(signal.SIGTERM)
    drained = server.wait() == 0
    server.popen.stdout.read()
    return drained


def serve_mixed(bins, seed, seconds, work):
    inputs = gen.gen_serve(seed, work, ROOT)
    server, port, setup = start_server(bins)
    setups, drained = [setup], True
    try:
        responses_path = os.path.join(work, "responses.txt")
        client = subprocess.Popen(
            [bins["client"], "--port", str(port), "--schedule", inputs["path"],
             "--conns", str(SERVE_CONNS), "--seconds", str(seconds),
             "--responses", responses_path], stdout=subprocess.PIPE)
        try:
            # Cold set-up as for the CLI workloads: a throwaway server
            # every SERVE_SETUP_EVERY_S while the client runs, so the
            # launches spread over the run; `setup_s` is the fastest.
            deadline = time.perf_counter() + seconds + 120
            while True:
                try:
                    out, _ = client.communicate(timeout=SERVE_SETUP_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() > deadline:
                        raise SystemExit("perfbench_client did not finish")
                spare, _, setup = start_server(bins)
                try:
                    setups.append(setup)
                    drained = stop_server(spare) and drained
                finally:
                    spare.stop()
        finally:
            if client.poll() is None:
                client.kill()
                client.wait()
        if client.returncode != 0:
            raise SystemExit("perfbench_client failed")
        stats = json.loads(out.decode().strip().splitlines()[-1])
        drained = stop_server(server) and drained
    finally:
        server.stop()

    errors = [] if drained else ["wfr serve did not drain cleanly"]
    variants = read_responses(responses_path)
    errors += refcheck.check_identical(
        {i: [text for _, text in v] for i, v in variants.items()})
    for i, v in variants.items():
        status, text = v[0]
        body = inputs["bodies"][i]
        if status == 200:
            errors += refcheck.check_response(body["endpoint"], body["body"],
                                              text)
    return {"attempted": stats["attempted"], "failed": stats["failed"],
            "errors": errors, "setup_s": min(setups), "stats": stats,
            "peak_rss_mb": server.rss_mb, "op": "requests"}


def read_responses(path):
    """{body id: [(status, response text), ...]} from perfbench_client."""
    variants = {}
    with open(path, "rb") as f:
        while True:
            header = f.readline().split()
            if not header:
                return variants
            body_id, count = int(header[1]), int(header[2])
            seen = []
            for _ in range(count):
                status, length = map(int, f.readline().split())
                seen.append((status, f.read(length).decode()))
                f.read(1)
            variants[body_id] = seen


# --- the traced run ----------------------------------------------------------

def traced_run(bins, seed, work, workload):
    gen.gen_sweep(seed, work)
    gen.gen_serve(seed, work, ROOT)
    gen.gen_wide(seed, work)
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
    check = gen.gen_check(seed)
    result = subprocess.run(
        [bins["layers"], "--dir", work, "--check-base-seed",
         str(check["base_seed"]), "--check-seeds", str(check["seeds"]),
         "--jobs", str(STREAM_SCALING_JOBS),
         "--trace-out", trace_path], stdout=subprocess.PIPE, timeout=170)
    if result.returncode != 0:
        raise SystemExit("perfbench_layers failed")
    metrics = json.loads(result.stdout.decode().strip().splitlines()[-1])
    errors = []
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    ids = {e["args"]["id"] for e in spans}
    if not spans:
        errors.append("trace file holds no spans")
    if any(e["args"]["parent"] not in ids | {0} for e in spans):
        errors.append("trace file holds a span whose parent is missing")
    calls = sum(int(v) for k, v in metrics.items() if k.endswith(".calls"))
    return errors, calls, with_units(metrics, "per_layer")


# --- end-to-end metrics ------------------------------------------------------

def end_to_end(workload, r):
    """The end-to-end metrics of one run, plus a summary on stderr."""
    if "stats" in r:
        st = r["stats"]
        fast = {"throughput": st["best_rate"], "latency_ms": st["best_p50_ms"]}
        mid = {"throughput": st["median_rate"],
               "latency_ms": st["median_p50_ms"]}
        extra = (f", all-request mean {st['mean_ms']:.4f} ms, p50/p90/p99 = "
                 f"{st['p50_ms']:.4f}/{st['p90_ms']:.4f}/{st['p99_ms']:.4f} ms")
        rounds = st["rounds"]
    else:
        # Every round repeats the same work, and interference from other
        # tenants of a shared machine only ever adds time, so the fastest
        # round tracks the program and not its neighbours; it is the gated
        # figure (README.md, "Steadiness").  The median goes to stderr.
        lo = r.get("fastest", min(r["walls"]))
        med = statistics.median(r["walls"])
        fast = {"throughput": r["work"] / lo, "latency_ms": 1000 * lo}
        mid = {"throughput": r["work"] / med, "latency_ms": 1000 * med}
        extra, rounds = "", len(r["walls"])
    log(f"{workload}: {rounds} rounds; fastest round {fast['throughput']:.1f} "
        f"{r['op']}/s, {fast['latency_ms']:.4f} ms; median round "
        f"{mid['throughput']:.1f} {r['op']}/s, {mid['latency_ms']:.4f} ms"
        f"{extra}; peak_rss_mb={r['peak_rss_mb']:.2f} "
        f"setup_s={r['setup_s']:.5f}")
    return with_units(dict(fast, peak_rss_mb=r["peak_rss_mb"],
                           setup_s=r["setup_s"]), "end_to_end")


# --- main --------------------------------------------------------------------

RUNNERS = {"sweep-campaign": sweep_campaign, "serve-mixed": serve_mixed,
           "check-differential": check_differential,
           "simulate-wide": simulate_wide}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins = build()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            errors, attempted, metrics = traced_run(bins, args.seed, work,
                                                    args.workload)
            failed = 0
        else:
            r = RUNNERS[args.workload](bins, args.seed, args.seconds, work)
            errors, attempted, failed = r["errors"], r["attempted"], r["failed"]
            metrics = end_to_end(args.workload, r)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        log("CHECK FAILED: " + e)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
