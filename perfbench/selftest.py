#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

usage: python3 perfbench/selftest.py

Produces a real output of every kind the benchmark checks (small sweep,
`wfr check` report, /v1 responses from a live `wfr serve`, wide-DAG
schedules), requires each check to accept it, then feeds each check a
copy with one value perturbed and requires the check to reject it.
Exits 1 if any check accepts a perturbed output or rejects a real one.
"""

import copy
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys

import gen
import refcheck
import run

failures = []


def expect(name, errors, want_errors, needle=""):
    ok = bool(errors) == want_errors and (
        not want_errors or any(needle in e for e in errors))
    verdict = "rejects" if want_errors else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + ("" if ok else f" (got {errors[:2]})"))
    if not ok:
        failures.append(name)


def sweep_cases(wfr, work):
    inputs = gen.gen_sweep(1, work)
    axes = [[name, values[:3]] for name, values in inputs["axes"]]
    out = subprocess.run(
        [wfr, "sweep", "--system", inputs["paths"]["system"],
         "--characterization", inputs["paths"]["workflow"], "--stream"]
        + gen.sweep_param_flags(axes), stdout=subprocess.PIPE, check=True)
    rows = [json.loads(l) for l in out.stdout.decode().splitlines()
            if l.startswith("{")]
    system, workflow = inputs["system"], inputs["workflow"]
    expect("sweep order, real rows", refcheck.check_sweep_order(rows, axes), False)
    expect("sweep Eq. 1, real rows",
           refcheck.check_sweep_model(rows, system, workflow, axes), False)
    expect("sweep monotonic, real rows",
           refcheck.check_sweep_monotonic(rows, axes), False)

    swapped = rows[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    expect("sweep order, two rows swapped",
           refcheck.check_sweep_order(swapped, axes), True, "not grid point")
    for field in ("attainable_tps", "slot_seconds", "campaign_makespan_s"):
        bad = copy.deepcopy(rows)
        bad[5][field] *= 1.001
        expect(f"sweep Eq. 1, {field} off by 0.1%",
               refcheck.check_sweep_model(bad, system, workflow, axes), True,
               field)
    bad = copy.deepcopy(rows)
    bad[0]["wall"] += 1
    expect("sweep Eq. 1, wall off by one",
           refcheck.check_sweep_model(bad, system, workflow, axes), True, "wall")
    # Row 27 is fs_gbs index 1 above row 0; make it fall below row 0.
    bad = copy.deepcopy(rows)
    bad[27]["attainable_tps"] = bad[0]["attainable_tps"] * 0.5
    expect("sweep monotonic, attainable_tps falls along fs_gbs",
           refcheck.check_sweep_monotonic(bad, axes), True, "fs_gbs")


def check_cases(wfr):
    text = subprocess.run([wfr, "check", "--gen", "irregular", "--seeds", "40"],
                          stdout=subprocess.PIPE, check=True).stdout.decode()
    expect("wfr check report, real", refcheck.check_check_output(text, 40),
           False)
    expect("wfr check report, one divergence",
           refcheck.check_check_output(
               text.replace("40 passed, 0 diverged", "39 passed, 1 diverged"),
               40), True)
    expect("wfr check report, fewer scenarios than requested",
           refcheck.check_check_output(text, 41), True)


def serve_cases(wfr, work):
    inputs = gen.gen_serve(1, work, run.ROOT)
    server = run.Process([wfr, "serve", "--port", "0", "--jobs", "1"],
                         subprocess.PIPE)
    try:
        banner = server.popen.stdout.readline().decode()
        port = int(banner.split("listening on http://")[1].split()[0]
                   .rsplit(":", 1)[1])
        run.wait_healthy(port)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        picked = {}
        for body in inputs["bodies"]:
            picked.setdefault(body["endpoint"], body)
            if body["endpoint"] == "/v1/import" and "system" in body["body"][:12]:
                picked["wrapped import"] = body
        responses = {}
        for key, body in picked.items():
            conn.request("POST", body["endpoint"], body["body"])
            r = conn.getresponse()
            responses[key] = (r.status, r.read().decode())
        conn.request("POST", picked["/v1/roofline"]["endpoint"],
                     picked["/v1/roofline"]["body"])
        repeat = conn.getresponse().read().decode()
        conn.close()
    finally:
        server.popen.send_signal(signal.SIGTERM)
        server.wait()
        server.popen.stdout.read()

    for key, (status, text) in responses.items():
        body = picked[key]
        expect(f"{key} response, real", refcheck.check_response(
            body["endpoint"], body["body"], text) if status == 200 else
            [f"status {status}"], False)

    def perturbed(key, mutate, needle):
        body = picked[key]
        doc = json.loads(responses[key][1])
        mutate(doc)
        expect(f"{key} response, {needle} perturbed", refcheck.check_response(
            body["endpoint"], body["body"], json.dumps(doc)), True, needle)

    def scale(path, factor):
        def mutate(doc):
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] *= factor
        return mutate

    perturbed("/v1/roofline", scale(["ceilings", 0, "seconds_per_task"], 1.01),
              "seconds_per_task")
    perturbed("/v1/roofline", scale(["attainable_tps_at_wall"], 1.01),
              "attainable_tps")
    perturbed("/v1/roofline", scale(["campaign_makespan_seconds"], 1.01),
              "campaign_makespan_s")
    perturbed("/v1/sweep", scale(["points", 7, "slot_seconds"], 1.01),
              "slot_seconds")
    perturbed("/v1/import", scale(["tasks"], 2), "tasks")
    perturbed("wrapped import",
              scale(["workflow", "tasks", 0, "demand", "fs_read"], 1.5),
              "bytes moved")
    expect("identical bodies, real repeat", refcheck.check_identical(
        {0: sorted({responses["/v1/roofline"][1], repeat})}), False)
    changed = repeat.replace('"parallelism_wall":', '"parallelism_wall": ', 1)
    expect("identical bodies, one byte differs", refcheck.check_identical(
        {0: [responses["/v1/roofline"][1], changed]}), True, "different")


def wide_cases(wfr, work):
    inputs = gen.gen_wide(1, work)
    system = inputs["system"]
    for dag in inputs["dags"]:
        trace_path = os.path.join(work, f"trace-{dag['name']}.json")
        subprocess.run([wfr, "run", "--system", inputs["system_path"],
                        "--workflow", dag["path"], "--chrome-trace",
                        trace_path], stdout=subprocess.DEVNULL, check=True)
        with open(trace_path) as f:
            trace = json.load(f)
        expect(f"{dag['name']} schedule, real",
               refcheck.check_wide(dag, trace, system), False)
        tasks = [e for e in trace["traceEvents"] if e.get("ph") == "X" and
                 e.get("pid") == 1 and e.get("cat") != "phase"]

        def variant(mutate):
            t = copy.deepcopy(trace)
            mutate([e for e in t["traceEvents"] if e.get("ph") == "X" and
                    e.get("pid") == 1 and e.get("cat") != "phase"], t)
            return t

        name = dag["name"]
        expect(f"{name}, a task runs twice", refcheck.check_wide(
            dag, variant(lambda ts, t: t["traceEvents"].append(
                copy.deepcopy(ts[1]))), system), True, "ran twice")
        expect(f"{name}, a task never runs", refcheck.check_wide(
            dag, variant(lambda ts, t: t["traceEvents"].remove(ts[1])),
            system), True, "never")
        expect(f"{name}, node pool overcommitted", refcheck.check_wide(
            dag, variant(lambda ts, t: ts[-1]["args"].update(nodes=100000)),
            system), True, "nodes in use")

        def squeeze(factor):
            def mutate(ts, t):
                for e in t["traceEvents"]:
                    if "ts" in e:
                        e["ts"] *= factor
                    if "dur" in e:
                        e["dur"] *= factor
            return mutate

        spans, _ = refcheck.task_spans(trace)
        makespan = refcheck.makespan_of(spans)
        fs_bound = sum(t["demand"]["fs_read"] + t["demand"]["fs_write"]
                       for t in dag["tasks"]) / system["fs_gbs"]
        expect(f"{name}, makespan below the filesystem bound",
               refcheck.check_wide_bounds(dag, refcheck.task_spans(variant(
                   squeeze(0.99 * fs_bound / makespan)))[0], system), True,
               "filesystem bound")
        expect(f"{name}, makespan below the critical path",
               refcheck.check_wide_bounds(dag, refcheck.task_spans(variant(
                   squeeze(1e-6)))[0], system), True, "critical path")
        if dag["closed_form"] is not None:
            last = max(tasks, key=lambda e: e["ts"] + e["dur"])
            expect(f"{name}, makespan off the closed form by 0.1%",
                   refcheck.check_wide(dag, variant(
                       lambda ts, t: [e.update(dur=e["dur"] + 1e-3 * (
                           e["ts"] + e["dur"])) for e in ts
                           if e["name"] == last["name"]]), system), True,
                   "closed form")
        if any(t.get("depends_on") for t in dag["tasks"]):
            child = next(t for t in dag["tasks"] if t.get("depends_on"))
            expect(f"{name}, a task starts before its dependency ends",
                   refcheck.check_wide(dag, variant(
                       lambda ts, t: [e.update(ts=0.0) for e in ts
                                      if e["name"] == child["name"]]),
                       system), True, "started before")


def main():
    bins = run.build()
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        sweep_cases(bins["wfr"], work)
        check_cases(bins["wfr"])
        serve_cases(bins["wfr"], work)
        wide_cases(bins["wfr"], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} self-test failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
