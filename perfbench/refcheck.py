"""Independent correctness checks for the benchmark's outputs.

Nothing here calls into the program: the Workflow Roofline Eq. 1 model,
the WfCommons byte sums and the schedule bounds are re-derived from the
generated inputs.  Every check returns a list of error strings (empty when
the output is correct); selftest.py feeds each check a perturbed copy of a
real output and requires a non-empty list.
"""

import json
import math

REL_TOL = 1e-9     # model values: same IEEE doubles, same operation order
SCHED_TOL = 1e-9   # schedule times, relative to the makespan

# Ceiling order of the model: node-local diagonals, overhead, then the
# shared-system horizontals (ties keep the first ceiling).
_DIAGONALS = [("compute", "flops_per_node", "peak_flops"),
              ("dram", "dram_bytes_per_node", "dram_gbs"),
              ("hbm", "hbm_bytes_per_node", "hbm_gbs"),
              ("pcie", "pcie_bytes_per_node", "pcie_gbs")]


def close(a, b, rel=REL_TOL):
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def ceilings(system, workflow):
    """Eq. 1's ceilings: [(kind, channel, seconds_per_task | tps_limit)],
    plus the parallelism wall floor(total_nodes / nodes_per_task)."""
    node = system["node"]
    out = []
    for channel, volume_key, rate_key in _DIAGONALS:
        volume = workflow.get(volume_key, 0.0)
        if volume > 0.0:
            out.append(("diagonal", channel, volume / node[rate_key]))
    npt = workflow.get("nodes_per_task", 1)
    if workflow.get("network_bytes_per_task", 0.0) > 0.0:
        out.append(("diagonal", "network",
                    workflow["network_bytes_per_task"] / (node["nic_gbs"] * npt)))
    if workflow.get("overhead_seconds_per_task", 0.0) > 0.0:
        out.append(("diagonal", "overhead",
                    workflow["overhead_seconds_per_task"]))
    if workflow.get("fs_bytes_per_task", 0.0) > 0.0:
        out.append(("horizontal", "filesystem",
                    1.0 / (workflow["fs_bytes_per_task"] / system["fs_gbs"])))
    if workflow.get("external_bytes_per_task", 0.0) > 0.0:
        out.append(("horizontal", "external",
                    1.0 / (workflow["external_bytes_per_task"] /
                           system["external_gbs"])))
    return out, system["total_nodes"] // npt


def tps_at(ceiling, p, tasks_per_slot):
    kind, _, value = ceiling
    if kind == "diagonal":
        return p * tasks_per_slot / value
    return value


def summary(system, workflow):
    """Wall, attainable throughput at the wall, binding channel, slot
    seconds (binding ceiling at one task) and campaign makespan."""
    cs, wall = ceilings(system, workflow)
    tasks_per_slot = workflow["total_tasks"] / workflow.get("parallel_tasks", 1)
    best = min(cs, key=lambda c: tps_at(c, float(wall), tasks_per_slot))
    at_one = min(cs, key=lambda c: tps_at(c, 1.0, tasks_per_slot))
    tps = tps_at(best, float(wall), tasks_per_slot)
    return {"wall": wall, "tps": tps, "channel": best[1],
            "slot_seconds": at_one[2] if at_one[0] == "diagonal" else 0.0,
            "campaign": workflow["total_tasks"] / tps,
            "ceilings": cs, "tasks_per_slot": tasks_per_slot}


def _binding_ok(ref, channel, tps):
    """Channel must match, unless two ceilings tie within tolerance."""
    if channel == ref["channel"]:
        return True
    return any(c[1] == channel and
               close(tps_at(c, float(ref["wall"]), ref["tasks_per_slot"]), tps)
               for c in ref["ceilings"])


def _row_errors(where, ref, row):
    errors = []
    if row["wall"] != ref["wall"]:
        errors.append(f"{where}: wall {row['wall']} != {ref['wall']}")
    if not close(row["attainable_tps"], ref["tps"]):
        errors.append(f"{where}: attainable_tps {row['attainable_tps']!r} "
                      f"!= {ref['tps']!r}")
    if not _binding_ok(ref, row["channel"], row["attainable_tps"]):
        errors.append(f"{where}: binding {row['channel']} != {ref['channel']}")
    if not close(row["slot_seconds"], ref["slot_seconds"]):
        errors.append(f"{where}: slot_seconds {row['slot_seconds']!r} != "
                      f"{ref['slot_seconds']!r}")
    if not close(row["campaign_makespan_s"], ref["campaign"]):
        errors.append(f"{where}: campaign_makespan_s "
                      f"{row['campaign_makespan_s']!r} != {ref['campaign']!r}")
    return errors


# --- sweep rows (sweep-campaign NDJSON and /v1/sweep points) -----------------

# Where each grid axis the benchmark sweeps lives in the system spec.
_AXES = {"fs_gbs": ("fs_gbs",), "external_gbs": ("external_gbs",),
         "total_nodes": ("total_nodes",), "peak_flops": ("node", "peak_flops")}


def grid_point(axes, flat):
    """Row-major (first axis slowest) coordinates of grid row `flat`."""
    point = []
    for name, values in reversed(axes):
        flat, i = divmod(flat, len(values))
        point.append((name, values[i]))
    return list(reversed(point))


def apply_point(system, point):
    system = dict(system, node=dict(system["node"]))
    for name, value in point:
        target = system
        for key in _AXES[name][:-1]:
            target = target[key]
        target[_AXES[name][-1]] = value
    return system


def grid_size(axes):
    return math.prod(len(values) for _, values in axes)


def check_sweep_order(rows, axes):
    """Exactly one row per grid point, in row-major grid order."""
    if len(rows) != grid_size(axes):
        return [f"sweep: {len(rows)} rows for a {grid_size(axes)}-point grid"]
    for flat, row in enumerate(rows):
        point = grid_point(axes, flat)
        if list(row["params"].items()) != point:
            return [f"sweep row {flat}: params {row['params']} are not grid "
                    f"point {dict(point)}"]
    return []


def check_sweep_model(rows, system, workflow, axes):
    """Every row matches the reference Eq. 1 at its grid point."""
    errors = []
    for flat, row in enumerate(rows):
        s = apply_point(system, grid_point(axes, flat))
        errors += _row_errors(f"sweep row {flat}", summary(s, workflow), row)
        if len(errors) > 5:
            break
    return errors


def check_sweep_monotonic(rows, axes,
                          increasing_axes=("fs_gbs", "peak_flops")):
    """attainable_tps never decreases along a growing fs_gbs or peak_flops
    axis (every other coordinate held fixed)."""
    if len(rows) != grid_size(axes):
        return ["sweep: row count does not match the grid"]
    stride = grid_size(axes)
    strides = {}
    for name, values in axes:
        stride //= len(values)
        strides[name] = (stride, len(values))
    errors = []
    for name in increasing_axes:
        if name not in strides:
            continue
        step, count = strides[name]
        for flat in range(len(rows)):
            if (flat // step) % count == count - 1:
                continue
            lo = rows[flat]["attainable_tps"]
            hi = rows[flat + step]["attainable_tps"]
            if hi < lo * (1 - REL_TOL):
                errors.append(f"sweep: attainable_tps falls from {lo!r} "
                              f"(row {flat}) to {hi!r} (row {flat + step}) "
                              f"as {name} grows")
                return errors
    return errors


# --- /v1/roofline, /v1/sweep, /v1/import responses ---------------------------

def check_roofline_response(body, response):
    ref = summary(body["system"], body["workflow"])
    errors = _row_errors("roofline", ref, {
        "wall": response["parallelism_wall"],
        "attainable_tps": response["attainable_tps_at_wall"],
        "channel": response["binding"]["channel"],
        "slot_seconds": response["slot_seconds"],
        "campaign_makespan_s": response["campaign_makespan_seconds"]})
    got = [c for c in response["ceilings"] if c["kind"] != "wall"]
    walls = [c for c in response["ceilings"] if c["kind"] == "wall"]
    if [(c["kind"], c["channel"]) for c in got] != \
            [(c[0], c[1]) for c in ref["ceilings"]]:
        errors.append("roofline: ceiling set differs from Eq. 1's")
        return errors
    for c, (kind, channel, value) in zip(got, ref["ceilings"]):
        field = "seconds_per_task" if kind == "diagonal" else "tps_limit"
        if not close(c[field], value):
            errors.append(f"roofline: {channel} {field} {c[field]!r} != "
                          f"{value!r}")
        if kind == "diagonal" and not close(c["tasks_per_instance"],
                                            ref["tasks_per_slot"]):
            errors.append(f"roofline: {channel} tasks_per_instance differs")
    if [w["max_parallel_tasks"] for w in walls] != [ref["wall"]]:
        errors.append("roofline: parallelism wall ceiling differs")
    return errors


def check_sweep_response(body, response):
    axes = [[name, values] for name, values in body["params"].items()]
    rows = response["points"]
    return (check_sweep_order(rows, axes) or
            check_sweep_model(rows, body["system"], body["workflow"], axes))


def wfcommons_totals(doc):
    """(task count, total input+output bytes) of a WfCommons instance, in
    either the 1.4+ specification layout or the legacy inline layout."""
    wf = doc["workflow"]
    if "specification" in wf:
        sizes = {f["id"]: f["sizeInBytes"] for f in wf["specification"]["files"]}
        tasks = wf["specification"]["tasks"]
        total = sum(sizes[name] for t in tasks
                    for name in t.get("inputFiles", []) + t.get("outputFiles", []))
        return len(tasks), total
    tasks = wf["tasks"]
    total = sum(f["size"] for t in tasks for f in t.get("files", [])
                if f.get("link") in ("input", "output"))
    return len(tasks), total


def check_import_response(body, response):
    doc = body["workflow"] if "system" in body else body
    count, total = wfcommons_totals(doc)
    errors = []
    if response["tasks"] != count:
        errors.append(f"import: {response['tasks']} tasks, expected {count}")
    got = sum(t["demand"].get("fs_read", 0) + t["demand"].get("fs_write", 0)
              for t in response["workflow"]["tasks"])
    if not close(got, total):
        errors.append(f"import: {got!r} bytes moved, expected {total!r}")
    if ("system" in body) != ("roofline" in response):
        errors.append("import: roofline section present iff a system is given")
    return errors


def check_response(endpoint, body_text, response_text):
    body, response = json.loads(body_text), json.loads(response_text)
    if endpoint == "/v1/roofline":
        return check_roofline_response(body, response)
    if endpoint == "/v1/sweep":
        return check_sweep_response(body, response)
    return check_import_response(body, response)


def check_identical(variants):
    """variants: {body id: [distinct response bodies seen]}; identical
    request bodies must get byte-identical responses."""
    return [f"body {i}: {len(v)} different responses"
            for i, v in variants.items() if len(v) != 1]


# --- wfr check ---------------------------------------------------------------

def check_check_output(text, seeds):
    """`wfr check` reports exactly the requested scenarios, 0 diverged."""
    want = f"wfr check: {seeds} passed, 0 diverged"
    errors = []
    if want not in text.splitlines():
        errors.append(f"check: missing summary line {want!r}")
    totals = [l.split() for l in text.splitlines() if l.startswith("total ")]
    if len(totals) != 1 or totals[0][1:3] != [str(seeds), "0"]:
        errors.append(f"check: total row is not '{seeds} cases, 0 diverged'")
    return errors


# --- simulate-wide -----------------------------------------------------------

def task_spans(chrome_trace):
    """{task name: (start s, end s, nodes, attempts)} from a `wfr run
    --chrome-trace` file (pid 1 task events; phases carry cat "phase")."""
    spans = {}
    duplicates = []
    for e in chrome_trace["traceEvents"]:
        if e.get("ph") != "X" or e.get("pid") != 1 or e.get("cat") == "phase":
            continue
        if e["name"] in spans:
            duplicates.append(e["name"])
        start = e["ts"] / 1e6
        spans[e["name"]] = (start, start + e["dur"] / 1e6,
                            e["args"]["nodes"], e["args"]["attempts"])
    return spans, duplicates


def uncontended_seconds(task, system):
    d = task["demand"]
    return (d.get("overhead", 0.0) + d.get("fs_read", 0.0) / system["fs_gbs"] +
            d.get("flops_per_node", 0.0) / system["node"]["peak_flops"] +
            d.get("fs_write", 0.0) / system["fs_gbs"])


def closed_form_makespan(dag, system):
    """Identical tasks run in full waves of floor(nodes / task nodes); a
    wave of m tasks shares the filesystem m ways in its read and write
    phases, so it lasts overhead + m*(read+write)/fs + flops/peak."""
    cf = dag["closed_form"]
    spec, count = cf["spec"], cf["count"]
    per_wave = system["total_nodes"] // spec["nodes"]
    waves = [per_wave] * (count // per_wave) + (
        [count % per_wave] if count % per_wave else [])
    t = sum(spec["overhead"] + m * spec["fs_read"] / system["fs_gbs"] +
            spec["flops"] / system["node"]["peak_flops"] +
            m * spec["fs_write"] / system["fs_gbs"] for m in waves)
    for end in ("root", "sink"):
        if end in cf:
            t += uncontended_seconds(cf[end], system)
    return t


def check_wide_once(dag, spans, duplicates):
    names = {t["name"] for t in dag["tasks"]}
    errors = [f"{dag['name']}: task {n} ran twice" for n in duplicates[:3]]
    if set(spans) != names:
        errors.append(f"{dag['name']}: {len(names - set(spans))} tasks never "
                      f"ran, {len(set(spans) - names)} unknown tasks ran")
    errors += [f"{dag['name']}: task {n} took {s[3]} attempts"
               for n, s in spans.items() if s[3] != 1][:3]
    return errors


def check_wide_precedence(dag, spans):
    for t in dag["tasks"]:
        for dep in t.get("depends_on", []):
            if t["name"] in spans and dep in spans and \
                    spans[t["name"]][0] < spans[dep][1] - 1e-9 * spans[dep][1]:
                return [f"{dag['name']}: {t['name']} started before {dep} "
                        f"ended"]
    return []


def check_wide_nodes(dag, spans, system):
    # A task's end and its successor's start are the same instant written
    # through different float sums, so releases move SCHED_TOL earlier.
    eps = SCHED_TOL * makespan_of(spans)
    events = []
    for start, end, nodes, _ in spans.values():
        events.append((start, nodes))
        events.append((end - eps, -nodes))
    used = peak = 0
    for _, delta in sorted(events):
        used += delta
        peak = max(peak, used)
    if peak > system["total_nodes"]:
        return [f"{dag['name']}: {peak} nodes in use on a "
                f"{system['total_nodes']}-node machine"]
    return []


def makespan_of(spans):
    return max(end for _, end, _, _ in spans.values())


def check_wide_bounds(dag, spans, system):
    """makespan >= the critical path of uncontended task times, and
    >= all filesystem bytes / filesystem bandwidth."""
    makespan = makespan_of(spans)
    finish = {}
    for t in dag["tasks"]:   # tasks are written in topological order
        ready = max((finish[d] for d in t.get("depends_on", [])), default=0.0)
        finish[t["name"]] = ready + uncontended_seconds(t, system)
    errors = []
    critical = max(finish.values())
    if makespan < critical * (1 - SCHED_TOL):
        errors.append(f"{dag['name']}: makespan {makespan!r} below the "
                      f"critical path {critical!r}")
    fs_bytes = sum(t["demand"].get("fs_read", 0.0) +
                   t["demand"].get("fs_write", 0.0) for t in dag["tasks"])
    if makespan < fs_bytes / system["fs_gbs"] * (1 - SCHED_TOL):
        errors.append(f"{dag['name']}: makespan {makespan!r} below the "
                      f"filesystem bound {fs_bytes / system['fs_gbs']!r}")
    return errors


def check_wide_closed_form(dag, spans, system):
    if dag["closed_form"] is None:
        return []
    want = closed_form_makespan(dag, system)
    got = makespan_of(spans)
    if not close(got, want, 1e-9):
        return [f"{dag['name']}: makespan {got!r} != closed form {want!r}"]
    return []


def check_wide(dag, chrome_trace, system):
    spans, duplicates = task_spans(chrome_trace)
    return (check_wide_once(dag, spans, duplicates) +
            check_wide_precedence(dag, spans) +
            check_wide_nodes(dag, spans, system) +
            check_wide_bounds(dag, spans, system) +
            check_wide_closed_form(dag, spans, system))
