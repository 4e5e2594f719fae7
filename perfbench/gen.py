"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the seed: the same seed writes the
same bytes.  The program under test only ever sees the files written here
(plus the three WfCommons instances checked in under data/wfcommons/).
"""

import json
import os
import random

WFCOMMONS = ["montage-small.json", "epigenomics-small.json",
             "seismology-legacy.json"]

# sweep-campaign grid: 40 x 25 x 6 x 5 = 30000 all-distinct points.
SWEEP_AXES = [("fs_gbs", 40, 2e11, 8e12), ("peak_flops", 25, 5e11, 2e13),
              ("external_gbs", 6, 1e9, 4e10), ("total_nodes", 5, 256, 4096)]
CHECK_SEEDS = 1000          # scenarios per `wfr check` invocation
SERVE_ROUND = 2048          # requests in one round of the serve schedule
SERVE_REPEAT_POOL = 32      # distinct bodies behind the repeated roofline share
SERVE_SWEEP_POOL = 8        # distinct /v1/sweep grids
SERVE_SWEEP_SIDE = 6        # each grid is 6 x 6 points
WIDE_SYSTEM_NODES = 512
# simulate-wide DAG widths (fixed, so every seed does the same amount of
# scheduling work; the seed draws the task volumes and the random edges).
WIDE_WAVES = 2800
WIDE_FAN = 2200
WIDE_LEVELS = [900, 900, 900]


def _sig(x, digits=4):
    """x rounded to `digits` significant digits (keeps %g labels distinct)."""
    return float(f"{x:.{digits - 1}e}")


def _log_uniform(rng, lo, hi):
    return _sig(lo * (hi / lo) ** rng.random())


def _stratified(rng, count, lo, hi, integer=False):
    """`count` ascending distinct values, one drawn from each of `count`
    equal (log-scale for floats) strata of [lo, hi]: every seed covers
    the range the same way, so every seed's grid costs about the same."""
    values = []
    for i in range(count):
        u = (i + rng.random()) / count
        values.append(int(lo + (hi - lo) * u) if integer
                      else _sig(lo * (hi / lo) ** u))
    if len(set(values)) != count:
        raise ValueError("strata too narrow for distinct values")
    return values


def random_system(rng, name):
    return {
        "name": name,
        "total_nodes": rng.randint(256, 4096),
        "node": {
            "peak_flops": _log_uniform(rng, 5e11, 4e13),
            "dram_gbs": _log_uniform(rng, 5e10, 4e11),
            "hbm_gbs": _log_uniform(rng, 5e11, 6e12),
            "pcie_gbs": _log_uniform(rng, 1e10, 1e11),
            "nic_gbs": _log_uniform(rng, 5e9, 5e10),
        },
        "fs_gbs": _log_uniform(rng, 2e11, 8e12),
        "external_gbs": _log_uniform(rng, 1e9, 4e10),
    }


def random_characterization(rng, name, with_measurement):
    total = rng.randint(50, 20000)
    c = {
        "name": name,
        "total_tasks": total,
        "parallel_tasks": rng.randint(1, min(total, 2048)),
        "nodes_per_task": rng.choice([1, 1, 2, 4, 8, 16]),
        "flops_per_node": _log_uniform(rng, 1e13, 1e17),
        "dram_bytes_per_node": _log_uniform(rng, 1e11, 1e14),
        "network_bytes_per_task": _log_uniform(rng, 1e9, 1e12),
        "fs_bytes_per_task": _log_uniform(rng, 1e9, 1e12),
        "external_bytes_per_task": _log_uniform(rng, 1e7, 1e11),
        "overhead_seconds_per_task": _sig(rng.uniform(0.5, 60.0)),
    }
    if rng.random() < 0.5:
        c["hbm_bytes_per_node"] = _log_uniform(rng, 1e11, 1e14)
        c["pcie_bytes_per_node"] = _log_uniform(rng, 1e9, 1e12)
    if with_measurement:
        c["makespan_seconds"] = _sig(rng.uniform(600.0, 86400.0))
    return c


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))


# --- sweep-campaign ----------------------------------------------------------

# The campaign's base system and workflow are fixed so that every seed's
# grid mixes the same binding ceilings (compute, filesystem, external) and
# costs the same to format; the seed draws the axis values.
SWEEP_SYSTEM = {
    "name": "campaign-system", "total_nodes": 4096,
    "node": {"peak_flops": 5e12, "dram_gbs": 2e11, "hbm_gbs": 2e12,
             "pcie_gbs": 5e10, "nic_gbs": 2.5e10},
    "fs_gbs": 1e12, "external_gbs": 1e10}
SWEEP_WORKFLOW = {
    "name": "campaign", "total_tasks": 10000, "parallel_tasks": 1000,
    "nodes_per_task": 4, "flops_per_node": 2e15, "dram_bytes_per_node": 1e13,
    "hbm_bytes_per_node": 4e13, "pcie_bytes_per_node": 1e11,
    "network_bytes_per_task": 5e11, "fs_bytes_per_task": 2e11,
    "external_bytes_per_task": 2e9, "overhead_seconds_per_task": 10.0}


def gen_sweep(seed, out_dir):
    rng = random.Random(f"sweep-campaign/{seed}")
    system, workflow = SWEEP_SYSTEM, SWEEP_WORKFLOW
    axes = []
    for name, count, lo, hi in SWEEP_AXES:
        axes.append([name, _stratified(rng, count, lo, hi,
                                            integer=(name == "total_nodes"))])
    paths = {"system": os.path.join(out_dir, "sweep-system.json"),
             "workflow": os.path.join(out_dir, "sweep-workflow.json"),
             "axes": os.path.join(out_dir, "sweep-axes.json")}
    _write_json(paths["system"], system)
    _write_json(paths["workflow"], workflow)
    _write_json(paths["axes"], axes)
    return {"system": system, "workflow": workflow, "axes": axes,
            "paths": paths}


def sweep_param_flags(axes):
    flags = []
    for name, values in axes:
        flags += ["--param", name + "=" + ",".join(repr(v) for v in values)]
    return flags


# --- serve-mixed -------------------------------------------------------------

def _wfcommons_docs(repo_root):
    docs = []
    for name in WFCOMMONS:
        with open(os.path.join(repo_root, "data", "wfcommons", name)) as f:
            docs.append(f.read())
    return docs


def gen_serve(seed, out_dir, repo_root):
    """One round of the serve schedule: SERVE_ROUND requests, shuffled.

    Mix per round: 70% /v1/roofline with a body used once per round, 10%
    /v1/roofline drawn from a pool of 32 repeated bodies, 12% /v1/sweep
    drawn from a pool of 8 grids of 6 x 6 points (so the shared memo
    cache hits),
    8% /v1/import of the three WfCommons instances, bare or wrapped with
    a system.  The shares and pool sizes are assumptions, not measured
    traffic: no traffic record exists to derive them from, so they render
    "mostly distinct roofline bodies, some repeats, some small sweeps from
    a small pool, some imports".  The memo-cache hit ratio of the serve
    workload follows from these choices.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    bodies = []        # distinct request bodies, indexed by body id

    def roofline_body(tag):
        system = random_system(rng, "sys-" + tag)
        workflow = random_characterization(rng, "wf-" + tag,
                                           rng.random() < 0.5)
        # A measured operating point must sit left of the parallelism wall.
        workflow["parallel_tasks"] = min(
            workflow["parallel_tasks"],
            system["total_nodes"] // workflow["nodes_per_task"])
        return json.dumps({"system": system, "workflow": workflow},
                          separators=(",", ":"))

    def add(endpoint, body):
        bodies.append({"endpoint": endpoint, "body": body})
        return len(bodies) - 1

    n_distinct = int(SERVE_ROUND * 0.70)
    n_repeat = int(SERVE_ROUND * 0.10)
    n_sweep = int(SERVE_ROUND * 0.12)
    n_import = SERVE_ROUND - n_distinct - n_repeat - n_sweep

    schedule = [add("/v1/roofline", roofline_body(f"d{i}"))
                for i in range(n_distinct)]
    repeat_pool = [add("/v1/roofline", roofline_body(f"r{i}"))
                   for i in range(SERVE_REPEAT_POOL)]
    schedule += [rng.choice(repeat_pool) for _ in range(n_repeat)]

    sweep_pool = []
    for i in range(SERVE_SWEEP_POOL):
        body = {"system": random_system(rng, f"sweep-sys-{i}"),
                "workflow": random_characterization(rng, f"sweep-wf-{i}",
                                                    False),
                "params": {
                    "fs_gbs": _stratified(rng, SERVE_SWEEP_SIDE, 2e11,
                                               8e12),
                    "peak_flops": _stratified(rng, SERVE_SWEEP_SIDE,
                                                   5e11, 4e13)}}
        sweep_pool.append(add("/v1/sweep", json.dumps(body,
                                                      separators=(",", ":"))))
    schedule += [rng.choice(sweep_pool) for _ in range(n_sweep)]

    import_pool = []
    for i, text in enumerate(_wfcommons_docs(repo_root)):
        import_pool.append(add("/v1/import", text))
        wrapped = ('{"system":' + json.dumps(random_system(rng, f"imp-{i}"),
                                             separators=(",", ":")) +
                   ',"workflow":' + text + "}")
        import_pool.append(add("/v1/import", wrapped))
    schedule += [rng.choice(import_pool) for _ in range(n_import)]
    rng.shuffle(schedule)

    # Schedule file read by perfbench_client: one header line per distinct
    # body ("B <id> <endpoint> <length>\n" + body bytes + "\n"), then the
    # round as one "S <id> <id> ...\n" line.
    path = os.path.join(out_dir, "serve-schedule.txt")
    with open(path, "wb") as f:
        for i, b in enumerate(bodies):
            data = b["body"].encode()
            f.write(f"B {i} {b['endpoint']} {len(data)}\n".encode())
            f.write(data + b"\n")
        f.write(("S " + " ".join(map(str, schedule)) + "\n").encode())
    return {"bodies": bodies, "schedule": schedule, "path": path}


# --- check-differential ------------------------------------------------------

def gen_check(seed):
    rng = random.Random(f"check-differential/{seed}")
    return {"base_seed": rng.randrange(1, 2**62), "seeds": CHECK_SEEDS}


# --- simulate-wide -----------------------------------------------------------

def wide_system():
    return {"name": "wide-cluster", "total_nodes": WIDE_SYSTEM_NODES,
            "node": {"peak_flops": 1e12, "dram_gbs": 1e11, "nic_gbs": 1e10},
            "fs_gbs": 2e11, "external_gbs": 1e10}


def _task(name, nodes, overhead, fs_read, flops, fs_write, deps=()):
    t = {"name": name, "nodes": nodes,
         "demand": {"overhead": overhead, "fs_read": fs_read,
                    "flops_per_node": flops, "fs_write": fs_write}}
    if deps:
        t["depends_on"] = list(deps)
    return t


def gen_wide(seed, out_dir):
    """Three DAGs, each thousands of tasks wide on a 512-node machine.

    waves:   identical independent 2-node tasks; the schedule runs in full
             waves of 256 tasks, so the makespan has a closed form.
    fan:     root -> identical middle tasks -> sink; closed form as well.
    layered: three levels of heterogeneous tasks with random edges; checked
             against the lower bounds only.
    """
    rng = random.Random(f"simulate-wide/{seed}")
    dags = []

    def identical(prefix, count):
        spec = dict(nodes=2, overhead=_sig(rng.uniform(0.5, 5.0)),
                    fs_read=_log_uniform(rng, 1e9, 2e10),
                    flops=_log_uniform(rng, 1e13, 1e14),
                    fs_write=_log_uniform(rng, 1e9, 2e10))
        tasks = [_task(f"{prefix}_{i}", **spec) for i in range(count)]
        return tasks, spec

    tasks, spec = identical("m", WIDE_WAVES)
    dags.append({"name": "waves", "tasks": tasks,
                 "closed_form": {"count": len(tasks), "spec": spec}})

    tasks, spec = identical("m", WIDE_FAN)
    root = _task("root", 1, 1.0, 0, _log_uniform(rng, 1e12, 1e13), 0)
    sink = _task("sink", 1, 1.0, 0, _log_uniform(rng, 1e12, 1e13), 0)
    for t in tasks:
        t["depends_on"] = ["root"]
    sink["depends_on"] = [t["name"] for t in tasks]
    dags.append({"name": "fan", "tasks": [root] + tasks + [sink],
                 "closed_form": {"count": len(tasks), "spec": spec,
                                 "root": root, "sink": sink}})

    levels = WIDE_LEVELS
    tasks, prev = [], []
    for depth, width in enumerate(levels):
        names = []
        for i in range(width):
            name = f"l{depth}_{i}"
            deps = sorted(set(rng.sample(prev, rng.randint(1, 3)))) if prev else []
            tasks.append(_task(name, rng.choice([1, 2, 4, 8]),
                               _sig(rng.uniform(0.1, 5.0)),
                               _log_uniform(rng, 1e8, 2e10),
                               _log_uniform(rng, 1e12, 1e14),
                               _log_uniform(rng, 1e8, 2e10), deps))
            names.append(name)
        prev = names
    dags.append({"name": "layered", "tasks": tasks, "closed_form": None})

    system_path = os.path.join(out_dir, "wide-system.json")
    _write_json(system_path, wide_system())
    for dag in dags:
        dag["path"] = os.path.join(out_dir, f"wide-{dag['name']}.json")
        _write_json(dag["path"], {"name": dag["name"], "tasks": dag["tasks"]})
    return {"system": wide_system(), "system_path": system_path, "dags": dags}
