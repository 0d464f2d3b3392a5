"""seprkit benchmark: one command for every workload.

    python3 perfbench/run.py --workload hunt --seed 1729 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src``.
Each workload is a closed loop in fresh child processes (see worker.py),
one CLI call after another, with no worker pool.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``hermitian_ms`` / ``real_ms``: median wall ms per work unit of each
  field -- per sample (hunt), per cold census child running catalog
  verify and the order-2 and order-3 census (census), per set of three
  matrix files of orders 8, 10 and 12 (compute-*);
* ``setup_s``: median time from spawning a child until seprkit is
  imported and its one-time tables are built, over SETUP_PROBES children;
* ``peak_rss_mb``: the largest peak resident set of a workload child.

``--trace 1`` runs a fixed amount of work (set by the seed and
``--seconds`` alone, so counts repeat) once untraced and once traced,
checks that both print the same, and reports the per-layer metrics.

Every CLI call's output is checked (checks.py).  The last stdout line is
the JSON result; a human summary and the run's metadata go to stderr and
to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import matrices  # noqa: E402
import reference  # noqa: E402

DEFAULT_SEED = 1729
FIELDS = ("hermitian", "real")
WORKLOADS = {"hunt": "hunt", "census": "census", "compute-dense": "dense", "compute-lowrank": "lowrank"}
SETUP_PROBES = 11
DIGEST_UNITS = 4  # leading units of a compute run whose output is digested
# rough wall seconds per unit, used only to size the fixed traced pass
TRACE_UNIT_S = {"hunt": 0.55, "dense": 0.35, "lowrank": 0.25}
TRACE_SHARE = 0.3  # share of --seconds the untraced half of a trace run takes
CHILD_TIMEOUT_S = 170
OUT = ROOT / ".perfbench"
# as in seprkit.properties.SUITE_CHECKS; this process does not import seprkit
SUITE_CHECKS = (
    "last-term", "double-N-tail", "initial-pair", "rank-is-principal", "same-sign-at-rank",
    "rank-drop-on-deletion", "inheritance", "inverse-relation", "negation-rule",
    "permutation-invariance", "append-zero", "append-duplicate", "real-SNA-window",
    "scan-clean", "underlying-consistency",
)
SPANNED = (
    "exact.parse", "matrix.construct", "matrix.minor_signs", "matrix.rank", "matrix.grid_rank",
    "matrix.inverse", "matrix.transform", "sepr.compute_sepr", "sepr.compute_epr", "classify.scan",
    "catalog.build_witness", "search.random_matrix", "search.sweep",
) + tuple(f"properties.check.{name}" for name in SUITE_CHECKS)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def spawn(job, log_name, importtime=False):
    """Run one worker; returns its result with ``setup_s`` and, under
    ``importtime``, the per-module import self times in seconds."""
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [str(HERE / "worker.py"), json.dumps(job)]
    log = OUT / "logs" / f"{log_name}.err"
    with open(log, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        # communicate() would bypass the buffer readline() fills, so read
        # plainly and let a timer end a child that overruns
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0 or not ready.strip():
        raise BenchError(f"worker failed with status {proc.returncode}:\n{stderr.strip()[-2000:]}")
    result = json.loads(rest)
    result["kind"] = job["kind"]
    result["setup_s"] = setup_s
    result["tables_s"] = json.loads(ready)["tables_s"]
    if importtime:
        result["import_self_s"] = parse_importtime(stderr)
    return result


def parse_importtime(text):
    times = {}
    for line in text.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, module = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                times[module.strip()] = int(self_us) / 1e6
    return times


def run_workload(workload, seed, budget_s, units=None, trace_tag=None):
    """Run a workload's children; ``units`` fixes the number of units (of
    census repeats) instead of filling ``budget_s``."""
    kind = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}" + (f"-{trace_tag}" if trace_tag else "")

    def job(**extra):
        # a census child runs its three calls as three units
        base = {"kind": kind, "seed": seed, "budget_s": budget_s, "min_units": 3, "max_units": 3}
        if trace_tag:
            base["trace_path"] = str(OUT / "trace" / f"{tag}-{extra.get('field', 'all')}.json")
        return {**base, **extra}

    if kind != "census":
        # a timed child always runs the units the digest covers
        extra = {"min_units": units or DIGEST_UNITS, "max_units": units or 10**9}
        if kind in ("dense", "lowrank"):
            extra["input_dir"] = str(OUT / "inputs" / tag)
            Path(extra["input_dir"]).mkdir(parents=True, exist_ok=True)
        try:
            return [spawn(job(**extra), tag, importtime=bool(trace_tag))]
        finally:
            if "input_dir" in extra:
                shutil.rmtree(extra["input_dir"], ignore_errors=True)
    # the census: one cold child per field and repeat, so the module-level
    # sweep cache never carries over between fields or repeats
    children, began, rep_s, rep = [], time.perf_counter(), 0.0, 0
    while rep < (units or 10**9) and (rep == 0 or units or time.perf_counter() - began + rep_s / 2 <= budget_s):
        start = time.perf_counter()
        for field in (FIELDS if rep % 2 == 0 else FIELDS[::-1]):
            children.append(spawn(job(field=field), f"{tag}-{field}-{rep}", importtime=bool(trace_tag)))
        rep_s = time.perf_counter() - start
        rep += 1
    return children


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


class Gates:
    """Counts gates applied and failed, keeping every failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, where, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{where}: {problem}" for problem in problems]

    def outputs(self, kind, children):
        for child in children:
            for unit in child["units"]:
                for call in unit["calls"]:
                    self.record(" ".join(call["argv"]), checks.check_call(call, kind))


def output_digest(children):
    units = [unit for child in children for unit in child["units"]][:DIGEST_UNITS]
    text = "".join(call["stdout"] for unit in units for call in unit["calls"])
    return hashlib.sha256(text.encode()).hexdigest()


def gate_digest(gates, workload, seed, children):
    """At the default seed, compute output must match the recorded digest."""
    units = sum(len(child["units"]) for child in children)
    if WORKLOADS[workload] not in ("dense", "lowrank") or seed != DEFAULT_SEED or units < DIGEST_UNITS:
        return
    expected = json.loads((HERE / "expected.json").read_text())["digests"].get(workload)
    got = output_digest(children)
    gates.record("output digest", [] if got == expected else [f"{got} != recorded {expected}"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def unit_items(unit):
    """Work items in a unit: samples for the hunt, else the unit itself."""
    return sum(int(c["argv"][c["argv"].index("--samples") + 1]) for c in unit["calls"] if "--samples" in c["argv"]) or 1


def scaled_wall(unit):
    return unit["wall_s"] * reference.NOMINAL_S / unit["reference_s"]


def child_scale(child):
    """Factor that puts a child's raw times at the reference speed."""
    return sum(scaled_wall(u) for u in child["units"]) / sum(u["wall_s"] for u in child["units"])


def field_times(children, scaled=True):
    """Per field, wall ms per work item: one value per hunt unit (per
    sample) or compute set, one per census child (its three calls summed).
    ``scaled`` expresses them at the reference speed."""

    def ms(unit):
        return 1000 * (scaled_wall(unit) if scaled else unit["wall_s"])

    times = {field: [] for field in FIELDS}
    for child in children:
        if child["kind"] == "census":
            times[child["units"][0]["field"]].append(sum(ms(u) for u in child["units"]))
        else:
            for unit in child["units"]:
                times[unit["field"]].append(ms(unit) / unit_items(unit))
    return times


def end_to_end(children, setup):
    metrics = {}
    for field, values in field_times(children).items():
        metrics[f"{field}_ms"] = {"value": statistics.median(values), "unit": "ms"}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    peak = max(child["maxrss_kb"] for child in children) / 1024
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


def named_metrics(workload, children):
    """Unscaled wall-clock figures under workload-specific names."""
    units = [unit for child in children for unit in child["units"]]
    named = {f"raw_{field}_ms": (statistics.median(values), "ms") for field, values in field_times(children, scaled=False).items()}
    for field in FIELDS:
        mine = [u for u in units if u["field"] == field]
        if workload == "hunt":
            rate = sum(unit_items(u) for u in mine) / sum(u["wall_s"] for u in mine)
            named[f"hunt_{field}_samples_per_s"] = (rate, "1/s")
        elif workload == "census":
            per_child = [sum(u["wall_s"] for u in child["units"][1:]) for child in children if child["units"][0]["field"] == field]
            named[f"census_{field}_s"] = (statistics.median(per_child), "s")
        else:
            minors = sum(2 ** matrices.order_of(c["argv"][1]) - 1 for u in mine for c in u["calls"])
            rate = minors / sum(u["wall_s"] for u in mine)
            named[f"compute_{WORKLOADS[workload]}_{field}_minors_per_s"] = (rate, "1/s")
    if workload == "census":
        named["catalog_verify_s"] = (statistics.median(child["units"][0]["wall_s"] for child in children), "s")
    return named


def merge_traces(children):
    stats, counters, sweep_calls, sweep_hits = {}, {}, 0, 0
    for child in children:
        trace, scale = child["trace"], child_scale(child)
        for name, entry in trace["summary"].items():
            into = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}})
            into["calls"] += entry["calls"]
            into["total_s"] += entry["total_s"] * scale
            into["self_s"] += entry["self_s"] * scale
            for kid, count in entry["children"].items():
                into["children"][kid] = into["children"].get(kid, 0) + count
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        sweep_calls += trace["sweep_calls"]
        sweep_hits += trace["sweep_hits"]
    return stats, counters, sweep_calls, sweep_hits


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(plain, traced):
    stats, counters, sweep_calls, sweep_hits = merge_traces(traced)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}}

    def get(name):
        return stats.get(name, empty)

    values = {
        "exact.gaussian_ops": counters.get("exact.gaussian_ops", 0),
        "exact.sqrt5_ops": counters.get("exact.sqrt5_ops", 0),
    }
    for name in SPANNED:
        values[f"{name}.calls"] = get(name)["calls"]
        values[f"{name}.self_s"] = get(name)["self_s"]
    minors = counters.get("matrix.minors.count", 0)
    values["matrix.minors.count"] = minors
    values["matrix.minor_table.hit_ratio"] = ratio(counters.get("matrix.minor_table.hits", 0), counters.get("matrix.minor_table.calls", 0))
    values["matrix.zero_minor_ratio"] = ratio(counters.get("matrix.minors.zero", 0), minors)
    values["search.sweep.matrices"] = get("search.sweep")["children"].get("sepr.compute_sepr", 0)
    values["search.sweep.cache_hit_ratio"] = ratio(sweep_hits, sweep_calls)
    values["search.completions.matrices"] = counters.get("search.completions.items", 0)
    values["search.completions.self_s"] = get("search.completions")["self_s"]
    values["properties.run_suite.self_s"] = get("properties.run_suite")["self_s"]
    values["cli.main.self_s"] = get("cli.main")["self_s"]
    values["classify.setup_s"] = statistics.median(
        (child["import_self_s"].get("seprkit.classify", 0.0) + child["tables_s"]) * child_scale(child) for child in traced
    )

    calls = [call for child in traced for unit in child["units"] for call in unit["calls"]]
    values["catalog.mismatches"] = sum(c["stdout"].count("\tfail\n") for c in calls if c["argv"][0] == "catalog")
    values["properties.violations"] = sum(
        int(line.split("\t")[1]) for c in calls for line in c["stdout"].splitlines() if line.startswith("violations\t")
    )
    values["search.census.open"] = sum(c["stdout"].count("\topen\t") for c in calls if c["argv"][0] == "search")
    values["cli.stdout_bytes"] = sum(len(c["stdout"].encode()) for c in calls)

    plain_wall = sum(scaled_wall(u) for child in plain for u in child["units"])
    traced_wall = sum(scaled_wall(u) for child in traced for u in child["units"])
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_ratio"] = ratio(traced_wall - plain_wall, plain_wall)
    # both sides scaled alike and both include the speed probes' own time
    covered = get("cli.main")["total_s"] - get("cli.main")["self_s"]
    spanned_wall = sum((u["end"] - u["start"]) * child_scale(child) for child in traced for u in child["units"])
    values["trace.span_share"] = ratio(covered, spanned_wall)
    return {name: {"value": value, "unit": metric_unit(name)} for name, value in values.items()}


def metric_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def per_layer_names():
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = ["exact.gaussian_ops", "exact.sqrt5_ops"]
    for name in SPANNED:
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + [
        "matrix.minors.count", "matrix.minor_table.hit_ratio", "matrix.zero_minor_ratio",
        "search.sweep.matrices", "search.sweep.cache_hit_ratio", "search.completions.matrices",
        "search.completions.self_s", "properties.run_suite.self_s", "cli.main.self_s", "classify.setup_s",
        "catalog.mismatches", "properties.violations", "search.census.open", "cli.stdout_bytes",
        "trace.overhead_s", "trace.overhead_ratio", "trace.span_share",
    ]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measure_setup(workload, seed):
    """Start-up time of each probe child, raw and at the reference speed
    (timed in this process just before and after the child)."""
    raw, scaled, before = [], [], reference.speed()
    for i in range(SETUP_PROBES):
        setup_s = spawn({"kind": "setup", "seed": seed}, f"{workload}-seed{seed}-setup{i}")["setup_s"]
        after = reference.speed()
        raw.append(setup_s)
        scaled.append(setup_s * reference.NOMINAL_S / ((before + after) / 2))
        before = after
    return raw, scaled


def timed_run(workload, seed, seconds, gates):
    raw_setup, setup = measure_setup(workload, seed)
    children = run_workload(workload, seed, seconds)
    gates.outputs(WORKLOADS[workload], children)
    gate_digest(gates, workload, seed, children)
    named = named_metrics(workload, children)
    named["raw_setup_s"] = (statistics.median(raw_setup), "s")
    info = {"digest": output_digest(children), "named": named}
    return end_to_end(children, setup), children, info


def trace_units(workload, seconds):
    kind = WORKLOADS[workload]
    if kind == "census":
        return 1
    pairs = max(1, round(seconds * TRACE_SHARE / TRACE_UNIT_S[kind] / 2))
    return 2 * pairs


def traced_run(workload, seed, seconds, gates):
    units = trace_units(workload, seconds)
    plain = run_workload(workload, seed, 0, units=units)
    traced = run_workload(workload, seed, 0, units=units, trace_tag="traced")
    gates.outputs(WORKLOADS[workload], plain)
    gates.outputs(WORKLOADS[workload], traced)
    gate_digest(gates, workload, seed, plain)
    plain_calls = [c for child in plain for u in child["units"] for c in u["calls"]]
    traced_calls = [c for child in traced for u in child["units"] for c in u["calls"]]
    gates.record("traced call count", [] if len(plain_calls) == len(traced_calls) else ["differs from untraced"])
    for a, b in zip(plain_calls, traced_calls):
        same = (a["rc"], a["stdout"]) == (b["rc"], b["stdout"])
        gates.record(" ".join(a["argv"]), [] if same else ["traced output differs from untraced"])
    return layer_metrics(plain, traced), plain + traced, {}


def metadata(workload, seed, seconds, trace, children):
    units = [u for child in children for u in child["units"]]
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seprkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "units": {field: sum(1 for u in units if u["field"] == field) for field in FIELDS},
        "items": {field: sum(unit_items(u) for u in units if u["field"] == field) for field in FIELDS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "seprkit" / "cli.py").is_file():
        print(f"error: no seprkit sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    for sub in ("logs", "trace", "inputs", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    gates = Gates()
    run = traced_run if args.trace else timed_run
    try:
        metrics, children, info = run(args.workload, args.seed, args.seconds, gates)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed_ratio = gates.failed / gates.attempted
    result = {"correct": gates.failed == 0, "attempted": gates.attempted, "failed": gates.failed, "metrics": metrics}
    record = {**metadata(args.workload, args.seed, args.seconds, args.trace, children), **info}
    record.update(result, failed_ratio=failed_ratio, problems=gates.problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} nproc={record['nproc']} "
          f"python={record['python']} commit={record['commit']} units={record['units']} items={record['items']}", file=sys.stderr)
    for key, (value, unit) in info.get("named", {}).items():
        print(f"{key}\t{value:.6g}\t{unit}", file=sys.stderr)
    print(f"failed_ratio\t{failed_ratio:.6g}\tratio", file=sys.stderr)
    for problem in gates.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
