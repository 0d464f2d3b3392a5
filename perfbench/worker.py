"""One benchmark child process.

Usage: python3 perfbench/worker.py JOB_JSON

Imports seprkit from the checkout's ``src`` and builds its one-time tables,
then prints a ``ready`` line; the parent times its start-up up to that line.
It then runs the job's units, each a short list of CLI argument lists, by
calling ``seprkit.cli.main(argv)`` in this process with stdout and stderr
captured, and prints one JSON line with every call's exit code, output and
wall time.  Inputs are made before a unit's clock starts.  While units
run, a speed probe (reference.py) samples the machine's speed; a unit's
``wall_s`` excludes the probes' time and ``reference_s`` is the mean
probe time during it.

Job keys: ``kind`` (setup, hunt, census, dense, lowrank), ``seed``,
``budget_s`` (start no unit after this many seconds), ``min_units``,
``max_units``, ``field`` (census), ``input_dir`` (dense, lowrank) and
``trace_path`` (write spans there and report their summary).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import matrices
import reference
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FIELDS = ("hermitian", "real")
HUNT_ORDERS = range(1, 7)
HUNT_SAMPLES = 10  # per order, so a hunt unit is 60 samples


def import_seprkit():
    """Import the CLI from the checkout and build the one-time tables."""
    sys.path.insert(0, str(SRC))
    import seprkit.cli
    from seprkit.classify import Field, forbidden_order2, forbidden_order3

    where = Path(seprkit.__file__).resolve().parent
    if where != SRC / "seprkit":
        raise SystemExit(f"seprkit imported from {where}, not from {SRC}")
    start = time.perf_counter()
    for field in Field:
        forbidden_order2(field)
        forbidden_order3(field)
    return seprkit.cli, time.perf_counter() - start


def hunt_unit(job, k):
    field = FIELDS[k % 2]
    seed = random.Random(f"hunt:{field}:{job['seed']}:{k // 2}").randrange(2**31)
    calls = [
        ["properties", "--field", field, "--order-n", str(n), "--samples", str(HUNT_SAMPLES), "--seed", str(seed)]
        for n in HUNT_ORDERS
    ]
    return field, calls


def census_unit(job, k):
    field, seed = job["field"], str(job["seed"])
    calls = (
        ["catalog", "verify"],
        ["search", "--census", "--order", "2", "--field", field, "--seed", seed],
        ["search", "--census", "--order", "3", "--field", field, "--seed", seed],
    )
    return field, [calls[k]]


def compute_unit(job, k):
    field, index = FIELDS[k % 2], k // 2
    calls = []
    for n in matrices.ORDERS:
        path = Path(job["input_dir"]) / matrices.file_name(job["kind"], field, n, index)
        path.write_text(matrices.document(job["kind"], job["seed"], field, n, index), encoding="utf-8")
        calls.append(["compute", str(path), "--field", field])
    return field, calls


UNITS = {"hunt": hunt_unit, "census": census_unit, "dense": compute_unit, "lowrank": compute_unit}


def run_call(cli, tracer, argv):
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.run += 1
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed call, not a crashed run
            rc = None
            traceback.print_exc()
    wall = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": wall}


def main(argv):
    job = json.loads(argv[1])
    cli, tables_s = import_seprkit()
    print(json.dumps({"ready": True, "tables_s": tables_s}), flush=True)
    result = {"units": []}
    tracer = None
    if job.get("trace_path"):
        tracer = spans.Tracer()
        tracer.install()
    if job["kind"] != "setup":
        make_unit = UNITS[job["kind"]]
        with reference.SpeedProbe() as probe:
            began = time.perf_counter()
            k = 0
            while k < job["max_units"] and (k < job["min_units"] or time.perf_counter() - began < job["budget_s"]):
                field, calls = make_unit(job, k)
                start = time.perf_counter()
                records = [run_call(cli, tracer, call) for call in calls]
                result["units"].append({"field": field, "start": start, "end": time.perf_counter(), "calls": records})
                k += 1
        for unit in result["units"]:
            probe_s, unit["reference_s"] = probe.window(unit["start"], unit["end"])
            unit["wall_s"] = unit["end"] - unit["start"] - probe_s
    if tracer is not None:
        tracer.write(job["trace_path"])
        calls, hits = tracer.sweep_calls()
        result["trace"] = {"summary": tracer.summary(), "counters": tracer.counters, "sweep_calls": calls, "sweep_hits": hits}
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
