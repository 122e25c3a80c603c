"""End-to-end and per-layer benchmark of the mesd CLI and library.

    python3 bench/run.py --workload map-csv --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every batch of a workload runs in a fresh worker process (bench/worker.py)
that imports mesd from this checkout's ``src/`` and calls ``mesd.cli.main``
or the library functions.  Batches are launched one after another for about
``--seconds``.  The outputs are checked (map
SHA-256 against bench/digests.json, ontic pass counts against N, oracle
results against the closed form within the CLI's default ``--tol``), a
human-readable report is printed, and the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each batch runs
untraced and then traced, and the metrics are the per-layer ones.  The exit
code is 0 only when every operation passed its check.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_run")

WORKLOADS = ["map-csv", "map-json", "oracle-three", "oracle-two", "ontic-check"]

# Batch size per workload: map steps per axis, ontic-check models, or oracle
# points.  "bench" is what the benchmark measures; map-csv is ROADMAP's
# 1001x1001 configuration, and map-json uses 501x501 because 1001x1001 JSON
# takes about 20 s and 1.9 GB per call, which does not fit the run length.
# "tiny" is for the harness self-test.
SCALES = {
    "bench": {"map-csv": 1001, "map-json": 501, "oracle-three": 50, "oracle-two": 5000,
              "ontic-check": 10000},
    "tiny": {"map-csv": 11, "map-json": 11, "oracle-three": 5, "oracle-two": 50,
             "ontic-check": 50},
}
# The first SWEEP_BATCHES oracle batches form the seed's fixed sweep, over
# which the largest |oracle - closed form| is reported; a run covers them all.
SWEEP_BATCHES = 4
# The CLI's map worker count, pinned for the untraced runs.  Traced runs use
# one thread so that spans nest on a single call stack.
MAP_THREADS = {False: "2", True: "1"}
SETUP_PROBES = 5
# No worker is started or waited for beyond this many seconds into a run.
RUN_DEADLINE_S = 160

END_TO_END = {
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per workload, the report's names for items_per_s and for the latency of one
# call (a whole map or ontic-check CLI call, or one oracle call).
NAMED = {
    "map-csv": ("map_cells_per_s", "map_call_ms"),
    "map-json": ("map_cells_per_s", "map_call_ms"),
    "oracle-three": ("oracle_three_per_s", "oracle_three_call_ms"),
    "oracle-two": ("oracle_two_per_s", "oracle_two_call_ms"),
    "ontic-check": ("ontic_models_per_s", "ontic_call_ms"),
}

PER_LAYER = {
    "cli.map.self_s": "s",
    "cli.map.write_s": "s",
    "cli.map.bytes_out": "bytes",
    "cli.ontic.self_s": "s",
    "analytic.advantage_three.calls": "count",
    "analytic.advantage_three.us": "us",
    "analytic.quantum_three.us": "us",
    "analytic.nc_three_bound.us": "us",
    "analytic.helstrom_two.us": "us",
    "qcore.Effect.calls": "count",
    "qcore.Effect.us": "us",
    "qcore.born_probability.calls": "count",
    "qcore.born_probability.us": "us",
    "qcore.validate_povm.us": "us",
    "qcore.PriorDistribution.us": "us",
    "oracle.optimize_three.calls": "count",
    "oracle.optimize_three.ms": "ms",
    "oracle.optimize_three.evaluations": "count",
    "oracle.success_three.us": "us",
    "oracle.optimize_two.us": "us",
    "oracle.optimize_two.evaluations": "count",
    "oracle.success_two.us": "us",
    "oracle.within_tol_ratio": "ratio",
    "oracle_three_max_abs_err": "1",
    "oracle_two_max_abs_err": "1",
    "ontic.random_model.us": "us",
    "ontic.check_two_state_bound.us": "us",
    "ontic.check_three_state_bound.us": "us",
    "ontic.model.us": "us",
    "ontic.pass_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.untraced_s": "s",
    "trace.span_cost_us": "us",
}

# ROADMAP's unreproduced per-call baseline (2 cores, Python 3.11.7, numpy
# 2.4.6), in microseconds, with the per-layer metric that reproduces each row.
ROADMAP_BASELINE = [
    ("helstrom_two", 0.8, "analytic.helstrom_two.us"),
    ("advantage_three", 2.6, "analytic.advantage_three.us"),
    ("Effect (ROADMAP: Effect.projector)", 25.0, "qcore.Effect.us"),
    ("born_probability", 32.0, "qcore.born_probability.us"),
    ("success_two", 47.0, "oracle.success_two.us"),
    ("optimize_two", 140.0, "oracle.optimize_two.us"),
    ("optimize_three", 22000.0, "oracle.optimize_three.ms"),
    ("one ontic model", 80.0, "ontic.model.us"),
]


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "none" when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    """Short SHA-256 over the mesd sources, which identifies the code also in
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "mesd")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _launch(spec: dict, env: dict, timeout: float) -> tuple[float | None, dict | None]:
    """Start one worker; return (launch-to-import seconds, parsed result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        setup = None
        if select.select([proc.stdout], [], [], timeout)[0]:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0 if ready.strip() == "ready" else None
        out, _ = proc.communicate(timeout=max(0.0, timeout - (time.perf_counter() - t0)))
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or spec.get("probe"):
        return setup, None
    lines = out.strip().splitlines()
    try:
        return setup, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return setup, None


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "bench") -> dict:
    """Run one workload; return the batches, set-up samples and run context."""
    env = dict(os.environ, MESD_THREADS=MAP_THREADS[trace])
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "trace": trace, "out_dir": OUT_DIR,
            "size": SCALES[scale][workload]}
    min_batches = SWEEP_BATCHES if workload.startswith("oracle-") else 1
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = _launch({"probe": True}, env, deadline - time.perf_counter())
        if setup is not None:
            setups.append(setup)
    batches = []
    start = time.perf_counter()
    last = 0.0
    # A batch starts only if it is expected to end less than half a batch
    # past --seconds, so a run lasts about --seconds even with 10 s batches.
    while ((len(batches) < min_batches or time.perf_counter() - start + last / 2 < seconds)
           and time.perf_counter() < deadline):
        launched = time.perf_counter()
        setup, result = _launch(dict(spec, batch=len(batches)), env, deadline - launched)
        last = time.perf_counter() - launched
        if setup is not None:
            setups.append(setup)
        batches.append(result)
    try:
        os.rmdir(OUT_DIR)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "trace": trace, "scale": scale,
            "map_threads": env["MESD_THREADS"], "batches": batches, "setups": setups}


def _check(run: dict, digests: dict) -> list[list[dict]]:
    """Per-batch operation records with the correctness gate applied: a
    crashed worker, a map digest that differs from the stored one, a traced
    output that differs from the untraced one, or a wrapper left behind after
    tracing marks the batch's operations as failed."""
    workload = run["workload"]
    expected = None
    if workload.startswith("map-"):
        steps = SCALES[run["scale"]][workload]
        expected = digests.get(f"{workload}-{steps}x{steps}")
    checked = []
    for batch in run["batches"]:
        if batch is None:
            checked.append([{"s": 0.0, "items": 0, "error": "worker failed or printed no result"}])
            continue
        fault = None
        if workload.startswith("map-") and batch["digest"] != expected:
            fault = f"output digest {batch['digest']} != stored {expected}"
        trace = batch.get("trace")
        if trace is not None:
            if trace["untraced_digest"] != batch["digest"]:
                fault = "traced output digest differs from untraced"
            elif trace["leftover_wrappers"]:
                fault = f"wrappers left after tracing: {trace['leftover_wrappers']}"
            elif trace["untraced_errors"]:
                fault = f"untraced pass: {trace['untraced_errors'][0]}"
        checked.append([dict(op, error=op["error"] or fault) for op in batch["ops"]])
    return checked


def _sweep_max_err(run: dict) -> float:
    return max((b["max_abs_err"] for b in run["batches"][:SWEEP_BATCHES] if b is not None),
               default=0.0)


def end_to_end(run: dict, ops: list[dict]) -> dict:
    """Verified items over the time spent on all operations, the largest
    worker RSS and the median launch-to-import time."""
    batches = [b for b in run["batches"] if b is not None]
    busy = sum(op["s"] for op in ops)
    values = {
        "items_per_s": sum(op["items"] for op in ops if not op["error"]) / busy if busy else 0.0,
        "peak_rss_mb": max((b["peak_rss_mb"] for b in batches), default=0.0),
        "setup_s": statistics.median(run["setups"]) if run["setups"] else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _merge_stats(batches: list[dict]) -> dict:
    merged: dict[tuple[str, str], list] = {}
    for batch in batches:
        for parent, name, *agg in batch["trace"]["stats"]:
            acc = merged.setdefault((parent, name), [0, 0.0, 0.0, 0, 0])
            for i, value in enumerate(agg):
                acc[i] += value
    return merged


def span_table(batches: list[dict]) -> list[tuple[str, str, int, float, float]]:
    """(parent, name, count, total s, self s) per span, corrected for the
    calibrated cost of the wrappers below it."""
    cost_total = statistics.median(b["trace"]["span_cost_s"][0] for b in batches)
    cost_self = statistics.median(b["trace"]["span_cost_s"][1] for b in batches)
    rows = []
    for (parent, name), (count, total, self_s, children, descendants) in _merge_stats(batches).items():
        rows.append((parent, name, count, max(0.0, total - descendants * cost_total),
                     max(0.0, self_s - children * cost_self)))
    return sorted(rows)


def per_layer(run: dict, ops: list[dict]) -> dict:
    """Per-layer metrics of a traced run; 0 for a layer the workload leaves idle.
    Counts and self/write times are per traced batch or call, so they do not
    depend on how many batches fit the run."""
    batches = [b for b in run["batches"] if b is not None]
    values = dict.fromkeys(PER_LAYER, 0.0)
    if not batches:
        return {name: {"value": 0.0, "unit": unit} for name, unit in PER_LAYER.items()}
    rows = span_table(batches)
    count = {}
    total = {}
    self_time = {}
    for parent, name, n, tot, slf in rows:
        count[name] = count.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_time[name] = self_time.get(name, 0.0) + slf

    def per_call(name: str, scale: float = 1e6) -> float:
        return total.get(name, 0.0) / count[name] * scale if count.get(name) else 0.0

    n_batches = len(batches)
    maps = count.get("cli.cmd_map", 0)
    if maps:
        values["cli.map.self_s"] = self_time["cli.cmd_map"] / maps
        values["cli.map.write_s"] = sum(t for p, n, _, t, _ in rows
                                        if p == "cli.cmd_map" and n == "cli._emit") / maps
        values["cli.map.bytes_out"] = sum(b["trace"]["bytes_out"].get("cli.cmd_map", 0)
                                          for b in batches) / maps
    ontics = count.get("cli.cmd_ontic_check", 0)
    if ontics:
        values["cli.ontic.self_s"] = self_time["cli.cmd_ontic_check"] / ontics
        # One model's cost is taken from the untraced pass: at ~7 spans per
        # model the tracer's own cost would dominate it.
        models = sum(op["items"] for op in ops)
        values["ontic.model.us"] = sum(b["trace"]["untraced_ops_s"] for b in batches) / models * 1e6
        values["ontic.pass_ratio"] = (sum(b["passes"] for b in batches)
                                      / sum(b["checks"] for b in batches))
    # "<span>.calls" per batch, "<span>.us" / "<span>.ms" per call.
    for key in PER_LAYER:
        span, _, kind = key.rpartition(".")
        if span in count and kind == "calls":
            values[key] = count[span] / n_batches
        elif span in count and kind in ("us", "ms"):
            values[key] = per_call(span, 1e6 if kind == "us" else 1e3)
    if run["workload"].startswith("oracle-"):
        task = run["workload"].split("-")[1]
        points = [op for op in ops if "call_ms" in op]
        evaluations = sum(b["evaluations"] for b in batches)
        values[f"oracle.optimize_{task}.evaluations"] = evaluations / len(points) if points else 0.0
        values["oracle.within_tol_ratio"] = sum(not op["error"] for op in ops) / len(ops)
        values[f"oracle_{task}_max_abs_err"] = _sweep_max_err(run)
    values["trace.untraced_s"] = sum(b["trace"]["untraced_s"] for b in batches) / n_batches
    values["trace.overhead_s"] = (sum(b["trace"]["traced_s"] for b in batches) / n_batches
                                  - values["trace.untraced_s"])
    values["trace.span_cost_us"] = statistics.median(b["trace"]["span_cost_s"][0]
                                                     for b in batches) * 1e6
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(run: dict, ops: list[dict], metrics: dict) -> list[str]:
    """Human-readable lines: run context, per-workload named metrics, spans."""
    workload = run["workload"]
    batches = [b for b in run["batches"] if b is not None]
    first = batches[0] if batches else {}
    lines = [
        f"# workload={workload} seed={run['seed']} trace={int(run['trace'])} scale={run['scale']} "
        f"batches={len(run['batches'])}",
        f"# machine: cores={os.cpu_count()} python={first.get('python', platform.python_version())} "
        f"numpy={first.get('numpy', '?')} commit={_git_commit()} src_sha256={_source_digest()} "
        f"MESD_THREADS={run['map_threads']} platform={platform.machine()}",
    ]
    failed = sum(1 for op in ops if op["error"])
    lines.append(f"{workload:13s} error_rate {_fmt(failed / len(ops) if ops else 1.0)} "
                 f"({failed}/{len(ops)} operations failed)")
    if not run["trace"]:
        named, call = NAMED[workload]
        lines.append(f"{workload:13s} {named} {_fmt(metrics['items_per_s']['value'])} 1/s "
                     f"(items_per_s)")
        calls = [op.get("call_ms", op["s"] * 1e3) for op in ops if not op["error"]]
        if calls:
            # A percentile is shown only with at least ten samples beyond it.
            tail = (f" {call}_p95 {_fmt(_percentile(calls, 0.95))} ms"
                    if len(calls) >= 200 else "")
            lines.append(f"{workload:13s} {call}_p50 {_fmt(statistics.median(calls))} ms{tail} "
                         f"({len(calls)} calls)")
        if workload.startswith("oracle-"):
            task = workload.split("-")[1]
            lines.append(f"{workload:13s} oracle_{task}_max_abs_err {_fmt(_sweep_max_err(run))} "
                         f"(sweep of the first {SWEEP_BATCHES} batches, "
                         f"{SWEEP_BATCHES * SCALES[run['scale']][workload]} points)")
        lines.append(f"{workload:13s} peak_rss_mb {_fmt(metrics['peak_rss_mb']['value'])} MB")
        lines.append(f"{workload:13s} setup_s {_fmt(metrics['setup_s']['value'])} s "
                     f"(median of {len(run['setups'])} launches)")
    elif batches:
        untraced = metrics["trace.untraced_s"]["value"]
        overhead = metrics["trace.overhead_s"]["value"]
        lines.append(f"{workload:13s} tracing overhead {_fmt(overhead)} s per batch over "
                     f"{_fmt(untraced)} s untraced; span cost "
                     f"{_fmt(metrics['trace.span_cost_us']['value'])} us, subtracted below")
        lines.append(f"{'parent':28s} {'span':34s} {'count':>9s} {'total_s':>10s} {'self_s':>10s}")
        for parent, name, count, total, self_s in span_table(batches):
            lines.append(f"{parent or '-':28s} {name:34s} {count:9d} {total:10.4f} {self_s:10.4f}")
        for name in sorted(spans.SAMPLED):
            samples = [x * 1e3 for b in batches for x in b["trace"]["samples"][name]]
            if samples:
                tail = (f" p95 {_fmt(_percentile(samples, 0.95))} ms"
                        if len(samples) >= 200 else "")
                lines.append(f"{workload:13s} traced {name} p50 "
                             f"{_fmt(statistics.median(samples))} ms{tail} ({len(samples)} calls)")
        for row, roadmap_us, metric in ROADMAP_BASELINE:
            value = metrics[metric]["value"] * (1e3 if metric.endswith(".ms") else 1.0)
            if value > 0:
                ratio = value / roadmap_us
                flag = "  DIFFERS >2x" if ratio > 2 or ratio < 0.5 else ""
                lines.append(f"baseline {row:36s} roadmap {_fmt(roadmap_us)} us, measured "
                             f"{_fmt(value)} us ({ratio:.2f}x){flag}")
        for name, entry in metrics.items():
            lines.append(f"{workload:13s} {name} {_fmt(entry['value'])} {entry['unit']}")
    failures = [op["error"] for op in ops if op["error"]]
    for message in failures[:20]:
        lines.append(f"FAIL {workload}: {message}")
    if not run["setups"]:
        lines.append(f"FAIL {workload}: no worker reached the mesd import")
    return lines


def evaluate(run: dict, digests: dict) -> tuple[dict, list[str]]:
    """The result object the last stdout line carries, and the report lines."""
    checked = _check(run, digests)
    ops = [op for batch_ops in checked for op in batch_ops]
    metrics = per_layer(run, ops) if run["trace"] else end_to_end(run, ops)
    failed = sum(1 for op in ops if op["error"])
    result = {"correct": failed == 0 and bool(run["setups"]), "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    return result, report(run, ops, metrics)


def _load_digests() -> dict:
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mesd", "cli.py")):
        print(f"error: no mesd sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    digests = _load_digests()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        result, lines = evaluate(run, digests)
        print("\n".join(lines), flush=True)
        results[workload] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": entry for w, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
