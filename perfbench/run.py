"""End-to-end benchmark of the study engines, network planner, distributed
merge and HTTP service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-sweep --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop of ops of one fixed shape, drawn from the
shipped ``studies/*.yaml`` axes by ``--seed``; see ``workloads.py``):

``engine-sweep``
    one op = a 4-case ``sim_grid``, an 8-case ``robustness_grid`` and a
    1-case ``table4_grid`` sub-grid, each with a fresh seed, inline with no
    store.  Kernels and batch engines do nearly all the work.
``network-plan``
    one op = a ``national_network`` study with one fresh demand scale x the
    four shipped budgets x both technology mixes (8 cases) on a
    2000-segment graph.  The network optimizer dominates.
``shard-merge``
    one op = the 27-case ``robustness_grid`` with a fresh seed, run as three
    ``run_shard_slice`` workers into their own on-disk stores, then
    ``merge_manifests`` into an out-store.  Store writes, checksums and
    manifests dominate.
``service-jobs``
    ``repro serve --workers 2`` as a child process; two client threads
    submit 4-case ``sim_grid`` sub-grids (the engine-sweep sim shape) and
    poll for the result.  Every fourth submission repeats an earlier
    document, which the service coalesces onto the finished job.

Ops are sized so that a 20 s run holds well over 100 of them.

A run starts :data:`PARTS` fresh worker processes one after another; each
sets up, warms up, times ops for ``seconds / PARTS`` (and at least
``MIN_OPS / PARTS`` ops), then checks its outputs.  The last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  With ``--trace 0`` the metrics are the end-to-end ones:

``setup_s``      median time from worker start to its first timed op
``op_p50_ms``    median op latency (service: POST until the result is 200)
``op_p90_ms``    90th percentile; >= 100 timed ops, so >= 10 lie beyond it
``cases_per_s``  study cases delivered per second of timed op time
``peak_rss_mb``  peak resident memory of the process running the program

Each worker pins itself (and the service's server) to one CPU.  The four
timings are scaled to a reference host speed with a calibration loop
timed next to the ops, and the share of that CPU's time the hypervisor
stole while they ran is taken out (see ``worker.py``); the raw figures
are printed as well.  ``fail_frac`` (failed / attempted ops) is printed with
them; an op fails on an exception, a partial or failed job, HTTP 429/5xx,
or a failed output check, and any failure makes the exit code 1.

With ``--trace 1`` workers 1 and 2 run with the span tracer of
``spans.py`` installed (for ``service-jobs``: in the server process), and
the metrics are the per-layer ones: self time and counts per op, the
unattributed remainder of an op, and the tracing overhead (median op
latency of traced minus untraced workers).

``--aa N`` is the steadiness report: it alternates two sets of ``N``
timed runs of the same code (seeds ``seed .. seed+N-1`` and
``seed+N .. seed+2N-1``) and prints each metric's median, quartiles and
spread, against the bounds in ``BENCHMARK.json``.  Seed 7919 is held out:
no tuning used it, so a later claim can be checked on it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Fresh worker processes per run (set-up is timed once in each).
PARTS = 4

#: Timed ops a run holds at least, so that >= 10 lie beyond the 90th
#: percentile.
MIN_OPS = 100

#: Wall-clock budget of one run [s]; a worker still running is killed.
RUN_BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "cases_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_MS = {
    "spec.compile_ms": "spec.compile",
    "runner.self_ms": "runner.run_study",
    "engines.run_cases_ms": "engines.run_cases",
    "kernels.soc_scan_ms": "kernels.soc_scan",
    "kernels.occupancy_scan_ms": "kernels.occupancy_scan",
    "kernels.ar1_min_scan_ms": "kernels.ar1_min_scan",
    "solar.simulate_systems_ms": "solar.simulate_systems",
    "simulation.simulate_days_ms": "simulation.simulate_days",
    "mc.outage_matrix_ms": "mc.outage_matrix",
    "network.build_graph_ms": "network.build_graph",
    "network.segment_frontiers_ms": "network.segment_frontiers",
    "network.optimize_network_ms": "network.optimize_network",
    "store.put_shard_ms": "store.put_shard",
    "store.get_shard_ms": "store.get_shard",
    "store.shard_checksum_ms": "store.shard_checksum",
    "results.build_table_ms": "results.build_table",
    "journal.emit_ms": "journal.emit",
    "distributed.run_shard_slice_ms": "distributed.run_shard_slice",
    "manifest.build_manifest_ms": "manifest.build_manifest",
    "distributed.merge_manifests_ms": "distributed.merge_manifests",
}


def tail_percentile(samples: list[float], q: float = 0.9) -> tuple[float, int]:
    """Nearest-rank ``q`` percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fingerprint() -> dict:
    """Host facts recorded with every result."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy_version}


def run_part(params: dict, env: dict, timeout: float) -> dict:
    """Start one worker process and return its JSON result."""
    params = dict(params, spawned_at=time.monotonic())
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(params)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"worker {params['part']} exceeded {timeout:.0f} s")
    if process.returncode != 0:
        raise RuntimeError(f"worker {params['part']} exited "
                           f"{process.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def sum_totals(parts: list[dict]) -> dict:
    """Span totals of several workers, added per name and field."""
    total: dict[str, dict] = {}
    for part in parts:
        for name, fields in part["totals"].items():
            entry = total.setdefault(name, {})
            for field, value in fields.items():
                entry[field] = entry.get(field, 0.0) + value
    return total


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics (per timed op) from the traced workers."""
    totals = sum_totals(traced)
    ops = sum(part["traced_ops"] for part in traced)

    def field(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    metrics = {name: field(span, "self_s") * 1e3 / ops
               for name, span in PER_LAYER_MS.items()}
    run_cases = "engines.run_cases"
    metrics.update({
        "runner.engine_calls": field(run_cases, "under_runner") / ops,
        "engines.cases_per_call": _ratio(field(run_cases, "cases"),
                                         field(run_cases, "calls")),
        "engines.frontier_hit_ratio": (
            1.0 - _ratio(field("network.segment_frontiers", "calls"),
                         field(run_cases, "network_cases"))
            if field(run_cases, "network_cases") else 0.0),
        "kernels.soc_scan_calls": field("kernels.soc_scan", "calls") / ops,
        "kernels.soc_scan_lanes_per_call": _ratio(
            field("kernels.soc_scan", "lanes"),
            field("kernels.soc_scan", "calls")),
        "network.infeasible_frac": _ratio(
            field("network.optimize_network", "errors"),
            field("network.optimize_network", "calls")),
        "store.checksums_per_bundle": _ratio(
            field("store.shard_checksum", "calls"),
            field("store.put_shard", "calls")),
        "journal.events": field("journal.emit", "written") / ops,
        "distributed.crn_recompute_ms":
            field(run_cases, "under_merge_s") * 1e3 / ops,
    })
    service = {}
    for part in traced:
        for key, value in part.get("service", {}).items():
            service[key] = service.get(key, 0) + value
    raw = [v for part in traced for v in part["raw_latencies_ms"]]
    if service:
        metrics.update({
            "service.submit_ms": _ratio(service["submit_ms"], service["fresh"]),
            "service.repeat_ms": _ratio(service["repeat_ms"],
                                        service["repeats"]),
            "service.queue_wait_ms": _ratio(service["queue_wait_ms"],
                                            service["journaled"]),
            "service.run_ms": _ratio(service["run_ms"], service["journaled"]),
            "service.polls_per_job": _ratio(service["polls"], service["fresh"]),
            "service.dedup_hit_ratio": _ratio(service["repeats"],
                                              service["submissions"]),
            "service.refused": _ratio(service["refused"], service["fresh"]),
        })
        # The server's own time per job is queue wait plus run; the rest
        # of the client-side latency is HTTP and polling.
        metrics["op.unattributed_ms"] = (
            statistics.fmean(raw) - metrics["service.queue_wait_ms"]
            - metrics["service.run_ms"])
    else:
        metrics.update({name: 0.0 for name in (
            "service.submit_ms", "service.repeat_ms", "service.queue_wait_ms",
            "service.run_ms", "service.polls_per_job",
            "service.dedup_hit_ratio", "service.refused")})
        metrics["op.unattributed_ms"] = field("op", "self_s") * 1e3 / ops
    metrics["trace.overhead_ms"] = (
        statistics.median(v for part in traced for v in part["latencies_ms"])
        - statistics.median(v for part in untraced
                            for v in part["latencies_ms"]))
    return metrics


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "studies").is_dir():
        print(f"error: {root} is not a checkout of the repository "
              f"(no src/repro or studies/)", file=sys.stderr)
        return 2
    # Byte-compile up front, so that no worker's set-up pays for it.
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    deadline = time.monotonic() + RUN_BUDGET_S
    parts = []
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for part in range(PARTS):
            params = {"workload": args.workload, "seed": args.seed,
                      "part": part, "seconds": args.seconds / PARTS,
                      "min_ops": math.ceil(MIN_OPS / PARTS),
                      # Workers pin themselves to CPU ``part % nproc``; one
                      # traced and one untraced worker on each CPU.
                      "trace": bool(args.trace and part in (1, 2)),
                      "root": str(root), "tmp": tmp}
            try:
                parts.append(run_part(params, env,
                                      deadline - time.monotonic()))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    latencies = [v for part in parts for v in part["latencies_ms"]]
    if not latencies:
        print(f"error: all {attempted} ops failed: {parts[0]['problems']}",
              file=sys.stderr)
        return 1
    p90, beyond = tail_percentile(latencies)
    end_to_end = {
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": p90,
        "cases_per_s": (sum(part["cases"] for part in parts)
                        / sum(part["busy_s"] for part in parts)),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'tracing off'}")
    print(f"host {json.dumps(fingerprint())}")
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END[name]}")
    print(f"  {'fail_frac':<14} {failed / attempted:12.4f} "
          f"({failed} of {attempted} ops)")
    raw = [v for part in parts for v in part["raw_latencies_ms"]]
    print(f"  raw, not scaled to the reference host speed: setup_s "
          f"{statistics.median(p['raw_setup_s'] for p in parts):.4f}  "
          f"op_p50_ms {statistics.median(raw):.4f}  "
          f"op_p90_ms {tail_percentile(raw)[0]:.4f}  cases_per_s "
          f"{sum(p['cases'] for p in parts) / sum(p['window_s'] for p in parts):.4f}")
    print(f"  op_p90_ms rests on {len(latencies)} timed ops, {beyond} beyond it")
    if args.workload == "service-jobs":
        print(f"  latency resolution: {parts[0]['resolution_ms']:.0f} ms "
              f"result-poll interval")
    for problem in [p for part in parts for p in part["problems"]][:10]:
        print(f"  FAILED CHECK: {problem}")
    if args.trace:
        metrics = per_layer([p for p in parts if p["traced"]],
                            [p for p in parts if not p["traced"]])
        for name, value in sorted(metrics.items()):
            print(f"  {name:<34} {value:12.4f}")
        units = {name: ("ms" if name.endswith("_ms") else "count")
                 for name in metrics}
        units.update({name: "ratio" for name in metrics
                      if name.endswith(("_ratio", "_frac"))})
    else:
        metrics = end_to_end
        units = END_TO_END
    correct = failed == 0 and beyond >= 10
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def aa(args) -> int:
    """Alternate two sets of timed runs of the same code; print spreads."""
    bounds = {}
    config = Path.cwd() / "BENCHMARK.json"
    if config.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(config.read_text())["end_to_end"]}
    sets = {"A": [], "B": []}
    for i in range(args.aa):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            seed = args.seed + i + (args.aa if name == "B" else 0)
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.monotonic()
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            sets[name].append(values)
            print(f"run {name} seed {seed} ({time.monotonic() - t0:.1f} s): "
                  + "  ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
    print(f"host {json.dumps(fingerprint())}")
    print(f"{'metric':<12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'max-min/med':>11}")
    steady = True
    for metric in sets["A"][0]:
        groups = {name: [run[metric] for run in runs]
                  for name, runs in sets.items()}
        groups["all"] = groups["A"] + groups["B"]
        for name, values in groups.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{metric:<12} {name:>3} {median:10.4f} {q1:10.4f} "
                  f"{q3:10.4f} {(q3 - q1) / median:8.4f} "
                  f"{(max(values) - min(values)) / median:11.4f}")
        shift = (statistics.median(groups["B"])
                 / statistics.median(groups["A"]) - 1)
        bound = bounds.get(metric)
        print(f"{metric:<12} B vs A median shift {shift:+.4f}, bound {bound}")
        if bound is not None:
            # The spread of every timing but set-up stays below a third of
            # its bound, and the two sets' medians within the bound.
            q1, median, q3 = statistics.quantiles(groups["all"], n=4)
            steady &= abs(shift) <= bound and (
                metric == "setup_s" or (q3 - q1) / median <= bound / 3)
    print("steady" if steady else "NOT steady against the BENCHMARK.json bounds")
    return 0 if steady else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="steadiness report: two alternating sets of N "
                             "timed runs")
    args = parser.parse_args(argv)
    return aa(args) if args.aa else run(args)


if __name__ == "__main__":
    sys.exit(main())
