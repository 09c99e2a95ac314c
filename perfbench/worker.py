"""One fresh benchmark process: set up, warm up, time ops, check outputs.

``run.py`` starts this file once per measured slice of a run::

    python perfbench/worker.py '{"workload": ..., "seed": ..., "part": ...}'

and reads the JSON object it prints as its last line.  The op loop is a
closed loop: the next op starts when the previous one has returned.  Ops
run inline through the public ``repro.study`` API with the program's
defaults (``jobs=1``, default shard layout).  ``service-jobs`` instead
starts ``repro serve`` as a child process and drives it from two client
threads over HTTP.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Warm-up ops per process (per client for ``service-jobs``), run and
#: discarded before timing so that imports, caches and lazy set-up are done.
WARMUP = {"engine-sweep": 2, "network-plan": 2, "shard-merge": 2,
          "service-jobs": workloads.REPEAT_EVERY}

#: Timed ops per process whose outputs are recomputed for the equality
#: checks (chosen from the seed).
CHECKED_OPS = 2

#: Interval between two result polls of a service client [s]; it is the
#: resolution of the service latencies.  The first poll waits a seeded
#: random part of it, so latencies do not snap to a grid.
POLL_S = 0.02

#: Service job-executing threads (``repro serve --workers``).
SERVICE_WORKERS = 2

#: Concurrent service clients.
SERVICE_CLIENTS = 2

#: Longest a single service op may take before it counts as failed [s].
OP_TIMEOUT_S = 60.0

#: The host this benchmark runs on changes speed by up to ~40 % for seconds
#: at a time (other tenants share its cores; CPU time slows as much as wall
#: time), and its hypervisor takes a vCPU away for up to ~15 % of a second
#: (the ``steal`` column of /proc/stat).  Every timing is therefore scaled
#: to a reference host with nothing stolen.  Each worker pins itself (and
#: the service's server) to one CPU; a fixed pure-Python loop of
#: ``CAL_ITERATIONS`` is timed next to the ops, and a latency ``t``
#: measured while the loop took ``c`` ms and a share ``s`` of the CPU's
#: time was stolen is reported as ``t * (REFERENCE_CAL_MS / c) * (1 - s)``.
#: ``REFERENCE_CAL_MS`` is the loop's median time on the reference host
#: (2 vCPU Xeon, Python 3.11.7); the raw figures are printed next to the
#: scaled ones.
CAL_ITERATIONS = 60_000
REFERENCE_CAL_MS = 4.5

#: Inline workloads time the loop before every op and smooth it over this
#: many ops on either side.  service-jobs times it between slices of
#: ``SERVICE_SLICE_S``, while the server is idle, so that the program's own
#: load never enters the scale.
CAL_SMOOTH = 2
CAL_BRACKET_SAMPLES = 10
SERVICE_SLICE_S = 1.0


def calibration_ms() -> float:
    """One timing of the fixed reference loop [ms]."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def bracket_calibration_ms() -> float:
    return statistics.median(calibration_ms()
                             for _ in range(CAL_BRACKET_SAMPLES))


def cpu_jiffies(cpu: int) -> tuple[int, int]:
    """``(stolen, total)`` clock ticks of ``cpu`` so far (/proc/stat)."""
    prefix = f"cpu{cpu} "
    for line in Path("/proc/stat").read_text().splitlines():
        if line.startswith(prefix):
            # user nice system idle iowait irq softirq steal [guest ...]
            ticks = [int(value) for value in line.split()[1:9]]
            return ticks[7], sum(ticks)
    raise RuntimeError(f"no cpu{cpu} line in /proc/stat")


def unstolen(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of a CPU's time between two readings that was not stolen."""
    total = after[1] - before[1]
    return 1.0 - (after[0] - before[0]) / total if total else 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another (live) process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def latencies(records: list[dict]) -> dict:
    """Scaled and raw latencies [ms] of the records without problems."""
    ok = [r for r in records if not r.get("problems")]
    return {"latencies_ms": [r["latency_s"] * 1e3 * r["factor"] for r in ok],
            "raw_latencies_ms": [r["latency_s"] * 1e3 for r in ok]}


class InlineWorkload:
    """engine-sweep, network-plan and shard-merge: ops run in this process."""

    def __init__(self, params: dict, generator, tmp: Path, tracer) -> None:
        self.params = params
        self.generator = generator
        self.tmp = tmp
        self.tracer = tracer
        self.base = params["part"] * workloads.STRIDE
        self.warmup = WARMUP[params["workload"]]
        self.cpu = params["cpu"]

    def execute(self, op: dict) -> list:
        if self.params["workload"] == "shard-merge":
            return [workloads.run_shard_merge(op["docs"][0], self.tmp)]
        return [workloads.run_inline(doc) for doc in op["docs"]]

    def setup(self) -> None:
        self.ops = [self.generator.op(self.base + j) for j in range(400)]
        for op in self.ops[:self.warmup]:
            self.execute(op)

    def measure(self, seconds: float, min_ops: int) -> dict:
        tracer = self.tracer
        mark = len(tracer.spans) if tracer else 0
        records = []
        position = self.warmup
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            if position >= len(self.ops):
                self.ops.append(self.generator.op(self.base + position))
            op = self.ops[position]
            position += 1
            cal_ms = calibration_ms()
            ticks = cpu_jiffies(self.cpu)
            t0 = time.perf_counter()
            error = None
            try:
                with tracer.span("op") if tracer else nullcontext():
                    results = self.execute(op)
            except Exception as exc:  # counted as a failed op
                results, error = [], repr(exc)
            t1 = time.perf_counter()
            records.append({"op": op, "latency_s": t1 - t0, "results": results,
                            "error": error, "cal_ms": cal_ms,
                            "ticks": (ticks, cpu_jiffies(self.cpu))})
            if t1 >= deadline and len(records) >= min_ops:
                break
        window = (start, t1)
        cals = [record["cal_ms"] for record in records]
        for i, record in enumerate(records):
            near = slice(max(0, i - CAL_SMOOTH), i + CAL_SMOOTH + 1)
            stolen = sum(r["ticks"][1][0] - r["ticks"][0][0]
                         for r in records[near])
            total = sum(r["ticks"][1][1] - r["ticks"][0][1]
                        for r in records[near])
            record["cal_factor"] = REFERENCE_CAL_MS / statistics.median(
                cals[near])
            record["factor"] = record["cal_factor"] * (
                1.0 - stolen / total if total else 1.0)
        totals = None
        if tracer:
            totals = spans.layer_totals(tracer.spans, keep=lambda i, s: i >= mark)
        return {"records": records, "window": window, "totals": totals,
                "peak_rss_mb": _peak_rss_mb(),
                "busy_s": sum(r["latency_s"] * r["factor"] for r in records),
                "setup_factor": records[0]["cal_factor"]}

    def check(self, measured: dict) -> None:
        """Record each op's output problems in ``record["problems"]``."""
        records = measured["records"]
        rng = random.Random(f"check/{self.params['workload']}/"
                            f"{self.params['seed']}/{self.params['part']}")
        sampled = set(rng.sample(range(len(records)),
                                 min(CHECKED_OPS, len(records))))
        for index, record in enumerate(records):
            problems = [] if record["error"] is None else [record["error"]]
            for spec, table in record["results"]:
                problems += workloads.table_problems(
                    spec, workloads.columns_of(table))
            if index in sampled and record["error"] is None:
                # Different shard layout (one shard) inline: the CRN
                # contract makes it bit-identical to the default layout and
                # to the merge of three workers' stores.
                for doc, (_, table) in zip(record["op"]["docs"],
                                           record["results"]):
                    _, again = workloads.run_inline(doc, shards=1)
                    problems += workloads.differences(
                        workloads.columns_of(again), workloads.columns_of(table))
            record["problems"] = problems

    def summary(self, measured: dict) -> dict:
        records = measured["records"]
        return {
            **latencies(records),
            "cases": sum(len(table) for r in records
                         for _, table in r["results"]),
            "attempted": len(records),
            "failed": sum(bool(r["problems"]) for r in records),
            "problems": [p for r in records for p in r["problems"]][:5],
        }

    def close(self) -> None:
        pass


class ServiceWorkload:
    """service-jobs: ``repro serve`` child process plus two HTTP clients."""

    def __init__(self, params: dict, generator, tmp: Path, tracer) -> None:
        self.params = params
        self.generator = generator
        self.traced = tracer is not None
        self.cpu = params["cpu"]
        self.work = Path(tempfile.mkdtemp(dir=tmp))
        self.server = None

    # -- server --------------------------------------------------------------

    def _start_server(self) -> None:
        serve = ["serve", "--store", str(self.work / "store"),
                 "--workers", str(SERVICE_WORKERS), "--port", "0"]
        if self.traced:
            self.spans_path = self.work / "spans.json"
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        log_path = self.work / "server.log"
        with open(log_path, "w") as log:
            self.server = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                           stderr=log)
        deadline = time.monotonic() + 60.0
        while True:
            text = log_path.read_text()
            if "serving on http://" in text:
                self.port = int(text.split("serving on http://")[1]
                                .split()[0].rsplit(":", 1)[1])
                break
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {text[-500:]}")
            time.sleep(0.01)
        while self._request("GET", "/readyz")[0] != 200:
            time.sleep(0.01)

    def _stop_server(self) -> None:
        if self.server is None or self.server.poll() is not None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()

    def _request(self, method: str, path: str, body: dict | None = None,
                 client: str = "bench"):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload,
                               headers={"Content-Type": "application/json",
                                        "X-Client-Id": client})
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    # -- clients -------------------------------------------------------------

    def _fresh(self, op: dict, client: str, rng: random.Random) -> dict:
        t0 = time.perf_counter()
        status, payload = self._request("POST", "/jobs",
                                        {"study": op["docs"][0]}, client)
        submit_s = time.perf_counter() - t0
        if status != 201:
            return {"op": op, "error": f"POST {status}: {payload}",
                    "refused": status == 429 or status >= 500}
        job = payload["job"]["job"]
        time.sleep(rng.uniform(0.0, POLL_S))
        polls = 0
        while True:
            status, payload = self._request("GET", f"/jobs/{job}/result",
                                            client=client)
            polls += 1
            if status != 202 or time.perf_counter() - t0 > OP_TIMEOUT_S:
                break
            time.sleep(POLL_S)
        latency_s = time.perf_counter() - t0
        record = {"op": op, "job": job, "latency_s": latency_s,
                  "submit_s": submit_s, "polls": polls}
        if status != 200:
            record.update(error=f"result {status}: {payload}",
                          refused=status >= 500)
        else:
            record.update(result=payload["result"],
                          cases=len(payload["result"]["rows"]))
        return record

    def _repeat(self, op: dict, first: dict, client: str) -> dict:
        t0 = time.perf_counter()
        status, payload = self._request("POST", "/jobs",
                                        {"study": op["docs"][0]}, client)
        record = {"op": op, "repeat": True}
        if status != 200 or payload["job"]["job"] != first.get("job"):
            record.update(error=f"repeat POST {status} did not coalesce",
                          refused=status == 429 or status >= 500)
            return record
        status, payload = self._request("GET", f"/jobs/{first['job']}/result",
                                        client=client)
        record["latency_s"] = time.perf_counter() - t0
        if status != 200:
            record.update(error=f"repeat result {status}",
                          refused=status >= 500)
        elif payload["result"]["rows"] != first["result"]["rows"]:
            record["error"] = "repeat returned other rows than the first run"
        else:
            record["cases"] = len(payload["result"]["rows"])
        return record

    def _client(self, lane: int, until: float | None, whole_groups: bool,
                out: list) -> None:
        """Submit from position ``self.position[lane]`` on until ``until``
        (warm-up: ``None``, one group); with ``whole_groups`` it stops only
        at a group boundary, so that a run makes whole groups of fresh
        submissions plus one repeat."""
        client = f"bench-{lane}"
        base = (self.params["part"] * SERVICE_CLIENTS + lane) * workloads.STRIDE
        history = self.history[lane]
        while True:
            position = self.position[lane]
            boundary = position % workloads.REPEAT_EVERY == 0
            if until is None and boundary and position:
                break
            if (until is not None and time.perf_counter() >= until
                    and (boundary or not whole_groups)):
                break
            op = self.generator.op(base + position)
            try:
                if op["repeat_of"] is None:
                    record = self._fresh(op, client, self.poll_rng[lane])
                else:
                    record = self._repeat(op, history[op["repeat_of"]], client)
            except Exception as exc:  # counted as a failed op
                record = {"op": op, "error": repr(exc)}
                if op["repeat_of"] is not None:
                    record["repeat"] = True
            if op["repeat_of"] is None:
                history[op["index"]] = record
            record["end"] = time.perf_counter()
            out.append(record)
            self.position[lane] = position + 1

    def _run_clients(self, until: float | None, whole_groups: bool) -> list:
        outputs = [[] for _ in range(SERVICE_CLIENTS)]
        threads = [threading.Thread(target=self._client,
                                    args=(lane, until, whole_groups,
                                          outputs[lane]))
                   for lane in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for output in outputs for record in output]

    def setup(self) -> None:
        self.history = [{} for _ in range(SERVICE_CLIENTS)]
        self.position = [0] * SERVICE_CLIENTS
        self.poll_rng = [random.Random(f"poll/{self.params['seed']}/"
                                       f"{self.params['part']}/{lane}")
                         for lane in range(SERVICE_CLIENTS)]
        self._start_server()
        warm = self._run_clients(None, True)
        errors = [r["error"] for r in warm if "error" in r]
        if errors:
            raise RuntimeError(f"service warm-up failed: {errors[:3]}")

    def measure(self, seconds: float, min_ops: int) -> dict:
        """Time the clients in slices of ``SERVICE_SLICE_S``; between two
        slices both clients have stopped, the server is idle, and the
        calibration loop is timed to scale the slice."""
        calibration = bracket_calibration_ms()
        setup_factor = REFERENCE_CAL_MS / calibration
        records, busy_s = [], 0.0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            now = time.perf_counter()
            until = (min(now + SERVICE_SLICE_S, deadline) if now < deadline
                     else now + SERVICE_SLICE_S)
            final = until >= deadline
            ticks = cpu_jiffies(self.cpu)
            chunk = self._run_clients(until, whole_groups=final)
            end = max(record["end"] for record in chunk)
            share = unstolen(ticks, cpu_jiffies(self.cpu))
            after = bracket_calibration_ms()
            factor = REFERENCE_CAL_MS / ((calibration + after) / 2) * share
            for record in chunk:
                record["factor"] = factor
            busy_s += (end - now) * factor
            records += chunk
            calibration = after
            fresh = sum("repeat" not in record for record in records)
            if final and fresh >= min_ops:
                break
        return {"records": records, "window": (start, end),
                "peak_rss_mb": _process_peak_rss_mb(self.server.pid),
                "busy_s": busy_s, "setup_factor": setup_factor}

    def check(self, measured: dict) -> None:
        import repro.study as study

        records = measured["records"]
        fresh = [i for i, r in enumerate(records)
                 if "repeat" not in r and "error" not in r]
        rng = random.Random(f"check/service-jobs/{self.params['seed']}/"
                            f"{self.params['part']}")
        sampled = set(rng.sample(fresh, min(CHECKED_OPS, len(fresh))))
        for index, record in enumerate(records):
            problems = [record["error"]] if "error" in record else []
            if "result" in record:
                doc = record["op"]["docs"][0]
                spec = study.study_from_mapping(doc)
                served = workloads.columns_of(record["result"])
                problems += workloads.table_problems(spec, served)
                if index in sampled:
                    _, inline = workloads.run_inline(doc, shards=1)
                    problems += workloads.differences(
                        workloads.columns_of(inline), served)
            record["problems"] = problems
        # Server-side times come from its own job journal.
        self._stop_server()
        events = [json.loads(line) for line in
                  (self.work / "store" / "jobs.jsonl").read_text().splitlines()
                  if line.strip()]
        by_job: dict[str, dict] = {}
        for event in events:
            if "job" in event:
                by_job.setdefault(event["job"], {})[event["event"]] = event
        measured["jobs"] = by_job

    def summary(self, measured: dict) -> dict:
        records = measured["records"]
        fresh = [r for r in records if "repeat" not in r]
        repeats = [r for r in records if "repeat" in r]
        ok = [r for r in fresh if not r["problems"]]
        jobs = measured["jobs"]
        waits, runs = [], []
        for record in ok:
            events = jobs.get(record["job"], {})
            if {"job_submitted", "job_started", "job_finished"} <= set(events):
                waits.append(events["job_started"]["t"]
                             - events["job_submitted"]["t"])
                runs.append(events["job_finished"]["wall_s"])
        summary = {
            **latencies(ok),
            "cases": sum(r["cases"] for r in records if not r["problems"]),
            "attempted": len(records),
            "failed": sum(bool(r["problems"]) for r in records),
            "problems": [p for r in records for p in r["problems"]][:5],
            "resolution_ms": POLL_S * 1e3,
            "service": {
                "fresh": len(ok),
                "submit_ms": sum(r["submit_s"] for r in ok) * 1e3,
                "repeat_ms": sum(r["latency_s"] for r in repeats
                                 if not r["problems"]) * 1e3,
                "repeats": sum(not r["problems"] for r in repeats),
                "queue_wait_ms": sum(waits) * 1e3,
                "run_ms": sum(runs) * 1e3,
                "journaled": len(runs),
                "polls": sum(r["polls"] for r in ok),
                "submissions": len(records),
                "refused": sum(bool(r.get("refused")) for r in records),
            },
        }
        if self.traced:
            start, end = measured["window"]
            server_spans = json.loads(self.spans_path.read_text())
            summary["totals"] = spans.layer_totals(
                server_spans, keep=lambda i, s: start <= s[1] <= end)
        return summary

    def close(self) -> None:
        self._stop_server()
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv: list[str]) -> int:
    params = json.loads(argv[0])
    cpus = sorted(os.sched_getaffinity(0))
    params["cpu"] = cpus[params["part"] % len(cpus)]
    os.sched_setaffinity(0, {params["cpu"]})
    ticks = cpu_jiffies(params["cpu"])
    import repro.study  # noqa: F401  (imports are part of set-up)

    tracer = None
    if params["trace"]:
        tracer = spans.Tracer()
        if params["workload"] != "service-jobs":
            spans.install(tracer)
    documents = workloads.load_documents(params["root"])
    generator = workloads.OpGenerator(params["workload"], params["seed"],
                                      documents)
    kind = (ServiceWorkload if params["workload"] == "service-jobs"
            else InlineWorkload)
    workload = kind(params, generator, Path(params["tmp"]), tracer)
    try:
        workload.setup()
        setup_s = time.monotonic() - params["spawned_at"]
        setup_share = unstolen(ticks, cpu_jiffies(params["cpu"]))
        measured = workload.measure(params["seconds"], params["min_ops"])
        workload.check(measured)
        result = workload.summary(measured)
    finally:
        workload.close()
    start, end = measured["window"]
    result.update(setup_s=setup_s * measured["setup_factor"] * setup_share,
                  raw_setup_s=setup_s, window_s=end - start,
                  busy_s=measured["busy_s"],
                  peak_rss_mb=measured["peak_rss_mb"],
                  traced=bool(params["trace"]))
    if measured.get("totals") is not None:
        result["totals"] = measured["totals"]
    if "totals" in result:
        result["traced_ops"] = (result["service"]["fresh"]
                                if "service" in result
                                else len(measured["records"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
