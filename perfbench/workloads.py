"""Seeded op sequences of the four benchmark workloads, and output checks.

Every op of one workload has one shape; only study seeds and axis values
drawn from the shipped ``studies/*.yaml`` change between ops.  Op ``i`` of
``(workload, seed)`` is a pure function of those three values, so the same
seed gives a byte-identical sequence (see :func:`sequence_bytes`).

Each op gets a fresh study seed (network ops a fresh demand scale), so the
program's timetable and frontier memos are hit only where the generated
inputs share work inside one op: the two sleep policies' shared timetable
fleet, the four budgets' shared network frontier.  (The mc engine's
profile cache holds the few shipped ISD geometries and is warm after the
warm-up ops, as it is for any long-running caller.)  Axes whose value
changes the amount of work are pinned to one value set, which keeps every
op the same size:

* ``sim``: the trains-per-day values whose service fits in a day (the
  others are no-work infeasible rows) and the sleep-mode policies (the
  always-on ``continuous`` policy costs about twice as much); one ISD;
* ``solar``: one candidate, since every case is one more full-year
  ``soc_scan`` call under the default one-case-per-shard layout;
* ``network``: demand scales from the shipped minimum to 1.35 times it,
  where every budget of the study stays feasible and the optimizer's
  search stays the same length (towards 1.5 times the tightest budget
  nears infeasibility and ops grow ~25 % dearer).
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import struct
import tempfile
from pathlib import Path

WORKLOADS = ("engine-sweep", "network-plan", "shard-merge", "service-jobs")

#: Op indices of one benchmark process (or service client) start at a
#: multiple of this; the first ``warm-up`` indices are the warm-up ops.
STRIDE = 100_000

#: Segments of the network-plan graph.  The shipped study uses 10 000;
#: at that size one 8-case op takes ~1 s, and a run could not hold the
#: 100 timed ops its 90th percentile needs.
NETWORK_SEGMENTS = 2000

#: Workers of one shard-merge op (run one after another).
MERGE_WORKERS = 3

#: Every n-th submission of a service client repeats an earlier document.
REPEAT_EVERY = 4

#: Relative slack of the network budget checks (the per-km figures are
#: totals divided by the track length, which can round one ulp over).
BUDGET_RTOL = 1e-9

STUDY_FILES = ("sim_grid", "robustness_grid", "table4_grid",
               "national_network")


def load_documents(root: str | Path) -> dict[str, dict]:
    """The shipped study documents the ops are drawn from."""
    import yaml

    return {name: yaml.safe_load(
        (Path(root) / "studies" / f"{name}.yaml").read_text())
        for name in STUDY_FILES}


def _pick(rng: random.Random, values: list, k: int) -> list:
    """``k`` distinct values of ``values``, in their shipped order."""
    chosen = set(rng.sample(range(len(values)), k))
    return [value for i, value in enumerate(values) if i in chosen]


class OpGenerator:
    """Op ``index`` of one workload and seed, as study documents.

    Args:
        workload: One of :data:`WORKLOADS`.
        seed: The benchmark seed.
        documents: The shipped studies (:func:`load_documents`).
    """

    def __init__(self, workload: str, seed: int,
                 documents: dict[str, dict]) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; "
                             f"choose from {WORKLOADS}")
        self.workload = workload
        self.seed = int(seed)
        self.documents = documents
        self._seed_base = random.Random(
            f"{workload}/{self.seed}").randrange(1 << 30)

    def op(self, index: int) -> dict:
        """``{"index", "docs", "repeat_of"}`` of op ``index``."""
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        fresh = self._seed_base + index
        if self.workload == "engine-sweep":
            docs = [self._sim(rng, fresh), self._mc(rng, fresh),
                    self._solar(rng, fresh)]
        elif self.workload == "network-plan":
            docs = [self._network(rng)]
        elif self.workload == "shard-merge":
            docs = [self._subgrid("robustness_grid", fresh, {})]
        else:
            if index % STRIDE % REPEAT_EVERY == REPEAT_EVERY - 1:
                earlier = index - 1 - rng.randrange(REPEAT_EVERY - 1)
                return dict(self.op(earlier), index=index, repeat_of=earlier)
            docs = [self._sim(rng, fresh)]
        return {"index": index, "docs": docs, "repeat_of": None}

    def _subgrid(self, name: str, seed: int | None, axes: dict,
                 fixed: dict | None = None) -> dict:
        doc = copy.deepcopy(self.documents[name])
        if seed is not None:
            doc["seed"] = seed
        doc["axes"] = {axis: axes.get(axis, values)
                       for axis, values in doc["axes"].items()}
        if fixed:
            doc["fixed"] = dict(doc.get("fixed", {}), **fixed)
        return doc

    def _sim(self, rng: random.Random, seed: int) -> dict:
        doc = self.documents["sim_grid"]
        axes, headway = doc["axes"], doc["fixed"]["headway_s"]
        return self._subgrid("sim_grid", seed, {
            "isd_m": _pick(rng, axes["isd_m"], 1),
            "trains_per_day": [v for v in axes["trains_per_day"]
                               if v * headway / 3600.0 <= 24.0],
            "policy": [p for p in axes["policy"] if p != "continuous"],
        })

    def _mc(self, rng: random.Random, seed: int) -> dict:
        axes = self.documents["robustness_grid"]["axes"]
        return self._subgrid("robustness_grid", seed, {
            axis: _pick(rng, values, 2) for axis, values in axes.items()})

    def _solar(self, rng: random.Random, seed: int) -> dict:
        axes = self.documents["table4_grid"]["axes"]
        return self._subgrid("table4_grid", seed, {
            axis: _pick(rng, values, 1) for axis, values in axes.items()})

    def _network(self, rng: random.Random) -> dict:
        low = min(self.documents["national_network"]["axes"]["demand_scale"])
        scale = round(low * (1.0 + 0.35 * rng.random()), 9)
        return self._subgrid("national_network", None,
                             {"demand_scale": [scale]},
                             fixed={"segments": NETWORK_SEGMENTS})


def sequence_bytes(generator: OpGenerator, indices) -> bytes:
    """Canonical bytes of the ops at ``indices`` (the determinism check)."""
    return json.dumps([generator.op(i) for i in indices],
                      sort_keys=True).encode()


# -- executing ops --------------------------------------------------------------


def run_inline(doc: dict, shards: int | None = None):
    """Compile and run one study inline; ``(spec, table)``."""
    import repro.study as study

    spec = study.study_from_mapping(doc)
    report = study.run_study(spec, shards=shards)
    if report.partial:
        raise RuntimeError(f"study {spec.name} ended partial")
    return spec, report.table


def run_shard_merge(doc: dict, tmp_root: Path):
    """One shard-merge op: three worker stores, then a validated merge."""
    import repro.study as study

    spec = study.study_from_mapping(doc)
    work = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        manifests = []
        for worker in range(MERGE_WORKERS):
            run = study.run_shard_slice(
                spec, worker, MERGE_WORKERS,
                study.StudyStore(cache_dir=work / f"worker{worker}"))
            if not run.complete:
                raise RuntimeError(f"worker {worker} slice incomplete")
            manifests.append(run.manifest_path)
        merged = study.merge_manifests(
            spec, manifests, out_store=study.StudyStore(cache_dir=work / "merged"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return spec, merged.table


# -- output checks --------------------------------------------------------------


def columns_of(result) -> dict[str, list]:
    """Wide columns of a ``StudyTable`` or of a service result document
    (whose ``null`` cells stand for NaN)."""
    if isinstance(result, dict):
        rows = result["rows"]
        names = list(rows[0]) if rows else []
        return {name: [math.nan if row[name] is None else row[name]
                       for row in rows] for name in names}
    return result.wide()


def table_problems(spec, columns: dict[str, list]) -> list[str]:
    """Why a result table is incomplete or wrong (empty when it is fine).

    Every case is present once and in order, every declared column is
    there, NaN appears only in rows with ``feasible == 0``, and feasible
    network rows satisfy ``min_w_per_km <= mean_w_per_km <= budget``.
    """
    from repro.study import STUDY_ENGINES

    metrics = spec.metrics or STUDY_ENGINES[spec.engine].metrics
    expected = ["case", *spec.axis_names, *metrics,
                *(name for name, _ in spec.derived)]
    missing = [name for name in expected if name not in columns]
    if missing:
        return [f"missing columns {missing}"]
    if list(columns["case"]) != list(range(spec.case_count)):
        return [f"cases {list(columns['case'])} != 0..{spec.case_count - 1}"]
    problems = [f"column {name} has {len(columns[name])} rows"
                for name in expected
                if len(columns[name]) != spec.case_count]
    if problems:
        return problems
    feasible = columns.get("feasible")
    for name in expected:
        for row, value in enumerate(columns[name]):
            if (isinstance(value, float) and math.isnan(value)
                    and (feasible is None or feasible[row] != 0)):
                problems.append(f"NaN in {name} row {row} of a feasible case")
                break
    if spec.engine == "network":
        for row in range(spec.case_count):
            if feasible[row] != 1:
                continue
            low = columns["min_w_per_km"][row]
            mean = columns["mean_w_per_km"][row]
            budget = columns["energy_budget_w_per_km"][row]
            if not low <= mean * (1 + BUDGET_RTOL):
                problems.append(f"row {row}: mean {mean} below min {low}")
            if budget > 0 and not mean <= budget * (1 + BUDGET_RTOL):
                problems.append(f"row {row}: mean {mean} over budget {budget}")
    return problems


def same_value(a, b) -> bool:
    """Bit-for-bit equality; NaN equals NaN."""
    if isinstance(a, float) or isinstance(b, float):
        if not all(isinstance(v, (int, float)) for v in (a, b)):
            return False
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def differences(expected: dict[str, list], actual: dict[str, list]) -> list[str]:
    """Cells where two wide tables differ (bit for bit, NaN-aware)."""
    if set(expected) != set(actual):
        return [f"columns differ: {sorted(set(expected) ^ set(actual))}"]
    problems = []
    for name, column in expected.items():
        other = actual[name]
        if len(column) != len(other):
            problems.append(f"{name}: {len(column)} != {len(other)} rows")
            continue
        for row, (a, b) in enumerate(zip(column, other)):
            if not same_value(a, b):
                problems.append(f"{name} row {row}: {a!r} != {b!r}")
                break
    return problems
