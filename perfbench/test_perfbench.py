"""Tests of the benchmark's own arithmetic, generator and output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root of
the repository.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


@pytest.fixture(scope="module")
def documents():
    return workloads.load_documents(ROOT)


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize("n", [100, 101, 137, 250])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, beyond = run.tail_percentile(samples)
    assert beyond >= 10
    assert beyond == sum(s > value for s in samples)
    assert sum(s <= value for s in samples) >= 0.9 * n


def test_tail_percentile_is_nearest_rank():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 10)


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        ["op", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 2.0, 5.0, 0, None],       # overlaps a: covered once
        ["c", 8.0, 12.0, 0, None],      # clipped to the parent's end
        ["d", 1.5, 2.5, 1, None],       # grandchild: only a's business
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_covered_ignores_empty_intervals():
    assert spans.covered([(1.0, 1.0), (3.0, 2.0)]) == 0.0
    assert spans.covered([(0.0, 2.0), (2.0, 3.0), (5.0, 6.0)]) == 4.0


def test_tracer_records_parents_counts_and_errors():
    tracer = spans.Tracer()

    def inner(engine, cases):
        if engine == "bad":
            raise ValueError(engine)
        return len(cases)

    traced_inner = tracer.wrap("engines.run_cases", inner)
    with tracer.span("op"):
        traced_inner("sim", [1, 2, 3])
        with pytest.raises(ValueError):
            traced_inner("bad", [1])
    op, ok, bad = tracer.spans
    assert op[3] == -1 and ok[3] == 0 and bad[3] == 0
    assert ok[4] == {"engine": "sim", "cases": 3}
    assert bad[4]["error"] == "ValueError"
    totals = spans.layer_totals(tracer.spans)
    assert totals["engines.run_cases"]["calls"] == 2
    assert totals["engines.run_cases"]["cases"] == 4
    assert totals["engines.run_cases"]["errors"] == 1
    assert totals["op"]["self_s"] == pytest.approx(
        (op[2] - op[1]) - (ok[2] - ok[1]) - (bad[2] - bad[1]))


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(documents, workload):
    indices = [0, 1, 2, 3, 7, workloads.STRIDE + 5]
    first = workloads.sequence_bytes(
        workloads.OpGenerator(workload, 5, documents), indices)
    again = workloads.sequence_bytes(
        workloads.OpGenerator(workload, 5, documents), indices)
    other = workloads.sequence_bytes(
        workloads.OpGenerator(workload, 6, documents), indices)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload, cases", [
    ("engine-sweep", [4, 8, 1]), ("network-plan", [8]),
    ("shard-merge", [27]), ("service-jobs", [4])])
def test_every_op_has_one_shape(documents, workload, cases):
    from repro.study import study_from_mapping

    generator = workloads.OpGenerator(workload, 11, documents)
    seeds = set()
    for index in range(12):
        op = generator.op(index)
        specs = [study_from_mapping(doc) for doc in op["docs"]]
        assert [spec.case_count for spec in specs] == cases
        if op["repeat_of"] is None:
            seeds.add(tuple(spec.seed if spec.engine != "network"
                            else spec.axes[0][1] for spec in specs))
    # Every fresh op brings its own seed (network: its own demand scale).
    assert len(seeds) == sum(generator.op(i)["repeat_of"] is None
                             for i in range(12))


def test_service_repeats_one_submission_in_four(documents):
    generator = workloads.OpGenerator("service-jobs", 3, documents)
    for index in range(16):
        op = generator.op(index)
        if index % workloads.REPEAT_EVERY == workloads.REPEAT_EVERY - 1:
            assert index - workloads.REPEAT_EVERY < op["repeat_of"] < index
            assert op["docs"] == generator.op(op["repeat_of"])["docs"]
        else:
            assert op["repeat_of"] is None


# -- output checks --------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_table(documents):
    doc = workloads.OpGenerator("engine-sweep", 2, documents).op(0)["docs"][1]
    return workloads.run_inline(doc)


def test_a_complete_table_passes(mc_table):
    spec, table = mc_table
    assert workloads.table_problems(spec, workloads.columns_of(table)) == []


@pytest.mark.parametrize("corrupt", ["drop_row", "drop_column", "nan",
                                     "reorder"])
def test_a_corrupted_table_fails_the_check(mc_table, corrupt):
    spec, table = mc_table
    columns = {name: list(values)
               for name, values in workloads.columns_of(table).items()}
    if corrupt == "drop_row":
        columns = {name: values[:-1] for name, values in columns.items()}
    elif corrupt == "drop_column":
        del columns["outage_probability"]
    elif corrupt == "nan":
        columns["median_min_snr_db"][3] = math.nan
    else:
        columns["case"][0], columns["case"][1] = 1, 0
    assert workloads.table_problems(spec, columns)


def test_one_ulp_differs_and_nan_equals_nan(mc_table):
    _, table = mc_table
    columns = workloads.columns_of(table)
    assert workloads.differences(columns, columns) == []
    changed = dict(columns, outage_ci95_high=[
        math.nextafter(columns["outage_ci95_high"][0], math.inf),
        *columns["outage_ci95_high"][1:]])
    assert workloads.differences(columns, changed)
    assert workloads.same_value(math.nan, math.nan)
    assert not workloads.same_value(0.0, math.nan)
    assert not workloads.same_value("1.0", 1.0)


def test_service_document_nulls_read_as_nan(mc_table):
    spec, table = mc_table
    document = table.to_document()
    document["rows"][2]["median_min_snr_db"] = None
    columns = workloads.columns_of(document)
    assert math.isnan(columns["median_min_snr_db"][2])
    assert workloads.table_problems(spec, columns)


def test_network_rows_over_budget_fail_the_check(documents):
    from repro.study import STUDY_ENGINES, study_from_mapping

    doc = workloads.OpGenerator("network-plan", 1, documents).op(0)["docs"][0]
    spec = study_from_mapping(doc)
    cases = spec.cases()
    columns = {"case": list(range(spec.case_count))}
    for axis in spec.axis_names:
        columns[axis] = [case[axis] for case in cases]
    for metric in STUDY_ENGINES["network"].metrics:
        columns[metric] = [1] * spec.case_count
    for name, _ in spec.derived:
        columns[name] = [0.0] * spec.case_count
    columns["min_w_per_km"] = [50.0] * spec.case_count
    columns["mean_w_per_km"] = [90.0] * spec.case_count
    assert workloads.table_problems(spec, columns) == []
    over = columns["energy_budget_w_per_km"].index(100.0)
    columns["mean_w_per_km"] = list(columns["mean_w_per_km"])
    columns["mean_w_per_km"][over] = 100.5
    assert workloads.table_problems(spec, columns) == [
        f"row {over}: mean 100.5 over budget 100.0"]
    columns["feasible"] = [0] * spec.case_count
    columns["mean_w_per_km"] = [math.nan] * spec.case_count
    assert workloads.table_problems(spec, columns) == []
