"""Property suite for the network optimizer (repro.network).

Seeded, deterministic properties of the Lagrangian assignment:

* **budget monotonicity** — relaxing the energy budget never increases the
  optimal cost (the dual price is non-increasing in the budget);
* **demand monotonicity** — scaling demand up never grows the sleeping set
  (the headway rule is monotone in trains/h);
* **LinePlan subsumption** — a single-corridor graph lifted from a
  :class:`~repro.corridor.multisegment.LinePlan` reproduces the plan's
  energy totals exactly (``==``, not approximately);
* **infeasibility discipline** — budgets below the minimum achievable raise
  :class:`~repro.errors.InfeasibleError` only after the full frontier scan,
  with the true minima attached;
* **unique-row selection** — choosing on the distinct frontier rows gives
  the bit-identical assignment, price and totals of a full-row reference
  oracle (kept here, not in the library).
"""

import math

import numpy as np
import pytest

from repro.corridor.multisegment import LinePlan
from repro.errors import ConfigurationError, GeometryError, InfeasibleError
from repro.network import (
    Corridor,
    DemandProfile,
    NetworkGraph,
    NetworkSegment,
    TechnologyCatalog,
    build_graph,
    fixed_options_power_w,
    optimize_network,
    segment_frontiers,
)

SEEDS = (0, 7, 1234)

RESOLUTION_M = 50.0


def _frontiers(scale: float = 1.0, segments: int = 0, graph: str = "demo",
               **kwargs):
    g = build_graph(graph, n_segments=segments, demand_scale=scale)
    return segment_frontiers(g, resolution_m=RESOLUTION_M, **kwargs)


# -- graph validation ---------------------------------------------------------


class TestGraphModel:
    def test_rejects_empty_and_duplicate_names(self):
        seg = NetworkSegment(name="a", length_km=2.0)
        with pytest.raises(ConfigurationError):
            Corridor(name="c", segments=())
        with pytest.raises(ConfigurationError):
            Corridor(name="c", segments=(seg, seg))
        with pytest.raises(ConfigurationError):
            NetworkGraph(corridors=())
        corridor = Corridor(name="c", segments=(seg,))
        with pytest.raises(ConfigurationError):
            NetworkGraph(corridors=(corridor, corridor))

    def test_rejects_bad_segment(self):
        with pytest.raises(GeometryError):
            NetworkSegment(name="a", length_km=0.0)
        with pytest.raises(ConfigurationError):
            NetworkSegment(name="a", length_km=1.0, speed_class="maglev")
        with pytest.raises(ConfigurationError):
            NetworkSegment(name="", length_km=1.0)

    def test_demand_profile_semantics(self):
        d = DemandProfile(trains_per_hour=8.0)
        assert d.headway_s == 450.0
        assert d.scaled(2.0).headway_s == 225.0
        assert DemandProfile(trains_per_hour=0.0).headway_s == math.inf
        with pytest.raises(ConfigurationError):
            d.scaled(-1.0)
        traffic = d.traffic(160.0)
        assert traffic.trains_per_hour == 8.0
        assert traffic.train.speed_kmh == 160.0

    def test_demand_from_timetable(self):
        from repro.traffic.timetable import Timetable, TrainRun
        from repro.traffic.trains import Train

        runs = tuple(TrainRun(t0_s=600.0 * i, train=Train(length_m=200.0))
                     for i in range(6))
        timetable = Timetable(runs=runs, horizon_s=3.0 * 3600.0)
        demand = DemandProfile.from_timetable(timetable)
        assert demand.trains_per_hour == 2.0
        assert demand.night_quiet_hours == 21.0
        assert demand.train_length_m == 200.0
        with pytest.raises(ConfigurationError):
            DemandProfile.from_timetable(Timetable(runs=(), horizon_s=3600.0))

    def test_canonical_order_and_names(self):
        graph = build_graph("demo")
        assert graph.n_segments == 48
        assert len(graph.segments) == 48
        assert graph.segment_names[0] == "c00/s0000"
        assert len(set(graph.segment_names)) == 48

    def test_build_graph_validation(self):
        with pytest.raises(ConfigurationError):
            build_graph("atlantis")
        with pytest.raises(ConfigurationError):
            build_graph("demo", n_segments=-3)
        assert build_graph("national", n_segments=10).n_segments == 10


# -- budget monotonicity ------------------------------------------------------


class TestBudgetMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_relaxing_energy_budget_never_increases_cost(self, seed):
        rng = np.random.default_rng(seed)
        frontiers = _frontiers(scale=float(rng.uniform(0.5, 2.0)))
        lo = frontiers.min_energy_w()
        hi = optimize_network(frontiers=frontiers).total_energy_w
        budgets = np.sort(rng.uniform(lo, 1.5 * hi, size=8))
        costs = [optimize_network(frontiers=frontiers,
                                  energy_budget_w=float(b)).total_cost_eur
                 for b in budgets]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_budget_is_respected(self, seed):
        rng = np.random.default_rng(seed)
        frontiers = _frontiers()
        lo = frontiers.min_energy_w()
        for budget in rng.uniform(lo, 2.0 * lo, size=5):
            plan = optimize_network(frontiers=frontiers,
                                    energy_budget_w=float(budget))
            assert plan.total_energy_w <= budget
            assert plan.energy_budget_w == float(budget)

    def test_cost_budget_swaps_roles(self):
        frontiers = _frontiers()
        cheapest = optimize_network(frontiers=frontiers)
        budget = 1.2 * cheapest.total_cost_eur
        plan = optimize_network(frontiers=frontiers, cost_budget_eur=budget)
        assert plan.total_cost_eur <= budget
        # With cost headroom the optimizer buys energy savings.
        assert plan.total_energy_w <= cheapest.total_energy_w

    def test_both_budgets_checked(self):
        frontiers = _frontiers()
        cheapest = optimize_network(frontiers=frontiers)
        plan = optimize_network(frontiers=frontiers,
                                energy_budget_w=1.1 * cheapest.total_energy_w,
                                cost_budget_eur=1.1 * cheapest.total_cost_eur)
        assert plan.total_cost_eur <= 1.1 * cheapest.total_cost_eur
        with pytest.raises(InfeasibleError) as err:
            optimize_network(frontiers=frontiers,
                             energy_budget_w=frontiers.min_energy_w(),
                             cost_budget_eur=0.5 * cheapest.total_cost_eur)
        assert err.value.minimum > err.value.budget


# -- demand monotonicity ------------------------------------------------------


class TestDemandMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_adding_demand_never_grows_sleeping_set(self, seed):
        rng = np.random.default_rng(seed)
        scales = np.sort(rng.uniform(0.25, 4.0, size=6))
        sleeping = []
        for scale in scales:
            frontiers = _frontiers(scale=float(scale))
            plan = optimize_network(frontiers=frontiers)
            sleeping.append(frozenset(np.flatnonzero(plan.sleeping)))
        for bigger, smaller in zip(sleeping, sleeping[1:]):
            assert smaller <= bigger

    def test_sleep_rule_is_headway_threshold(self):
        catalog = TechnologyCatalog(min_sleep_headway_s=300.0)
        assert catalog.sleep_eligible(DemandProfile(trains_per_hour=8.0))
        assert catalog.sleep_eligible(DemandProfile(trains_per_hour=12.0))
        assert not catalog.sleep_eligible(DemandProfile(trains_per_hour=16.0))

    def test_demand_can_make_options_infeasible(self):
        # Station-class segments at 24 trains/h cannot schedule their
        # traffic on the sparse relay/repeater grids: occupancy exceeds
        # headway, so those options must drop out (not crash).
        calm = _frontiers(scale=1.0)
        dense = _frontiers(scale=3.0)
        assert (~dense.feasible).sum() > (~calm.feasible).sum()
        assert dense.feasible.any(axis=1).all()  # but nothing is stranded


# -- LinePlan subsumption -----------------------------------------------------


class TestLinePlanSubsumption:
    def test_single_corridor_graph_reproduces_line_plan_totals(self):
        plan = LinePlan.mixed_line(open_track_km=120.0, station_zones=6)
        graph = NetworkGraph.from_line_plan(plan)
        assert graph.n_segments == len(plan.sections)
        assert graph.length_km == plan.length_km
        total = fixed_options_power_w(
            graph,
            tuple(s.layout for s in plan.sections),
            tuple(s.mode for s in plan.sections))
        assert total == plan.total_average_power_w()  # exact, not approx

    def test_layout_mode_count_mismatch_raises(self):
        plan = LinePlan.mixed_line(open_track_km=40.0, station_zones=2)
        graph = NetworkGraph.from_line_plan(plan)
        with pytest.raises(ConfigurationError):
            fixed_options_power_w(graph, (), ())


# -- infeasibility discipline -------------------------------------------------


class TestInfeasibility:
    def test_raises_only_after_full_scan_with_minima(self):
        frontiers = _frontiers()
        minimum = frontiers.min_energy_w()
        with pytest.raises(InfeasibleError) as err:
            optimize_network(frontiers=frontiers,
                             energy_budget_w=0.5 * minimum)
        exc = err.value
        assert exc.minimum == minimum
        assert exc.budget == 0.5 * minimum
        # the full [segment, option] grid was scanned before raising
        assert exc.scanned_options == frontiers.scanned_options
        assert exc.scanned_options \
            == frontiers.n_segments * len(frontiers.options)

    def test_budget_at_minimum_is_feasible(self):
        frontiers = _frontiers()
        plan = optimize_network(frontiers=frontiers,
                                energy_budget_w=frontiers.min_energy_w())
        assert plan.total_energy_w <= frontiers.min_energy_w()

    def test_stranded_segment_reports_after_full_scan(self):
        # An unreachable radio criterion leaves a segment with no feasible
        # option at all (the relay exemption is excluded from the catalog).
        catalog = TechnologyCatalog(technologies=("repeater",))
        graph = NetworkGraph(corridors=(Corridor(
            name="c", segments=(NetworkSegment(name="s", length_km=2.0),)),))
        frontiers = segment_frontiers(graph, catalog, threshold_db=1e9,
                                      resolution_m=RESOLUTION_M)
        with pytest.raises(InfeasibleError) as err:
            optimize_network(frontiers=frontiers)
        assert err.value.scanned_options == frontiers.scanned_options

    def test_unknown_inputs_raise_configuration_errors(self):
        graph = build_graph("demo", n_segments=4)
        with pytest.raises(ConfigurationError):
            segment_frontiers(graph, engine="quantum")
        with pytest.raises(ConfigurationError):
            TechnologyCatalog(technologies=("carrier-pigeon",))
        with pytest.raises(ConfigurationError):
            optimize_network()
        with pytest.raises(ConfigurationError):
            optimize_network(frontiers=_frontiers(segments=4),
                             resolution_m=10.0)


# -- assignment surface -------------------------------------------------------


class TestAssignmentSurface:
    def test_rows_table_and_counts_are_consistent(self):
        frontiers = _frontiers(segments=12)
        plan = optimize_network(frontiers=frontiers)
        rows = plan.rows()
        assert len(rows) == 12
        counts = plan.technology_counts()
        assert sum(v for k, v in counts.items() if k != "solar") == 12
        text = plan.table(limit=5)
        assert "network assignment" in text
        assert rows[0][0] in text

    def test_catalog_round_trips_comma_names(self):
        catalog = TechnologyCatalog.from_names("conventional,mobile_relay")
        labels = [o.label for o in catalog.options()]
        assert labels == ["conventional@500", "mobile_relay@2650"]


# -- unique-row selection vs the full-row oracle ------------------------------


def _oracle_select(feasible, objective, constrained, lam):
    """The full-row selection: argmin, then tie-breaks, on every row."""
    score = np.where(feasible, objective + lam * constrained, np.inf)
    best = score.min(axis=1, keepdims=True)
    tied = score == best
    tie_metric = np.where(tied, np.where(feasible, constrained, np.inf),
                          np.inf)
    best_metric = tie_metric.min(axis=1, keepdims=True)
    return np.argmax(tie_metric == best_metric, axis=1)


def _oracle_total(choice, values):
    return float(values[np.arange(choice.size), choice].sum())


def _oracle_solve(frontiers, objective, constrained, budget):
    """Doubling bracket plus 64-step bisection over the full rows."""
    feasible = frontiers.feasible

    def fits(lam):
        choice = _oracle_select(feasible, objective, constrained, lam)
        return _oracle_total(choice, constrained) <= budget

    if fits(0.0):
        return _oracle_select(feasible, objective, constrained, 0.0), 0.0
    hi = 1.0
    while not fits(hi):
        hi *= 2.0
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return _oracle_select(feasible, objective, constrained, hi), hi


def _oracle(frontiers, energy_budget_w=None, cost_budget_eur=None):
    cost, energy = frontiers.cost_eur, frontiers.energy_w
    if energy_budget_w is not None:
        choice, lam = _oracle_solve(frontiers, cost, energy, energy_budget_w)
    elif cost_budget_eur is not None:
        choice, lam = _oracle_solve(frontiers, energy, cost, cost_budget_eur)
    else:
        choice = _oracle_select(frontiers.feasible, cost, energy, 0.0)
        lam = 0.0
    return choice, lam, _oracle_total(choice, energy), \
        _oracle_total(choice, cost)


def _assert_matches_oracle(frontiers, **budgets):
    plan = optimize_network(frontiers=frontiers, **budgets)
    choice, lam, energy, cost = _oracle(frontiers, **budgets)
    assert np.array_equal(plan.option_index, choice)
    assert plan.option_index.dtype == choice.dtype
    # Bit identity, not closeness: compare the float64 bytes.
    assert np.float64(plan.lambda_star).tobytes() \
        == np.float64(lam).tobytes()
    assert np.float64(plan.total_energy_w).tobytes() \
        == np.float64(energy).tobytes()
    assert np.float64(plan.total_cost_eur).tobytes() \
        == np.float64(cost).tobytes()
    return plan


class TestUniqueRowOracle:
    def test_demo_energy_budgets(self):
        frontiers = _frontiers()
        lo = frontiers.min_energy_w()
        hi = optimize_network(frontiers=frontiers).total_energy_w
        priced = 0
        for budget in np.linspace(lo, 1.5 * hi, 8):
            plan = _assert_matches_oracle(frontiers,
                                          energy_budget_w=float(budget))
            priced += plan.lambda_star > 0
        assert priced >= 2  # the bisection itself was exercised

    def test_budget_exactly_at_minimum(self):
        frontiers = _frontiers()
        _assert_matches_oracle(frontiers,
                               energy_budget_w=frontiers.min_energy_w())

    def test_cost_budget_mode(self):
        frontiers = _frontiers()
        cheapest = optimize_network(frontiers=frontiers).total_cost_eur
        for factor in (1.0, 1.05, 1.2, 1.5):
            _assert_matches_oracle(frontiers,
                                   cost_budget_eur=factor * cheapest)

    def test_both_budgets_mode(self):
        frontiers = _frontiers()
        cheapest = optimize_network(frontiers=frontiers)
        for factor in (0.9, 1.1):
            _assert_matches_oracle(
                frontiers,
                energy_budget_w=factor * cheapest.total_energy_w,
                cost_budget_eur=2.0 * cheapest.total_cost_eur)

    @pytest.mark.parametrize("technologies", [
        "conventional,repeater,mobile_relay", "conventional,repeater"])
    @pytest.mark.parametrize("scale", [0.5, 0.575, 0.65])
    def test_national_graph(self, scale, technologies):
        catalog = TechnologyCatalog.from_names(technologies)
        frontiers = _frontiers(scale=scale, segments=2000, graph="national",
                               catalog=catalog)
        assert frontiers.unique_rows.index.size < frontiers.n_segments // 10
        length_km = frontiers.graph.length_km
        for w_per_km in (100.0, 125.0, 175.0):
            _assert_matches_oracle(frontiers,
                                   energy_budget_w=w_per_km * length_km)

    def test_all_distinct_rows(self):
        segments = tuple(
            NetworkSegment(name=f"s{i}", length_km=1.0 + 0.37 * i,
                           speed_class=("station", "regional",
                                        "highspeed")[i % 3],
                           demand=DemandProfile(trains_per_hour=2.0 + i))
            for i in range(12))
        graph = NetworkGraph(corridors=(Corridor(name="c",
                                                 segments=segments),))
        frontiers = segment_frontiers(graph, resolution_m=RESOLUTION_M)
        rows = frontiers.unique_rows
        assert np.array_equal(np.sort(rows.index), np.arange(12))
        lo = frontiers.min_energy_w()
        hi = optimize_network(frontiers=frontiers).total_energy_w
        for budget in np.linspace(lo, hi, 5):
            _assert_matches_oracle(frontiers, energy_budget_w=float(budget))


class TestUniqueRows:
    def test_expansion_reproduces_masked_arrays(self):
        frontiers = _frontiers(scale=3.0)  # has infeasible cells
        assert not frontiers.feasible.all()
        rows = frontiers.unique_rows
        assert rows.index.size < frontiers.n_segments
        feasible = frontiers.feasible
        for values in (frontiers.cost_eur, frontiers.energy_w):
            masked = np.where(feasible, values, np.inf)
            assert np.array_equal(masked[rows.index][rows.inverse], masked)
        assert np.array_equal(feasible[rows.index][rows.inverse], feasible)

    def test_rows_differing_in_one_array_stay_distinct(self):
        from dataclasses import replace

        base = _frontiers(segments=1)
        cost = np.repeat(base.cost_eur, 5, axis=0)
        energy = np.repeat(base.energy_w, 5, axis=0)
        feasible = np.ones_like(cost, dtype=bool)
        energy[1, 0] += 1.0  # row 1 vs row 0: same cost, other energy
        cost[2, 0] += 1.0    # row 2 vs row 0: same energy, other cost
        # rows 3 and 4: same values, only the feasibility mask differs
        cost[3:, 0] = energy[3:, 0] = np.inf
        feasible[4, 0] = False
        frontiers = replace(base, cost_eur=cost, energy_w=energy,
                            feasible=feasible)
        assert frontiers.unique_rows.index.size == 5

    def test_batched_and_scalar_frontiers_compress_alike(self):
        batched = _frontiers()
        scalar = _frontiers(engine="scalar")
        assert batched.unique_rows.index.size < batched.n_segments
        assert np.array_equal(batched.unique_rows.index,
                              scalar.unique_rows.index)
        assert np.array_equal(batched.unique_rows.inverse,
                              scalar.unique_rows.inverse)

    def test_compression_is_cached_per_frontier(self, monkeypatch):
        from repro.network.frontier import UniqueRows

        frontiers = _frontiers()
        calls = []
        compress = UniqueRows.of.__func__
        monkeypatch.setattr(UniqueRows, "of", classmethod(
            lambda cls, f: calls.append(f) or compress(cls, f)))
        optimize_network(frontiers=frontiers,
                         energy_budget_w=frontiers.min_energy_w())
        rows = frontiers.unique_rows
        optimize_network(frontiers=frontiers)
        assert frontiers.unique_rows is rows
        assert len(calls) == 1 and calls[0] is frontiers
