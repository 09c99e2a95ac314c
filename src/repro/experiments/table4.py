"""Table IV — off-grid PV dimensioning at the four example regions.

For each location the sizing ladder is walked until zero downtime, expected
to land on the paper's configurations: Madrid/Lyon 540 Wp + 720 Wh, Vienna
540 Wp + 1440 Wh, Berlin 600 Wp + 1440 Wh, and to show the published
"days with full battery" ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.reporting.tables import format_table
from repro.solar.batch import candidate_grid, simulate_candidates
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import LoadProfile, OffGridResult
from repro.solar.sizing import SizingResult, find_minimal_system

__all__ = ["Table4Result", "run_table4", "Table4GridResult", "run_table4_grid",
           "table4_grid_study_spec"]

#: Location order as printed in the paper.
LOCATION_ORDER = ("madrid", "lyon", "vienna", "berlin")


@dataclass(frozen=True)
class Table4Result:
    """Sizing outcome per location."""

    sizings: dict[str, SizingResult]

    def series(self) -> dict[str, list]:
        keys = [k for k in LOCATION_ORDER if k in self.sizings]
        return {
            "location": keys,
            "pv_peak_w": [self.sizings[k].pv_peak_w for k in keys],
            "battery_wh": [self.sizings[k].battery_capacity_wh for k in keys],
            "full_battery_days_pct": [self.sizings[k].result.full_battery_days_pct
                                      for k in keys],
            "paper_full_battery_days_pct": [constants.PAPER_FULL_BATTERY_DAYS_PCT[k]
                                            for k in keys],
            "unmet_hours": [self.sizings[k].result.unmet_hours for k in keys],
            "annual_pv_kwh": [self.sizings[k].result.annual_pv_kwh for k in keys],
        }

    def table(self) -> str:
        rows = []
        for key in LOCATION_ORDER:
            if key not in self.sizings:
                continue
            s = self.sizings[key]
            rows.append([s.location_name, s.pv_peak_w, s.battery_capacity_wh,
                         s.result.full_battery_days_pct,
                         constants.PAPER_FULL_BATTERY_DAYS_PCT[key],
                         s.result.unmet_hours])
        return format_table(
            ["location", "PV [Wp]", "battery [Wh]", "full days [%]",
             "paper [%]", "unmet [h]"],
            rows, title="Table IV: off-grid PV dimensioning (zero-downtime sizing)")

    def full_days_ordering(self) -> list[str]:
        """Locations sorted by decreasing full-battery-day percentage."""
        keys = [k for k in LOCATION_ORDER if k in self.sizings]
        return sorted(keys, key=lambda k: -self.sizings[k].result.full_battery_days_pct)


def run_table4(load: LoadProfile | None = None, seed: int = 2022,
               weather_cache=None) -> Table4Result:
    """Run the sizing search at all four locations.

    Each location's candidate ladder is evaluated in one batched pass
    (:mod:`repro.solar.batch`); ``weather_cache`` optionally persists the
    synthesized weather years across runs.
    """
    sizings = {key: find_minimal_system(LOCATIONS[key], load=load, seed=seed,
                                        weather_cache=weather_cache)
               for key in LOCATION_ORDER}
    return Table4Result(sizings=sizings)


#: Default candidate-grid axes for ``table4-grid``: a denser sweep around the
#: paper's 5-rung ladder (PV peaks around the 1-4 module range x battery
#: banks from the standard 720 Wh to triple capacity).
DEFAULT_PV_PEAKS_W = (360.0, 420.0, 480.0, 540.0, 600.0, 660.0, 720.0)
DEFAULT_BATTERY_WHS = (720.0, 1080.0, 1440.0, 1800.0, 2160.0)


@dataclass(frozen=True)
class Table4GridResult:
    """Zero-downtime feasibility over a full (PV peak × battery Wh) grid."""

    pv_peaks_w: tuple[float, ...]
    battery_whs: tuple[float, ...]
    #: ``results[location_key][(pv_peak_w, battery_wh)]`` for every combo.
    results: dict[str, dict[tuple[float, float], OffGridResult]]

    def minimal_battery_wh(self, location_key: str, pv_peak_w: float) -> float | None:
        """Smallest zero-downtime battery for a PV size (None if infeasible)."""
        feasible = [wh for wh in self.battery_whs
                    if self.results[location_key][(pv_peak_w, wh)].zero_downtime]
        return min(feasible) if feasible else None

    def series(self) -> dict[str, list]:
        keys = [k for k in LOCATION_ORDER if k in self.results]
        rows = [(k, pv, wh, self.results[k][(pv, wh)])
                for k in keys for pv in self.pv_peaks_w for wh in self.battery_whs]
        return {
            "location": [k for k, _, _, _ in rows],
            "pv_peak_w": [pv for _, pv, _, _ in rows],
            "battery_wh": [wh for _, _, wh, _ in rows],
            "zero_downtime": [int(r.zero_downtime) for _, _, _, r in rows],
            "unmet_hours": [r.unmet_hours for _, _, _, r in rows],
            "full_battery_days_pct": [r.full_battery_days_pct for _, _, _, r in rows],
            "annual_pv_kwh": [r.annual_pv_kwh for _, _, _, r in rows],
        }

    def table(self) -> str:
        rows = []
        for key in LOCATION_ORDER:
            if key not in self.results:
                continue
            for pv in self.pv_peaks_w:
                minimal = self.minimal_battery_wh(key, pv)
                feasible = sum(self.results[key][(pv, wh)].zero_downtime
                               for wh in self.battery_whs)
                rows.append([LOCATIONS[key].name, pv,
                             "-" if minimal is None else minimal,
                             f"{feasible}/{len(self.battery_whs)}"])
        return format_table(
            ["location", "PV [Wp]", "min zero-downtime battery [Wh]", "feasible"],
            rows, title="Table IV grid: zero-downtime frontier over the "
                        "(PV peak x battery) candidate grid")


def table4_grid_study_spec(pv_peaks=None, battery_whs=None, seed: int = 2022):
    """The Table IV candidate grid as a declarative study.

    The ``solar`` study engine evaluates each (location, PV peak, battery)
    case through the same batched :func:`repro.solar.batch.simulate_systems`
    pass as :func:`run_table4_grid`; ``tests/test_study.py`` pins the study
    table equal to the experiment's ``series()`` cell for cell.

    Args:
        pv_peaks / battery_whs: Candidate axes (defaults:
            :data:`DEFAULT_PV_PEAKS_W` / :data:`DEFAULT_BATTERY_WHS`).
        seed: Weather-year seed, shared by every case.

    Returns:
        A ``solar``-engine :class:`~repro.study.spec.StudySpec` with axes
        ``(location, pv_peak_w, battery_wh)`` — the exact row order of
        :meth:`Table4GridResult.series`.
    """
    from repro.study.spec import StudySpec

    return StudySpec(
        name="table4-grid",
        engine="solar",
        description="Off-grid candidate grid (PV peak x battery Wh), "
                    "four regions",
        axes=(
            ("location", tuple(LOCATION_ORDER)),
            ("pv_peak_w", tuple(float(v) for v in (pv_peaks or DEFAULT_PV_PEAKS_W))),
            ("battery_wh", tuple(float(v) for v in (battery_whs or DEFAULT_BATTERY_WHS))),
        ),
        seed=seed,
    )


def run_table4_grid(pv_peaks=None, battery_whs=None,
                    load: LoadProfile | None = None, seed: int = 2022,
                    weather_cache=None) -> Table4GridResult:
    """Sweep a full (PV peak × battery Wh) grid at all four locations.

    The whole grid — every candidate at every location — is evaluated as one
    batched engine pass per location sharing four cached weather tensors,
    which is what makes sweeps far beyond the paper's 5-rung ladder cheap.
    (:func:`table4_grid_study_spec` is the declarative equivalent, shipped
    as ``studies/table4_grid.yaml``; it carries the scalar metric columns of
    ``series()``, while this runner returns the full
    :class:`~repro.solar.offgrid.OffGridResult` objects.)

    Args:
        pv_peaks / battery_whs: Candidate axes [Wp] / [Wh].
        load: Optional load profile override (default: the repeater load).
        seed: Weather-year seed shared by every candidate.
        weather_cache: Optional :class:`~repro.solar.batch.WeatherCache`.

    Returns:
        The :class:`Table4GridResult` over the full candidate grid.
    """
    pv_peaks = tuple(float(v) for v in (pv_peaks or DEFAULT_PV_PEAKS_W))
    battery_whs = tuple(float(v) for v in (battery_whs or DEFAULT_BATTERY_WHS))
    candidates = candidate_grid(pv_peaks, battery_whs)
    results: dict[str, dict[tuple[float, float], OffGridResult]] = {}
    for key in LOCATION_ORDER:
        evaluated = simulate_candidates(LOCATIONS[key], candidates, load=load,
                                        seed=seed, weather_cache=weather_cache)
        results[key] = dict(zip(candidates, evaluated))
    return Table4GridResult(pv_peaks_w=pv_peaks, battery_whs=battery_whs,
                            results=results)
