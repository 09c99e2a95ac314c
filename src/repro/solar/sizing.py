"""PV/battery sizing search — how Table IV's per-location configs arise.

The paper starts from the standard system (540 Wp, 720 Wh) and upsizes where
the winter months would cause downtime: double battery in Vienna and Berlin,
and slightly larger modules (600 Wp) in Berlin.  This module automates that
search: walk a candidate ladder of (PV, battery) configurations ordered by
cost-ish size and return the first with zero downtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.errors import ConfigurationError, InfeasibleError
from repro.solar.battery import Battery
from repro.solar.climates import Location
from repro.solar.irradiance import WeatherParams
from repro.solar.offgrid import LoadProfile, OffGridResult, OffGridSystem
from repro.solar.pv import PvArray

__all__ = ["SizingResult", "find_minimal_system"]

#: Default candidate ladder: the paper's standard config first, then the
#: paper's actual upsizes, then further fallbacks.
DEFAULT_CANDIDATES: tuple[tuple[float, float], ...] = (
    (constants.PV_DEFAULT_PEAK_W, constants.BATTERY_DEFAULT_WH),    # 540 / 720
    (constants.PV_DEFAULT_PEAK_W, constants.BATTERY_DOUBLED_WH),    # 540 / 1440
    (constants.PV_BERLIN_PEAK_W, constants.BATTERY_DOUBLED_WH),     # 600 / 1440
    (720.0, constants.BATTERY_DOUBLED_WH),
    (720.0, 2160.0),
)


@dataclass(frozen=True)
class SizingResult:
    """Outcome of the sizing search at one location."""

    location_name: str
    pv_peak_w: float
    battery_capacity_wh: float
    result: OffGridResult
    rejected: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    @property
    def needed_upsizing(self) -> bool:
        """True when the standard 540 Wp / 720 Wh system was insufficient."""
        return bool(self.rejected)


def find_minimal_system(location: Location,
                        candidates=DEFAULT_CANDIDATES,
                        load: LoadProfile | None = None,
                        weather: WeatherParams | None = None,
                        seed: int = 2022,
                        performance_ratio: float = 0.80,
                        engine: str = "batch",
                        weather_cache=None) -> SizingResult:
    """First zero-downtime configuration from the candidate ladder.

    Raises :class:`InfeasibleError` when even the largest candidate has
    downtime (e.g. an unrealistically large load).  ``weather=None`` uses the
    location's calibrated weather character.

    ``engine="batch"`` (default) evaluates the whole ladder in one vectorized
    pass with the weather year synthesized once and memoized
    (:mod:`repro.solar.batch`); ``engine="scalar"`` walks the ladder with
    per-candidate :meth:`~repro.solar.offgrid.OffGridSystem.simulate_year`
    calls.  The batch engine's fused kernel agrees with the scalar walk to
    1e-9 on SoC-dependent floats and exactly on everything else, so both
    engines pick the same configuration.
    """
    if engine == "batch":
        from repro.solar.batch import simulate_candidates
        results = simulate_candidates(
            location, candidates, load=load, weather=weather, seed=seed,
            performance_ratio=performance_ratio, weather_cache=weather_cache)
    elif engine == "scalar":
        results = (
            OffGridSystem(
                location=location,
                pv=PvArray(peak_w=pv_peak_w, performance_ratio=performance_ratio),
                battery=Battery(capacity_wh=battery_wh),
                load=load,
                weather=weather,
                seed=seed,
            ).simulate_year()
            for pv_peak_w, battery_wh in candidates)
    else:
        raise ConfigurationError(
            f"engine must be 'batch' or 'scalar', got {engine!r}")

    rejected: list[tuple[float, float]] = []
    for (pv_peak_w, battery_wh), result in zip(candidates, results):
        if result.zero_downtime:
            return SizingResult(
                location_name=location.name,
                pv_peak_w=pv_peak_w,
                battery_capacity_wh=battery_wh,
                result=result,
                rejected=tuple(rejected),
            )
        rejected.append((pv_peak_w, battery_wh))
    raise InfeasibleError(
        f"no candidate configuration achieves zero downtime at {location.name}; "
        f"tried {list(candidates)}")
