"""Named sequential-scan kernels of the batch engines.

Each kernel is one of the recurrences the batch engines cannot vectorize
away — the only remaining sequential loops in the codebase:

* :func:`ar1_scan` — the AR(1) linear recurrence (shadowing traces,
  daily-clearness series);
* :func:`ar1_min_scan` — AR(1) shadow recurrence fused with the running
  SNR minimum (the Monte-Carlo engine's inner loop);
* :func:`soc_scan` — the battery state-of-charge clip-recurrence with its
  energy accounting (the solar engine's hourly walk);
* :func:`occupancy_scan` — the occupancy-group wake-cycle walk (the sim
  engine's group scan).

The names re-export the fused formulations of
:mod:`repro.kernels.numpy_fused`, the only production path.  The engines
import them by name; :mod:`repro.kernels.reference` keeps the original step
loops as test oracles, which the parity tests swap in for those imported
names to pin the engines against their scalar escape hatches bit for bit.
"""

from __future__ import annotations

from repro.kernels.numpy_fused import (
    ar1_min_scan,
    ar1_scan,
    occupancy_scan,
    soc_scan,
)

__all__ = ["KERNEL_NAMES", "ar1_scan", "ar1_min_scan", "soc_scan",
           "occupancy_scan"]

#: The kernel names; :mod:`repro.kernels.reference` provides each one too.
KERNEL_NAMES = ("ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan")
