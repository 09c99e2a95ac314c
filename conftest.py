"""Fixtures shared by ``tests/`` and ``benchmarks/``.

The batch engines run the fused kernels of :mod:`repro.kernels` (the only
production path).  The step-loop kernels of :mod:`repro.kernels.reference`
are test oracles: :func:`reference_kernels` swaps them in for the names the
engines imported, so an engine call inside the swap replays the historical
loops and can be pinned bit for bit against its scalar escape hatch.
"""

from __future__ import annotations

import contextlib
import importlib

import pytest

#: Every ``(module, kernel names)`` an engine calls a kernel through.  The
#: swap-coverage guard in ``tests/test_kernels.py`` fails when a module
#: imports a kernel that is missing here.
KERNEL_SITES = (
    ("repro.kernels",
     ("ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan")),
    ("repro.propagation.fading", ("ar1_scan",)),
    ("repro.solar.irradiance", ("ar1_scan",)),
    ("repro.solar.batch", ("soc_scan",)),
    ("repro.optimize.mc", ("ar1_min_scan",)),
    ("repro.simulation.batch", ("occupancy_scan",)),
)


@contextlib.contextmanager
def swap_reference_kernels():
    """Run the enclosed block on the reference step-loop kernels."""
    from repro.kernels import reference

    with pytest.MonkeyPatch.context() as patch:
        for module, names in KERNEL_SITES:
            target = importlib.import_module(module)
            for name in names:
                patch.setattr(target, name, getattr(reference, name))
        yield


@pytest.fixture
def reference_kernels():
    """The :func:`swap_reference_kernels` context manager.

    Usage: ``with reference_kernels(): ...`` — the fused kernels are back
    in place when the block exits, so one test can compare both sides.
    """
    return swap_reference_kernels
