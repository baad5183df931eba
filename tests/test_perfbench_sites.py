"""The traced benchmark run wraps hcflink functions by attribute name.

A deleted or renamed name would break only that run, so this test installs
every patch the run makes and undoes them again.
"""

from __future__ import annotations

from pathlib import Path

from hcflink import outputs, system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_patch_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    from spans import Patches, Tracer

    originals = (outputs.write_grid_csv, system.link_gsnr)
    patches = Patches()
    try:
        worker._install_stage_spans(Tracer(), patches)
        for module, attr, _ in worker.KERNEL_SITES:
            patches.replace(module, attr, lambda fn: fn)
    finally:
        patches.restore()
    assert (outputs.write_grid_csv, system.link_gsnr) == originals
