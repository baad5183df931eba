"""The benchmark's large contour SVG passes the benchmark's own output check.

perfbench renders `contour --format svg` on its 1001 x 1001 sweep config at
three seeded throughput levels and refuses an SVG that lacks a polyline or a
label for any level. This test runs the same inputs through the CLI handler.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hcflink.cli import run_command
from hcflink.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_inputs():
    """perfbench's stdlib-only input generator and output checks, imported
    from its directory without changing it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import checks
        import gen
    return gen, checks


def test_large_svg_passes_the_benchmark_check(perfbench_inputs):
    gen, checks = perfbench_inputs
    cfg = parse_config(json.dumps(gen.LARGE_CONFIG))
    for seed in range(1, 13):
        levels = gen.large_levels(seed)
        svg = run_command("contour", cfg, fmt="svg", levels=tuple(levels))
        assert checks.check_svg(svg, levels) == [], seed
