"""A warm transceiver-table cache gives the benchmark's solves the same bits.

perfbench's solve-map workload resolves 40 seeded span-curve plans per pass,
half of them against one table file. load_transceiver_table parses each
(path, text) once per process, so every pass after the first shares the
cached model. This test runs the same plans cold, warm and with the models
built straight from the generated rows, and requires identical points.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from hcflink import explore, system
from hcflink.config import parse_config, resolve_transceiver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def gen():
    """perfbench's stdlib-only input generator, imported from its directory
    without changing it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        import gen
    return gen


def _solve_pass(gen, plans, model=None):
    """Each plan's span curve as float.hex triples; model, when given, stands
    in for every tabulated transceiver."""
    curves = []
    for spec in plans:
        cfg = parse_config(spec["config_text"])
        plan = cfg.plan()
        if model is not None and spec["transceiver"] == "tabulated":
            trx = model
        else:
            trx, _ = resolve_transceiver(cfg, plan)
        points = explore.span_length_curve(plan, trx, spec["loss_db_per_km"], gen.SPAN_MIN_KM,
                                           gen.SPAN_MAX_KM, gen.SPAN_POINTS, spec["target_tbps"])
        curves.append([(p.span_km.hex(), p.required_dbm.hex(), p.feasible) for p in points])
    return curves


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_warm_cache_solves_like_a_cold_one(gen, tmp_path, seed):
    cfg = parse_config("")
    gap_db = resolve_transceiver(cfg, cfg.plan())[1]["gap_db"]
    rows = gen.transceiver_table(seed)
    table = tmp_path / f"table-{seed}.csv"
    table.write_text("# gsnr_db,net_rate_gbps\n" + "".join(f"{g!r},{r!r}\n" for g, r in rows))
    plans = gen.solve_plans(seed, gap_db, str(table))
    assert sum(spec["transceiver"] == "tabulated" for spec in plans) == 20

    system._parse_transceiver_table.cache_clear()
    cold = _solve_pass(gen, plans)
    assert system._parse_transceiver_table.cache_info().misses == 1  # one parse for 20 loads
    warm = _solve_pass(gen, plans)
    direct = _solve_pass(gen, plans, system.TabulatedTransceiver(tuple(rows)))
    assert cold == warm == direct
