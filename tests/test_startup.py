"""What `import hcflink` and the subcommands load.

No subcommand loads numpy: budget, rbs, powerfeed, latency, span-curve and
contour --format svg evaluate scalar closed forms, contour --format csv|json
evaluates its grid through explore's pure-Python row kernel, and a tabulated
transceiver interpolates with bisect. Only the library's sweep_grid, which
returns numpy arrays, imports it, when it is called. budget, rbs, powerfeed and
latency need none of the studies either, so they must start without importing
explore: that is what the package's lazy exports keep.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hcflink

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = (
    "import io, json, sys\n"
    "from contextlib import redirect_stdout\n"
    "from hcflink.cli import main\n"
    "with redirect_stdout(io.StringIO()):\n"
    "    code = main(json.loads(sys.argv[1]))\n"
    "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules,\n"
    "                  'explore': 'hcflink.explore' in sys.modules}))\n"
)


def _fresh_python(*args: str) -> str:
    """stdout of `python -c ...` in a fresh interpreter with src on the path."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) if not old else f"{SRC}{os.pathsep}{old}")
    proc = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def _run_main(argv: list[str]) -> dict:
    """main(argv) in a fresh interpreter: its exit code and whether numpy and
    hcflink.explore loaded."""
    return json.loads(_fresh_python(_PROBE, json.dumps(argv)))


@pytest.mark.parametrize(
    "argv",
    [["budget"], ["budget", "--include-rbs", "true"], ["rbs"], ["powerfeed"], ["latency"]],
    ids=" ".join,
)
def test_scalar_commands_do_not_load_numpy(argv):
    # Nor explore: the 1/GSNR law's closed forms they may need live in system.
    assert _run_main(argv) == {"code": 0, "numpy": False, "explore": False}


@pytest.mark.parametrize(
    "flags",
    [["--format", "csv"], ["--format", "json"], ["--include-rbs", "true"], ["--trx-table"]],
    ids=" ".join,
)
def test_span_curve_does_not_load_numpy(tmp_path, flags):
    if flags == ["--trx-table"]:
        table = tmp_path / "trx.csv"
        table.write_text("5,100\n8,300\n10,300\n14,500\n20,600\n", encoding="utf-8")
        flags = ["--trx-table", str(table), "--target-tbps", "900"]
    assert _run_main(["span-curve", *flags]) == {"code": 0, "numpy": False, "explore": True}


def test_import_explore_does_not_load_numpy():
    probe = "import sys, hcflink.explore; print('numpy' in sys.modules)"
    assert _fresh_python(probe).strip() == "False"


@pytest.mark.parametrize("table", [False, True], ids=["shannon-gap", "trx-table"])
def test_contour_svg_does_not_load_numpy(tmp_path, table):
    # Its contours come from the cubic's roots per loss row, with no sweep grid.
    flags = ["--format", "svg", "--levels", "950,1000"]
    if table:
        path = tmp_path / "trx.csv"
        path.write_text("5,100\n8,300\n10,300\n14,500\n20,600\n", encoding="utf-8")
        flags += ["--trx-table", str(path)]
    assert _run_main(["contour", *flags]) == {"code": 0, "numpy": False, "explore": True}


_TABLE = "5,100\n8,300\n10,300\n14,500\n20,600\n"


@pytest.mark.parametrize(
    "flags",
    [["--format", "csv"], ["--format", "json"], ["--format", "svg"], ["--include-rbs", "true"],
     ["--trx-table"]],
    ids=" ".join,
)
def test_contour_does_not_load_numpy(tmp_path, flags):
    # Its grid comes from the row kernel in plain floats, one loss row at a time.
    if flags == ["--trx-table"]:
        table = tmp_path / "trx.csv"
        table.write_text(_TABLE, encoding="utf-8")
        flags = ["--trx-table", str(table), "--format", "json"]
    assert _run_main(["contour", *flags]) == {"code": 0, "numpy": False, "explore": True}


def test_budget_with_a_table_does_not_load_numpy(tmp_path):
    # The table's rate is a bisect and np.interp's arithmetic in plain floats.
    table = tmp_path / "trx.csv"
    table.write_text(_TABLE, encoding="utf-8")
    assert _run_main(["budget", "--trx-table", str(table)]) == {
        "code": 0, "numpy": False, "explore": False}


def test_sweep_grid_loads_numpy():
    # The probe can tell: sweep_grid's arrays do load it.
    probe = ("import sys\n"
             "from hcflink.config import parse_config, resolve_transceiver\n"
             "from hcflink.explore import sweep_grid\n"
             "cfg = parse_config('')\n"
             "plan = cfg.plan()\n"
             "before = 'numpy' in sys.modules\n"
             "sweep_grid(plan, resolve_transceiver(cfg, plan)[0], cfg.grid())\n"
             "print(before, 'numpy' in sys.modules)")
    assert _fresh_python(probe).split() == ["False", "True"]


# Every name the package exported when it imported its modules eagerly.
_EXPORTED = {
    "config": ["DEFAULTS", "ConfigError", "RunConfig", "parse_config", "resolve_transceiver"],
    "explore": ["GridSpec", "SolverSettings", "SpanCurvePoint", "SweepGrid", "extract_contour",
                "required_edfa_power", "sensitivity_delta", "span_length_curve", "sweep_grid"],
    "impairments": ["AmplifierSpec", "FiberSpec", "SnrBudget", "ase_inv_snr", "combine_gsnr",
                    "gn_nli_psd_per_span", "imi_inv_snr", "nli_inv_snr", "rbs_brute_force",
                    "rbs_enhancement", "rbs_inv_snr", "rbs_power"],
    "system": ["DEFAULT_CONSTANTS", "InfeasibleError", "LinkPlan", "OperatingPoint",
               "PowerFeedResult", "PowerFeedSpec", "ShannonGapTransceiver",
               "TabulatedTransceiver", "TransceiverModel", "cable_throughput",
               "calibrate_trx_gap", "channel_net_rate", "channels_in_band", "gsnr_terms",
               "link_gsnr", "load_transceiver_table", "per_channel_launch", "power_feed",
               "propagation_latency", "repeater_count"],
    "units": ["PhysicalConstants", "attenuation_db_to_per_km", "db_to_linear", "dbm_to_watt",
              "linear_to_db", "sinhc", "watt_to_dbm"],
}


@pytest.mark.parametrize("module,name",
                         [(module, name) for module, names in _EXPORTED.items()
                          for name in names])
def test_lazy_export_is_the_module_object(module, name):
    namespace: dict = {}
    exec(f"from hcflink import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"hcflink.{module}"), name)
    assert name in hcflink.__all__
    assert name in dir(hcflink)


def test_all_lists_exactly_the_exports():
    assert sorted(hcflink.__all__) == sorted(n for names in _EXPORTED.values() for n in names)
    assert hcflink.__version__ == "0.1.0"


def test_submodule_import_through_the_package():
    from hcflink import explore
    from hcflink import explore as again

    assert explore is again is sys.modules["hcflink.explore"]
    assert explore.sweep_grid is hcflink.sweep_grid


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        hcflink.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from hcflink import nope", {})
