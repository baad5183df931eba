"""hcflink without numpy, as a plain install without the `arrays` extra has it.

Each test runs a fresh interpreter in which a sys.meta_path finder makes numpy
unimportable before hcflink loads. There every golden under tests/golden/ is
written byte for byte with no stderr, `import hcflink` and the exported scalar
functions (rbs_brute_force among them) give the values they give with numpy
present, and only sweep_grid, which returns numpy arrays, raises ImportError.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_goldens import CASES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# The goldens tests/test_cli.py pins, with the arguments it runs them with.
OTHER_GOLDENS = {
    "budget_default.json": ["budget"],
    "span_curve_default.csv": ["span-curve", "--format", "csv"],
    "span_curve_default.json": ["span-curve", "--format", "json"],
    "contour_default.svg": ["contour", "--format", "svg", "--levels", "950,1000,1050"],
}
GOLDENS = {**CASES, **OTHER_GOLDENS}

_NO_NUMPY = (
    "import sys\n"
    "class NoNumpy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' or name.startswith('numpy.'):\n"
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
    "sys.meta_path.insert(0, NoNumpy())\n"
)

_RUN_GOLDENS = _NO_NUMPY + (
    "import io, json\n"
    "from contextlib import redirect_stderr, redirect_stdout\n"
    "from hcflink.cli import main\n"
    "runs = {}\n"
    "for name, argv in json.loads(sys.argv[1]).items():\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with redirect_stdout(out), redirect_stderr(err):\n"
    "        code = main(argv)\n"
    "    runs[name] = [code, out.getvalue(), err.getvalue()]\n"
    "print(json.dumps({'runs': runs, 'numpy': 'numpy' in sys.modules}))\n"
)

# The exported scalar functions at the reference link; `values` is their results.
_CALLS = (
    "from hcflink import *\n"
    "plan = LinkPlan(FiberSpec(), AmplifierSpec())\n"
    "op = OperatingPoint(0.06, 20.3)\n"
    "trx = ShannonGapTransceiver(calibrate_trx_gap(plan, op, 1000.0))\n"
    "budget = link_gsnr(plan, op, include_rbs=True)\n"
    "values = [\n"
    "    db_to_linear(3.0), linear_to_db(2.0), dbm_to_watt(20.3), watt_to_dbm(0.1),\n"
    "    attenuation_db_to_per_km(0.06), sinhc(1.5),\n"
    "    ase_inv_snr(AmplifierSpec(), 1e-3, 16.0, 33, 73.5e9, DEFAULT_CONSTANTS),\n"
    "    gn_nli_psd_per_span(FiberSpec(), 1e-14, 200.0, 5e12, DEFAULT_CONSTANTS),\n"
    "    nli_inv_snr(1e-30, 33, 73.5e9, 1e-3), imi_inv_snr(-65.0, 6600.0),\n"
    "    rbs_enhancement(12.0), rbs_power(1e-3, -70.0, 6600.0, 12.0),\n"
    "    rbs_inv_snr(-70.0, 6600.0, 12.0),\n"
    "    rbs_brute_force(1e-3, -70.0, 0.06, 200.0, 33, 0.05),\n"
    "    combine_gsnr([1e-3, 2e-3, 3e-4, 1e-5]), budget,\n"
    "    cable_throughput(plan, trx, op), channel_net_rate(trx, budget.gsnr_db, 73.5e9),\n"
    "    channels_in_band(5e12, 75e9), gsnr_terms(plan, 0.06, 33, True),\n"
    "    per_channel_launch(20.3, 66, 2.0), power_feed(PowerFeedSpec(), 6600.0, 32),\n"
    "    propagation_latency(6600.0, 1.0003), repeater_count(6600.0, 200.0),\n"
    "    required_edfa_power(plan, trx, 0.06, 200.0, 1000.0),\n"
    "    span_length_curve(plan, trx, 0.06, 150.0, 250.0, 21, 1000.0),\n"
    "    sensitivity_delta(plan, trx, 0.06, plan, 1000.0, include_rbs=True),\n"
    "]\n"
)

_RUN_CALLS = _NO_NUMPY + _CALLS + (
    "import hcflink, json\n"
    "try:\n"
    "    sweep_grid(plan, trx, parse_config('').grid())\n"
    "    sweep = None\n"
    "except ImportError as exc:\n"
    "    sweep = type(exc).__name__\n"
    "print(json.dumps([repr(values), sweep, hcflink.__version__, 'numpy' in sys.modules]))\n"
)


def _without_numpy(probe: str, *args: str) -> str:
    """stdout of `python -c probe args` from tests/, with numpy blocked and src
    on the path."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) if not old else f"{SRC}{os.pathsep}{old}")
    proc = subprocess.run([sys.executable, "-c", probe, *args], env=env, cwd=TESTS,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def golden_runs() -> dict:
    """Every golden's command, run once in one interpreter without numpy."""
    return json.loads(_without_numpy(_RUN_GOLDENS, json.dumps(GOLDENS)))


def test_every_golden_has_a_case():
    inputs = {"sweep_9x7.conf", "trx_table.csv"}
    assert sorted(GOLDENS) == sorted(p.name for p in (TESTS / "golden").iterdir()
                                     if p.name not in inputs)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_is_written_without_numpy(golden_runs, name):
    code, out, err = golden_runs["runs"][name]
    assert (code, err) == (0, "")
    assert out == (TESTS / "golden" / name).read_text(encoding="utf-8")
    assert golden_runs["numpy"] is False


def test_scalar_functions_work_without_numpy_and_sweep_grid_does_not():
    namespace: dict = {}
    exec(_CALLS, namespace)
    values, sweep, version, numpy_loaded = json.loads(_without_numpy(_RUN_CALLS))
    assert values == repr(namespace["values"])
    assert (sweep, version, numpy_loaded) == ("ModuleNotFoundError", "0.1.0", False)
