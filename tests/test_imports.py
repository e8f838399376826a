"""Import hygiene: a mine loads the engine it runs and nothing else."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import registry
from repro.data.example import paper_example_database
from repro.data.io import write_sales_csv
from repro.registry import builtin_engine_names, engine_specs

SRC = Path(__file__).resolve().parents[1] / "src"

#: What a ``setm-columnar`` mine of a CSV never needs.
UNUSED_BY_COLUMNAR_MINE = (
    "repro.sql",
    "repro.storage",
    "repro.relational",
    "repro.sqlbridge",
    "repro.baselines",
    "repro.analysis",
    "repro.serve",
    "repro.query",
    "repro.core.setm_parallel",
    "repro.core.transport",
    "sqlite3",
    "multiprocessing",
)

#: Runs ``python -m repro ARGV...`` and then writes the loaded module
#: names to the file named by the first argument.
_PROBE = """
import json, runpy, sys
modules_path, *argv = sys.argv[1:]
sys.argv = ["repro", *argv]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
else:
    code = 0
with open(modules_path, "w") as handle:
    json.dump(sorted(sys.modules), handle)
sys.exit(code)
"""


def test_columnar_mine_imports_only_what_it_runs(tmp_path):
    data = tmp_path / "x.csv"
    write_sales_csv(paper_example_database(), data)
    modules_path = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(modules_path), "mine", str(data),
         "--engine", "setm-columnar", "--minsup", "0.3", "--json"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(done.stdout)["num_patterns"] == 13
    loaded = json.loads(modules_path.read_text())
    assert "repro.core.setm_columnar" in loaded
    unexpected = [
        name
        for name in loaded
        for unused in UNUSED_BY_COLUMNAR_MINE
        if name == unused or name.startswith(unused + ".")
    ]
    assert unexpected == []


def test_builtin_engine_map_names_every_builtin_engine():
    # engine_specs() imports every built-in engine module.
    builtin = {
        spec.name
        for spec in engine_specs()
        if spec.runner.__module__.startswith("repro.")
    }
    assert builtin == set(builtin_engine_names())
    for spec in engine_specs():
        if spec.name in builtin:
            module = registry._BUILTIN_ENGINE_MODULES[spec.name]
            assert spec.runner.__module__ == module, spec.name
