"""The simulation layer stands below SODA itself (DESIGN.md §3).

``repro.sim`` may use the network and observability layers, but nothing
built on top of it: no SODA core, experiments, scenarios or tenant-side
subsystems.
"""

import ast
import os
import pathlib
import subprocess
import sys

import repro.sim

FORBIDDEN = (
    "repro.core", "repro.experiments", "repro.scenario", "repro.market",
    "repro.faults", "repro.sla", "repro.workload", "repro.host",
    "repro.guestos", "repro.image",
)


def imported_modules(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_sim_sources_import_no_upper_layer():
    sim_dir = pathlib.Path(repro.sim.__file__).parent
    offenders = sorted(
        f"{path.name}: {module}"
        for path in sim_dir.glob("*.py")
        for module in imported_modules(path)
        if any(module == f or module.startswith(f + ".") for f in FORBIDDEN)
    )
    assert offenders == []


def test_importing_the_parallel_simulator_loads_no_core_module():
    probe = (
        "import sys, repro.sim.parallel; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'core']))"
    )
    src = str(pathlib.Path(repro.sim.__file__).parents[2])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"
