"""Package namespaces export lazily; a harness loads only its call graph.

Every package under :mod:`repro` re-exports its modules' public names
through PEP 562 (``repro._lazy``), so importing one harness does not
drag in the layers it never calls (DESIGN.md §3).  The probes run in a
fresh interpreter, since this process has long since imported
everything.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).parents[1])

PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def loaded_after(statement: str):
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    probe = (
        f"import sys; {statement}; "
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC},
    ).stdout
    return out.split()


def under(modules, *prefixes):
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


UNCALLED_BY_HARNESSES = (
    "repro.market.scenario",
    "repro.obs.federation",
    "repro.obs.export",
    "repro.host.scheduler",
    "repro.core.federation",
    "repro.experiments",
)


@pytest.mark.parametrize("harness", ["repro.scenario.run", "repro.faults.chaos"])
def test_a_harness_loads_only_what_it_calls(harness):
    modules = loaded_after(f"import {harness}")
    assert harness in modules
    assert under(modules, *UNCALLED_BY_HARNESSES) == []


def test_the_cpu_scheduler_loads_no_platform_layer():
    modules = loaded_after("import repro.host.scheduler")
    assert under(modules, "repro.core", "repro.net", "repro.guestos") == []


def test_a_name_loads_its_defining_module_and_no_sibling():
    modules = loaded_after("from repro.core import MachineConfig")
    assert under(modules, "repro.core") == ["repro.core", "repro.core.requirements"]


def defined_names(module):
    """Top-level names ``module`` defines itself (not ones it imports)."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    submodules = [
        importlib.import_module(f"{name}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.ispkg
    ]
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    for public in package.__all__:
        value = getattr(package, public)
        assert public in dir(package), public
        if public in set(defined_names(package)):
            continue  # defined in the package's own __init__
        origins = [
            module.__name__
            for module in submodules
            if public in set(defined_names(module))
            and getattr(module, public) is value
        ]
        assert len(origins) == 1, (public, origins)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    assert not hasattr(repro.core, "NoSuchName")
    with pytest.raises(ImportError):
        exec("from repro.core import NoSuchName", {})
