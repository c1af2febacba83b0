"""The public package surface: everything advertised in __all__ is importable."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import repro
import repro.coordination
import repro.core
import repro.scenarios
import repro.simulation
import repro.viz

@pytest.mark.parametrize(
    "module",
    [repro, repro.core, repro.simulation, repro.coordination, repro.scenarios, repro.viz],
    ids=lambda m: m.__name__,
)
def test_all_exports_resolve(module):
    assert module.__doc__, "every public module needs a docstring"
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing name {name}"


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_readme_quickstart_snippet_works():
    """The README's quickstart snippet must keep working verbatim."""
    from repro.coordination import evaluate, late_task
    from repro.scenarios import figure2b_scenario

    task = late_task(5)
    scenario = figure2b_scenario(margin=5)
    run = scenario.run()
    outcome = evaluate(run, task)
    assert outcome.satisfied and outcome.b_performed

    from repro.core import KnowledgeChecker, general

    sigma = run.find_action("B", "b").node
    go = next(r.receiver_node for r in run.external_deliveries if r.process == "C")
    theta_a = general(go, ("C", "A"))
    gap = KnowledgeChecker(sigma, run.timed_network).max_known_gap(theta_a, sigma)
    assert gap is not None and gap >= 5


# ---------------------------------------------------------------------------
# Lazy re-exports (PEP 562): each package maps a name to its defining module.
# ---------------------------------------------------------------------------

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.simulation",
    "repro.coordination",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_are_the_defining_modules_objects(package_name):
    package = importlib.import_module(package_name)
    exported = set()
    for module_name, names in package._EXPORTS.items():
        module = importlib.import_module(module_name, package_name)
        for name in names:
            value = getattr(package, name)
            assert value is getattr(module, name), f"{package_name}.{name}"
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, f"{name} is defined elsewhere"
        exported.update(names)
    assert set(package.__all__) - {"__version__"} == exported
    assert exported <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        package.not_exported


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Run"] is importlib.import_module("repro.simulation.runs").Run


def test_a_reexport_named_like_its_module_stays_the_function():
    """``repro.core.path_to_zigzag`` is a function and a module: importing
    the module first (in a fresh interpreter) must not make the package's
    name the module."""
    code = (
        "import repro.core.path_to_zigzag; "
        "from repro.core import ConversionError, path_to_zigzag; "
        "assert callable(path_to_zigzag), path_to_zigzag"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
