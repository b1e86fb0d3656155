"""The package namespace: every public name is stated once, in its module's ``__all__``."""
import importlib
import subprocess
import sys
import types
from collections import Counter

import omnidris
from helpers import checkout_env

LIBRARY_MODULES = ("channel", "rate", "optimize", "scenario", "reports")


def _library_modules() -> dict:
    return {name: importlib.import_module(f"omnidris.{name}") for name in LIBRARY_MODULES}


def test_every_public_name_has_one_home():
    modules = _library_modules()
    counts = Counter(name for module in modules.values() for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []
    for module in modules.values():
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], module


def test_the_package_exports_the_union_of_the_module_lists():
    union = {name for module in _library_modules().values() for name in module.__all__}
    public = {
        name
        for name, value in vars(omnidris).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == union - {"optimize"}


def test_optimize_is_the_module_and_its_function_is_inside():
    assert omnidris.optimize is sys.modules["omnidris.optimize"]
    assert isinstance(omnidris.optimize.optimize, types.FunctionType)
    assert omnidris.optimize.optimize.__module__ == "omnidris.optimize"


def test_optimize_is_the_one_public_optimizer():
    public = [name for name in omnidris.optimize.__all__ if name.startswith("optimize")]
    assert public == ["optimize"]
    # bench/workloads.py calls these two by name until it calls optimize (ROADMAP item 1):
    # deleting them before then fails here rather than in the benchmark run
    for name in ("optimize_fixed_theta", "optimize_proportional"):
        assert callable(getattr(omnidris.optimize, name))
        assert not hasattr(omnidris, name)


def test_importing_the_package_loads_neither_the_cli_nor_pyyaml():
    script = (
        "import sys\nimport omnidris\n"
        "print(sorted(m for m in ('omnidris.cli', 'yaml') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env(), timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
