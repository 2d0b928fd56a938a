"""The package namespace: every public name resolves on first use, and
importing the package or its data layer leaves the training engine unloaded."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import evopunn

ENGINE = ("evopunn.draws", "evopunn.evolution", "evopunn.experiment", "evopunn.network",
          "evopunn.twostage")


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this checkout's evopunn."""
    src = str(Path(evopunn.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return result.stdout


def test_data_layer_import_leaves_the_engine_unloaded():
    code = ("import sys, evopunn; print(sorted(m for m in sys.modules if 'evopunn' in m)); "
            "from evopunn import data, datasets; "
            f"print(sorted(m for m in sys.modules if m in {ENGINE!r}))")
    assert run_fresh(code) == "['evopunn']\n[]\n"


def test_bare_import_resolves_a_submodule_on_first_use():
    code = ("import sys, evopunn; net = evopunn.network; "
            "print(net is sys.modules['evopunn.network'], 'network' in vars(evopunn))")
    assert run_fresh(code) == "True True\n"


@pytest.mark.parametrize("name", evopunn.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(evopunn, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"evopunn.{name}"]
    else:
        home = sys.modules[value.__module__]
        assert home.__name__ != "evopunn"
        assert getattr(home, name) is value
    assert vars(evopunn)[name] is value  # cached after the first use


def test_public_names_cover_the_acceptance_suite_and_every_submodule():
    tests = Path(__file__).resolve().parent
    used = set(re.findall(r"\be\.(\w+)", (tests / "test_acceptance.py").read_text()))
    submodules = {path.stem for path in Path(evopunn.__file__).parent.glob("*.py")} - {"__init__"}
    assert used | submodules <= set(evopunn.__all__)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(evopunn, "no_such_name")
    with pytest.raises(AttributeError, match="^module 'evopunn' has no attribute 'no_such_name'$"):
        evopunn.no_such_name


def test_dir_lists_every_public_name():
    assert set(evopunn.__all__) <= set(dir(evopunn))
