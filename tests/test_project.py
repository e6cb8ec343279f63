"""The project metadata: every console script it declares can be loaded."""

import importlib
import pathlib
import tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_target_imports():
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
