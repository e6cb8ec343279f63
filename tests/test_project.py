"""The project metadata: every console script it declares can be loaded, and
every benchmark record at the repository root is complete."""

import importlib
import json
import pathlib
import tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_target_imports():
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_bench_record_is_a_before_after_pair():
    """Every speed claim is a recorded before/after pair: each BENCH_*.json
    at the repository root parses and says what changed, the command, the
    host, the method, the runs and their summary."""
    records = sorted(PYPROJECT.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        with open(path) as f:
            record = json.load(f)
        missing = {"change", "command", "host", "method", "runs", "summary"} - set(record)
        assert not missing, (path.name, sorted(missing))
