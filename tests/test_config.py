import importlib
import re

import pytest

from gielab import config
from gielab.config import DEFAULT_GRID, DEFAULT_TOLERANCES, GridConfig, Tolerances, load_config


def test_defaults_returned_without_config(monkeypatch):
    monkeypatch.delenv("GIELAB_CONFIG", raising=False)
    tol, grid = load_config()
    assert tol == DEFAULT_TOLERANCES
    assert grid == DEFAULT_GRID


def test_file_overrides_selected_keys(tmp_path, monkeypatch):
    path = tmp_path / "gielab.conf"
    path.write_text("points = 17\nphysical_atol = 1e-8  # looser gate\n\n# comment line\nt_max=6\n")
    monkeypatch.setenv("GIELAB_CONFIG", str(path))
    tol, grid = load_config()
    assert grid.points == 17
    assert grid.t_max == 6.0
    assert tol.physical_atol == 1e-8
    assert tol.symplectic_atol == DEFAULT_TOLERANCES.symplectic_atol


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(KeyError):
        load_config(str(path))


def test_records_are_immutable():
    with pytest.raises(Exception):
        Tolerances().physical_atol = 1.0
    with pytest.raises(Exception):
        GridConfig().points = 5


def test_every_constant_in_the_tolerance_index_exists():
    names = re.findall(r"``(\w+)\.(\w+)``", config.__doc__)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"gielab.{module}"), name), f"{module}.{name}"
