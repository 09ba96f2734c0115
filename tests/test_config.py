import ast
import importlib
import inspect
import numbers
import pkgutil
import re

import pytest

import gielab
from gielab import config
from gielab.config import GridConfig
from gielab.errors import InvalidInputError


def test_records_are_immutable():
    with pytest.raises(Exception):
        GridConfig().points = 5


@pytest.mark.parametrize("points", [0, -3])
def test_grid_needs_a_point(points):
    with pytest.raises(InvalidInputError):
        GridConfig(points=points)


@pytest.mark.parametrize("points", [2.5, 13.0, True, False, "13", None])
def test_grid_needs_an_int(points):
    # 2.5 once failed later as a bare TypeError in np.linspace, True ran as a 1-point grid
    with pytest.raises(InvalidInputError, match="int"):
        GridConfig(points=points)


def test_every_constant_in_the_tolerance_index_exists():
    names = re.findall(r"``(\w+)\.(\w+)``", config.__doc__)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"gielab.{module}"), name), f"{module}.{name}"


def test_every_numeric_constant_is_in_the_tolerance_index():
    # the converse of the test above; KMIN_WORKED is a frozen oracle value that a check compares with, not a threshold
    indexed = set(re.findall(r"``(\w+\.\w+)``", config.__doc__)) | {"verify.KMIN_WORKED"}
    constants = []
    for info in pkgutil.iter_modules(gielab.__path__):
        module = importlib.import_module(f"gielab.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.isupper()):
                value = getattr(module, name)
                if isinstance(value, numbers.Real) and not isinstance(value, bool):
                    constants.append(f"{info.name}.{name}")
    assert "optimize.SLAB_POINTS" in constants
    assert [name for name in constants if name not in indexed] == []
