import importlib
import re

import pytest

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


def test_every_constant_in_the_tolerance_index_exists():
    names = re.findall(r"``(\w+)\.(\w+)``", config.__doc__)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"gielab.{module}"), name), f"{module}.{name}"
