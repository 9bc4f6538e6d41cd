"""Every function that perfbench/tracer.py wraps exists in endoclass.

The tracer patches endoclass functions by module and attribute path, so
a rename (say of `iso.gl2_lifted`) would break the benchmark; this
reads its TRACED table from the source, without importing perfbench,
and resolves each path.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["TRACED"])
    return ast.literal_eval(node.value)


TRACED = _traced()


def test_tracer_table_is_read():
    assert "iso.gl2_lifted" in TRACED and len(TRACED) >= 10


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_path_resolves_on_its_module(name):
    modname, path = TRACED[name]
    assert modname.split(".")[0] == "endoclass"
    target = functools.reduce(getattr, path.split("."), importlib.import_module(modname))
    assert callable(target)
