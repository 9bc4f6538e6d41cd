"""The package loads its submodules on first use.

Each check runs in a fresh interpreter, because the test process has
already imported every submodule.
"""

import json
import os
import subprocess
import sys

import endoclass

SRC = os.path.dirname(os.path.dirname(os.path.abspath(endoclass.__file__)))
HEAVY = ["endoclass.algebra", "endoclass.iso", "endoclass.equiv", "endoclass.classify",
         "dataclasses"]


def loaded_after(code):
    """The modules a fresh interpreter has loaded after running code."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_field_setup_loads_no_algebra_module():
    loaded = loaded_after("import endoclass\nfrom endoclass.fields import field_from_spec\n"
                          "field_from_spec('F16').tables()")
    assert {"endoclass", "endoclass.fields", "endoclass.gf2x"} <= loaded
    assert not loaded & set(HEAVY)


def test_cli_loads_every_submodule():
    # a tracer that wraps functions after `import endoclass.cli` sees them all
    loaded = loaded_after("import endoclass.cli")
    assert set(HEAVY) <= loaded


def test_star_import_binds_every_exported_name():
    loaded_after("import endoclass\nfrom endoclass import *\n"
                 "assert all(name in globals() for name in endoclass.__all__)")


def test_every_exported_name_resolves_lazily():
    loaded_after("import endoclass, sys\n"
                 "for name in endoclass.__all__[1:]:\n"
                 "    value = getattr(endoclass, name)\n"
                 "    owner = sys.modules[value.__module__]\n"
                 "    assert owner.__name__.startswith('endoclass.'), name\n"
                 "    assert getattr(owner, name) is value, name\n"
                 "assert set(endoclass.__all__) <= set(dir(endoclass))")


def test_unknown_attribute_raises_attribute_error():
    loaded_after("import endoclass\n"
                 "try:\n"
                 "    endoclass.not_a_name\n"
                 "except AttributeError as exc:\n"
                 "    assert \"no attribute 'not_a_name'\" in str(exc)\n"
                 "else:\n"
                 "    raise AssertionError('endoclass.not_a_name resolved')")
