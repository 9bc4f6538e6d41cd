"""tools/sloc.py counts what it says: no blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is not a docstring"""
        return (text,
                os.sep)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, def, the two lines of `text` and the two of `return`
    assert sloc.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(capsys):
    assert sloc.main() == 0
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(n) for n, name in (line.split() for line in lines)}
    modules = {p.name for p in sloc.PACKAGE.glob("*.py")}
    assert set(counts) == modules | {"total"}
    assert counts["total"] == sum(counts[m] for m in modules)
