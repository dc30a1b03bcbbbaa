"""``tools/code_lines.py`` counts code lines, not blank, comment or docstring lines."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = code_lines
_spec.loader.exec_module(code_lines)

# Nine code lines: the import, the assignment's two lines, the class line,
# the method line, its return, the def line, the string assigned to a name
# (not a docstring) and the call.
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment

# A comment line.
TABLE = {
    "a": 1}


class Shape:
    """A class docstring."""

    def area(self):
        """A method docstring
        over two lines.
        """
        return math.pi


def note():
    text = """not a docstring"""
    print(text)
'''


def test_fixture_module_counts_its_code_lines_only():
    assert code_lines.code_lines(FIXTURE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        ["10", "total"],
    ]
