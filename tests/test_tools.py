import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from code_lines import code_lines  # noqa: E402


def test_code_lines_leave_out_comments_blank_lines_and_docstrings():
    source = '''"""Module docstring,
over two lines."""

import math   # a comment on a code line counts


# a comment line
def f(x):
    """Docstring."""
    s = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    """One line."""
    y = 2
'''
    # import, def, s = (two lines), return (two lines), class, y = 2
    assert code_lines(source) == 8


def test_code_lines_reports_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"),
                          str(ROOT / "src" / "ellipsegas")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    rows = [line.split() for line in out]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])
    assert any(path.endswith("specialfns.py") for _, path in rows[:-1])
