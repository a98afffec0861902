"""tools/count_lines.py: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment on its own line

import os  # a trailing comment does not hide the code


def f(x):
    """Function docstring."""

    return x


TABLE = """one
two
three"""
'''
#: import, def, return, and the three lines of the assigned string
FIXTURE_CODE = 6


def _tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert _tool().code_lines(path) == FIXTURE_CODE


def test_main_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    _tool().main(["count_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "wc", "-l", "code"]
    modules = {name: (int(wc), int(code)) for name, wc, code in rows[1:-1]}
    assert modules == {"a.py": (FIXTURE.count("\n"), FIXTURE_CODE),
                       "b.py": (3, 1)}
    assert rows[-1] == ["total", str(sum(wc for wc, _ in modules.values())),
                        str(sum(code for _, code in modules.values()))]
