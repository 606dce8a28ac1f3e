"""``tools/code_lines.py`` counts code lines: blank, comment and docstring
lines are left out, and a string that is not a docstring counts on every
line it spans."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring,
over two lines."""

import os   # a trailing comment keeps its line

# a comment line


def f(x):
    """A function docstring."""
    s = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    'A class docstring.'
    y = f(2)
'''


def test_blank_comment_and_docstring_lines_are_left_out():
    # import; def; the two lines of s; the two of return; class; y.
    assert code_lines.code_lines(SNIPPET) == 8


def test_a_directory_is_counted_module_by_module(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["8", "1", "9"]
