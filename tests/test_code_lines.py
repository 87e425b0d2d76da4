"""``tests/code_lines.py`` counts the lines that hold code: no blank
lines, no comment-only lines and no docstrings."""

from code_lines import code_lines, main

FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a comment after code: the line counts

# a comment alone does not


class A:
    """A class docstring."""

    x = """a string that is no docstring
    spans two code lines"""

    def f(self, y):
        """A function docstring."""
        return (
            y + os.sep
        )
'''


def test_code_lines_counts_the_lines_that_hold_code():
    # import, class, the two lines of x, def, return, its operand, its paren
    assert code_lines(FIXTURE) == 8
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_code_lines_totals_the_files_of_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 10
    assert capsys.readouterr().out.splitlines()[-1].split() == ["10", "total"]
