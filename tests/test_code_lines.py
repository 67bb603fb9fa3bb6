"""``tests/code_lines.py`` counts a line when it holds a token other than
a comment outside every module, class and function docstring."""

from code_lines import code_lines, main

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # counted: code before the comment


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        \'\'\'Function docstring\'\'\' "implicitly joined"
        return (1 +
                2)

    async def g(self):
        "One-line docstring."; y = 1


def h():
    return 0; "a statement, not a docstring"
'''

CODE = {5, 8, 11, 12, 14, 16, 17, 19, 20, 23, 24}


def test_counts_the_code_lines_of_a_fixture():
    assert code_lines(FIXTURE) == CODE


def test_prints_each_file_then_the_total(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["11", str(path), "11", str(path), "22", "total"]
