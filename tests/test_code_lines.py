"""`tests/code_lines.py`, the code-line count of the package's modules."""

from code_lines import code_lines, main

SOURCE = '''"""A module docstring
over two lines."""

# a comment
x = (1 +
     2)


def f():
    """A function docstring."""
    y = """a string
    that is no docstring"""
    return x, y  # a trailing comment
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # x = (1 + / 2) / def f(): / y = """a string / that is ... / return x, y
    assert code_lines(SOURCE) == 6
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text("")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["mod", "6", "empty", "0", "total", "6"]
