"""tools/code_lines.py on a canned source: what counts as a code line."""

import importlib.util

from spawn import ROOT

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Method docstring,

        with a blank line inside."""
        return os.path.join(
            "a",
            "b",
        )


def text():
    """Function docstring."""
    return """a string
that is not a docstring"""
'''


def _module():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "canned.py"
    path.write_text(SOURCE)
    # import, class, size, def method, return os.path.join(...) over 4 lines,
    # def text, return of a string over 2 lines
    assert _module().code_lines(path) == 1 + 1 + 1 + 1 + 4 + 1 + 2


def test_main_counts_each_module_of_a_given_directory(tmp_path, capsys):
    (tmp_path / "canned.py").write_text(SOURCE)
    (tmp_path / "small.py").write_text('"""Docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _module().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["canned.py     11", "small.py       1", "total         12"]
