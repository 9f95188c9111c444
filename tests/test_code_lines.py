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


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "canned.py"
    path.write_text(SOURCE)
    # import, class, size, def method, return os.path.join(...) over 4 lines,
    # def text, return of a string over 2 lines
    assert _code_lines()(path) == 1 + 1 + 1 + 1 + 4 + 1 + 2

