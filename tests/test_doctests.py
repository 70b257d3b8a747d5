import ast
import contextlib
import doctest
import io
import os
import re

from bruhatkit import (algdim, bruhat, cli, complexity, deodhar, rootsys,
                       weyl)


def test_module_doctests():
    for module in (rootsys, weyl, bruhat, algdim, deodhar, complexity, cli):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__


def _quickstart() -> str:
    """The python block of README's "Library quickstart" section."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart():
    # Each expression statement's comment starts with the repr of its
    # value, and the comment lines that start a line are what the block
    # prints.
    source = _quickstart()
    lines = source.splitlines()
    namespace, printed, values = {}, io.StringIO(), []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), namespace)
            comment = lines[node.lineno - 1].split("# ", 1)[1]
            assert re.fullmatch(re.escape(repr(value)) + r"([:,] .*)?",
                                comment), (comment, value)
            values.append(value)
        else:
            with contextlib.redirect_stdout(printed):
                exec(compile(ast.Module([node], []), "README.md", "exec"),
                     namespace)
    assert values == [(1, 4, 4, 1), 3, True, 0, 0]
    output = [line[2:] for line in lines if line.startswith("# ")]
    assert output and printed.getvalue().splitlines() == output
