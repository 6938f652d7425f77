"""The README's Python examples run as written and give what their
comments say."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def commented_values(block: str) -> dict[str, str]:
    """{expression: comment} for each line that is one expression and a comment."""
    out = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and code.strip() and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            out[code.strip()] = comment.strip()
    return out


def test_readme_examples_match_their_comments():
    blocks = python_blocks()
    assert len(blocks) == 2
    spaces = []
    for block in blocks:
        space: dict = {}
        exec(compile(block, str(README), "exec"), space)
        spaces.append(space)
    quick, field = (commented_values(b) for b in blocks)
    for expr, comment in quick.items():
        value = eval(expr, spaces[0])
        if comment.startswith("True"):
            assert value is True, expr
        else:
            assert value == ast.literal_eval(comment), expr
    assert {"rep.degrees", "rep.type_at_zero", "rep.area_pi_multiple"} <= set(quick)
    # "x.inverse()  # -1 + 1*sqrt2, exactly": the value's repr, then a remark
    assert repr(eval("x.inverse()", spaces[1])) == field["x.inverse()"].split(",")[0]
