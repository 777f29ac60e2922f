"""README's Library block runs as written, and each `# N` comment on a
statement of it is the value of that statement."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block():
    text = README.read_text()
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        value = re.search(r"#\s*(-?\d+)", lines[stmt.end_lineno - 1])
        if value and isinstance(stmt, ast.Expr):
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == int(value.group(1)), ast.unparse(stmt)
            checked.append(got)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked, "no `# N` value in the Library block"
