"""README's Library block runs as written, and each `# N` comment on a
statement of it is the value of that statement; each of its commands has a
golden digest."""

import ast
import re
from pathlib import Path

from test_cli import GOLDEN_STDOUT, at_data

from dptheta.cli import build_parser

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


def test_readme_commands_have_golden_digests():
    """Each `dptheta` line of the Command line block, with `--format tsv`,
    parses to the options of a GOLDEN_STDOUT row, in whatever order."""
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", README.read_text(),
                      re.M | re.S).group(1)
    commands = [line.split()[1:] + ["--format", "tsv"]
                for line in block.splitlines() if line.startswith("dptheta ")]
    parse = build_parser().parse_args
    golden = [parse(at_data(argv)) for argv, _ in GOLDEN_STDOUT]
    missing = [" ".join(argv) for argv in commands
               if parse(at_data(argv, README.parent)) not in golden]
    assert commands and not missing
