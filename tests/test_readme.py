"""README's Library block runs as written, and each `# N` comment on a
statement of it is the value of that statement; each of its commands has a
golden digest and runs cleanly in both formats.  Each demo runs cleanly, and
the tree compiles, with every warning an error.  One traced bench pass of each
workload meets the bench's oracles.  The `test` extra names exactly what the
tests and the bench import."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import fresh_env
from test_cli import GOLDEN_STDOUT, at_data, run

from dptheta.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


# the argv of each `dptheta` line of README's Command line block
BLOCK = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
COMMANDS = [line.split()[1:] for line in BLOCK.group(1).splitlines() if line.startswith("dptheta ")]


def test_readme_commands_have_golden_digests():
    """Each `dptheta` line of the Command line block, with `--format tsv`,
    parses to the options of a GOLDEN_STDOUT row, in whatever order."""
    parse = build_parser().parse_args
    golden = [parse(at_data(argv)) for argv, _ in GOLDEN_STDOUT]
    missing = [" ".join(argv) for argv in COMMANDS
               if parse(at_data([*argv, "--format", "tsv"], ROOT)) not in golden]
    assert COMMANDS and not missing


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["tsv", "pretty"])
@pytest.mark.parametrize("argv", COMMANDS, ids=map(" ".join, COMMANDS))
def test_readme_command_runs_cleanly(capsys, argv, fmt):
    """Exit 0, nothing on stderr, and no warning."""
    code, _, err = run(capsys, *at_data([*argv, "--format", fmt], ROOT))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/demo_*.py")), ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    """-S hides site-packages, so importing a test-only package fails."""
    proc = subprocess.run([sys.executable, "-S", "-W", "error", str(demo)],
                          capture_output=True, text=True, timeout=120, env=fresh_env())
    assert (proc.returncode, proc.stderr) == (0, "")


def test_tree_compiles_without_warnings(tmp_path):
    """An invalid escape or `is` with a literal warns at compile time."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "compileall", "-q",
                           "src", "tests", "bench", "demos"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT,
                          env=dict(fresh_env(), PYTHONPYCACHEPREFIX=str(tmp_path)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("workload", ["cli", "nodal", "algebra"])
def test_bench_smoke_traced(workload):
    """`bench/run.py --seconds 0 --trace 1`: an untraced and a traced pass
    of every op, then the kernel rows, all under the bench's oracles (exit
    codes, Weyl invariance, tangency verdicts, zero counts).  The cli passes
    run cli.main in process with cold caches, so they also cover handlers
    that import their layer on first use."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    failed = "\n".join(line for line in lines if line.startswith("# FAILED"))
    assert (result["correct"], result["failed"]) == (True, 0), failed
    assert result["attempted"] > 0


def test_test_extra_names_exactly_the_imports():
    """The `test` extra of pyproject.toml names exactly the packages that
    `tests/` and `bench/` import, imports inside functions included, once
    the stdlib, their own files and dptheta are dropped."""
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    named = set(re.findall(r'"([A-Za-z0-9_.-]+)', extra.group(1)))
    files = [*ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]
    local = {path.stem for path in files} | {"dptheta"}
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) - local == named
