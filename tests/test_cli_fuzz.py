"""Fuzz the CLI with small, bounded inputs: every run must end in exit code
0, 2 or 3 with no traceback, and a failing run must say why in one line."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dptheta import lattice as lt, nodal, theta_f2
from dptheta.cli import main

FORMATS = st.sampled_from(["tsv", "pretty"])
SMALL = st.integers(-2, 2)


@st.composite
def nodal_argv(draw):
    degree = draw(st.one_of(st.sampled_from([2, 3]), st.integers(1, 4)))
    length = draw(st.one_of(st.just(10 - degree), st.integers(1, 9)))
    vector = st.lists(SMALL, min_size=length, max_size=length)
    if degree in (2, 3):  # true roots, so that valid configs come up too
        vector = st.one_of(vector, st.sampled_from(
            lt.enumerate_classes(lt.make_lattice(degree), lt.ClassKind.ROOT)))
    roots = draw(st.lists(vector, max_size=4))
    body = f"degree {degree}\n" + "".join(
        "root [" + ", ".join(map(str, r)) + "]\n" for r in roots)
    scheme = draw(st.sampled_from(tuple(nodal.SCHEMES) + ("profile",)))
    return ("nodal", "{file}", "--scheme", scheme), body


@st.composite
def spin_argv(draw):
    nv = draw(st.integers(0, 5))
    genera = draw(st.lists(st.integers(-1, 3) if draw(st.booleans()) else st.integers(0, 3),
                           min_size=nv, max_size=nv))
    end = st.integers(-1, 5) if draw(st.booleans()) else st.integers(0, max(nv - 1, 0))
    edges = draw(st.lists(st.tuples(end, end), max_size=8))
    body = "".join(f"v {g}\n" for g in genera) + "".join(f"e {i} {j}\n" for i, j in edges)
    return ("spin", "{file}"), body


def poly_text(draw, degree, homogeneous):
    """A sum of at most four terms c*x0^a*x1^b*x2^e, of `degree` if homogeneous."""
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        total = degree if homogeneous else draw(st.integers(0, 4))
        a = draw(st.integers(0, total))
        b = draw(st.integers(0, total - a))
        coeff = draw(st.sampled_from(["1", "-1", "2", "-3", "1/2", "0"]))
        terms.append(f"{coeff}*x0^{a}*x1^{b}*x2^{total - a - b}")
    return " + ".join(terms) or "0"


@st.composite
def detrep_argv(draw):
    action = draw(st.sampled_from(["quintic", "conic", "check", "quartic"]))
    full = ["L", "Q", "H"] if action == "quartic" else ["L11", "L12", "L22", "Q1", "Q2", "H"]
    keys = draw(st.one_of(
        st.just(full),
        st.lists(st.sampled_from(["L11", "L12", "L22", "Q1", "Q2", "H", "L", "Q", "X"]),
                 max_size=6, unique=True)))
    homogeneous = draw(st.booleans())
    body = "".join(f"{k}: {poly_text(draw, {'Q': 2, 'H': 3}.get(k[0], 1), homogeneous)}\n"
                   for k in keys)
    seed = draw(st.integers(0, 3))
    return ("detrep", "{file}", "--action", action, "--seed", str(seed)), body


@st.composite
def theta_argv(draw):
    task = draw(st.sampled_from(["zeros", "zeros", "zeros", "aronhold", "conic-pairs"]))
    cap = theta_f2.MAX_COUNT_DIM
    dim = draw(st.one_of(st.integers(-2, 12), st.sampled_from(
        [cap - 2, cap - 1, cap, cap + 1, cap + 2])))
    arf = draw(st.integers(-1, 2))
    return ("theta", task, "--dim", str(dim), "--arf", str(arf)), None


@st.composite
def lattice_argv(draw):
    degree = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["exceptional", "root", "blowdown", "double-six", "x"]))
    return ("lattice", "--degree", str(degree), "--kind", kind), None


@settings(max_examples=150, deadline=None)
@given(st.one_of(nodal_argv(), spin_argv(), detrep_argv(), theta_argv(),
                 lattice_argv()), FORMATS)
def test_cli_fuzz_exit_codes(command, fmt):
    argv, body = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if body is not None:
            path.write_text(body)
        argv = [a.format(file=path) for a in argv] + ["--format", fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, body, code, err)
    assert "Traceback" not in err + out.getvalue()
    if code:  # one line on stderr, and no partial table on stdout
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, body, err)
        assert out.getvalue() == "", (argv, body, out.getvalue())
