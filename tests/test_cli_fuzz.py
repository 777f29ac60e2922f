"""Fuzz the CLI with small, bounded inputs: every run must end in exit code
0, 2 or 3 with no traceback, and a failing run must say why in one line.
The cases come from one seeded random.Random, so every run tests the same
150.  Each generator below is a function of that rng; where an input has
alternative shapes, each alternative is drawn and rng.choice keeps one."""

import contextlib
import io
import random
import tempfile
from pathlib import Path

from dptheta import lattice as lt, nodal, theta_f2
from dptheta.cli import main


def nodal_argv(rng):
    degree = rng.choice([rng.choice([2, 3]), rng.randint(1, 4)])
    length = rng.choice([10 - degree, rng.randint(1, 9)])
    roots = []
    for _ in range(rng.randint(0, 4)):
        vector = [rng.randint(-2, 2) for _ in range(length)]
        if degree in (2, 3):  # true roots, so that valid configs come up too
            vector = rng.choice([vector, rng.choice(
                lt.enumerate_classes(lt.make_lattice(degree), lt.ClassKind.ROOT))])
        roots.append(vector)
    body = f"degree {degree}\n" + "".join(
        "root [" + ", ".join(map(str, r)) + "]\n" for r in roots)
    scheme = rng.choice(tuple(nodal.SCHEMES) + ("profile",))
    return ("nodal", "{file}", "--scheme", scheme), body


def spin_argv(rng):
    nv = rng.randint(0, 5)
    low = rng.choice([-1, 0])
    genera = [rng.randint(low, 3) for _ in range(nv)]
    low, high = rng.choice([(-1, 5), (0, max(nv - 1, 0))])
    edges = [(rng.randint(low, high), rng.randint(low, high)) for _ in range(rng.randint(0, 8))]
    body = "".join(f"v {g}\n" for g in genera) + "".join(f"e {i} {j}\n" for i, j in edges)
    return ("spin", "{file}"), body


def poly_text(rng, degree, homogeneous):
    """A sum of at most four terms c*x0^a*x1^b*x2^e, of `degree` if homogeneous."""
    terms = []
    for _ in range(rng.randint(0, 4)):
        total = degree if homogeneous else rng.randint(0, 4)
        a = rng.randint(0, total)
        b = rng.randint(0, total - a)
        coeff = rng.choice(["1", "-1", "2", "-3", "1/2", "0"])
        terms.append(f"{coeff}*x0^{a}*x1^{b}*x2^{total - a - b}")
    return " + ".join(terms) or "0"


def detrep_argv(rng):
    action = rng.choice(["quintic", "conic", "check", "quartic"])
    full = ["L", "Q", "H"] if action == "quartic" else ["L11", "L12", "L22", "Q1", "Q2", "H"]
    keys = rng.choice([full, rng.sample(["L11", "L12", "L22", "Q1", "Q2", "H", "L", "Q", "X"],
                                        rng.randint(0, 6))])
    homogeneous = rng.choice([True, False])
    body = "".join(f"{k}: {poly_text(rng, {'Q': 2, 'H': 3}.get(k[0], 1), homogeneous)}\n"
                   for k in keys)
    seed = rng.randint(0, 3)
    return ("detrep", "{file}", "--action", action, "--seed", str(seed)), body


def theta_argv(rng):
    task = rng.choice(["zeros", "zeros", "zeros", "aronhold", "conic-pairs"])
    cap = theta_f2.MAX_COUNT_DIM
    dim = rng.choice([rng.randint(-2, 12), rng.choice([cap - 2, cap - 1, cap, cap + 1, cap + 2])])
    arf = rng.randint(-1, 2)
    return ("theta", task, "--dim", str(dim), "--arf", str(arf)), None


def lattice_argv(rng):
    degree = rng.randint(1, 4)
    kind = rng.choice(["exceptional", "root", "blowdown", "double-six", "x"])
    return ("lattice", "--degree", str(degree), "--kind", kind), None


def test_cli_fuzz_exit_codes():
    rng = random.Random(150)
    for _ in range(150):
        argv, body = rng.choice([nodal_argv, spin_argv, detrep_argv, theta_argv, lattice_argv])(rng)
        fmt = rng.choice(["tsv", "pretty"])
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            if body is not None:
                path.write_text(body)
            argv = [a.format(file=path) for a in argv] + ["--format", fmt]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception as exc:  # name the case that escaped main
                    raise AssertionError((argv, body)) from exc
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, body, code, err)
        assert "Traceback" not in err + out.getvalue(), (argv, body)
        if code:  # one line on stderr, and no partial table on stdout
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, body, err)
            assert out.getvalue() == "", (argv, body, out.getvalue())
