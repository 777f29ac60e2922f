"""End-to-end CLI tests: golden TSV reports and exit codes."""

import hashlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import DATA

from dptheta import nodal, poly, spin, text, theta_f2
from dptheta.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fresh_env():
    """os.environ with src first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=pythonpath)


def fresh(*argv):
    """`python -m dptheta.cli *argv` as a fresh process, within 10 s."""
    return subprocess.run([sys.executable, "-m", "dptheta.cli", *argv],
                          capture_output=True, text=True, timeout=10, env=fresh_env())


def test_lattice_exceptional_27(capsys):
    code, out, _ = run(capsys, "lattice", "--degree", "3",
                       "--kind", "exceptional", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class"
    assert lines[-1] == "total\t27"
    assert len(lines) == 29  # header + 27 rows + total


def test_lattice_blowdown_576(capsys):
    code, out, _ = run(capsys, "lattice", "--degree", "2",
                       "--kind", "blowdown", "--format", "tsv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t576"


def test_lattice_double_six(capsys):
    code, out, _ = run(capsys, "lattice", "--degree", "3",
                       "--kind", "double-six", "--format", "tsv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t36"


def test_lattice_bad_degree_exit2(capsys):
    code, _, err = run(capsys, "lattice", "--degree", "4", "--kind", "root")
    assert code == 2
    assert "error" in err


def test_nodal_eventheta_golden(capsys, data_dir):
    code, out, _ = run(capsys, "nodal", str(data_dir / "node_a1.cfg"),
                       "--scheme", "eventheta", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert "dynkin\tA1" in lines
    assert "profile\t16x1 + 10x2" in lines
    assert "total\t36" in lines


def test_nodal_doublesix_cusp(capsys, data_dir):
    code, out, _ = run(capsys, "nodal", str(data_dir / "cusp_a2.cfg"),
                       "--scheme", "doublesix", "--format", "tsv")
    assert code == 0
    assert "profile\t6x1 + 10x3" in out


def test_nodal_profile_totals(capsys, data_dir):
    code, out, _ = run(capsys, "nodal", str(data_dir / "node_a1.cfg"),
                       "--scheme", "profile", "--format", "tsv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total\t32\t160\t192\t160\t32"


def test_nodal_missing_file_exit2(capsys):
    code, _, err = run(capsys, "nodal", "no_such_file.cfg",
                       "--scheme", "lines")
    assert code == 2 and "error" in err


def test_nodal_wrong_degree_scheme_exit2(capsys, data_dir):
    code, _, err = run(capsys, "nodal", str(data_dir / "cusp_a2.cfg"),
                       "--scheme", "bitangents")
    assert code == 2 and "error" in err


def test_nodal_eventheta_degree3_exit2(capsys, data_dir):
    code, out, err = run(capsys, "nodal", str(data_dir / "cusp_a2.cfg"),
                         "--scheme", "eventheta")
    assert (code, out, err) == (2, "", "error: eventheta scheme requires degree 2\n")


def test_spin_report(capsys, data_dir):
    code, out, _ = run(capsys, "spin", str(data_dir / "genus3_node.gr"),
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "support\tcount\tmultiplicity"
    assert "-\t16\t2" in lines
    assert "(0,0)\t32\t1" in lines


def test_spin_disconnected_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("v 1\nv 1\n")
    code, _, err = run(capsys, "spin", str(bad))
    assert code == 2 and "connected" in err


def test_spin_table_golden(capsys):
    code, out, _ = run(capsys, "spin-table", "--genus", "3",
                       "--nodes", "3", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "nodes\tresolved\tcount\tmultiplicity\todd\teven"
    assert "0\t0\t64\t1\t28\t36" in lines
    assert "3\t3\t1\t8\t0\t1" in lines
    assert len(lines) == 1 + 1 + 2 + 3 + 4


def test_theta_aronhold(capsys):
    code, out, _ = run(capsys, "theta", "aronhold", "--format", "tsv")
    assert code == 0
    assert "288 Aronhold sets over 36 even classes, 8 per class" in out


def test_theta_conic_pairs(capsys):
    code, out, _ = run(capsys, "theta", "conic-pairs", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert "intermediate\t496" in lines
    assert "Z\t990" in lines
    assert "pairs\t495" in lines


def test_theta_zeros(capsys):
    code, out, _ = run(capsys, "theta", "zeros", "--dim", "6",
                       "--arf", "0", "--format", "tsv")
    assert code == 0
    assert "zeros\t36" in out


def test_detrep_check_sample(capsys, data_dir):
    code, out, _ = run(capsys, "detrep", str(data_dir / "detrep_sample.txt"),
                       "--action", "check", "--format", "tsv")
    assert code == 0
    assert "verdict\tTotallyTangent" in out


def test_detrep_check_rational(capsys, data_dir):
    """Every entry has a non-integral coefficient, so the Fraction side of
    the coefficients runs from the parser to the certificate."""
    code, out, _ = run(capsys, "detrep", str(data_dir / "detrep_rational.txt"),
                       "--action", "check", "--format", "tsv")
    assert code == 0
    assert "verdict\tTotallyTangent" in out.splitlines()


@pytest.mark.parametrize("action", ["quintic", "conic", "check", "quartic"])
def test_detrep_zero_exit3(capsys, data_dir, tmp_path, action):
    path = data_dir / "detrep_zero.txt"
    if action == "quartic":  # L*H - Q^2 = x0^4 - x0^4
        path = tmp_path / "zero_quartic.txt"
        path.write_text("L: x0\nQ: x0^2\nH: x0^3\n")
    code, out, err = run(capsys, "detrep", str(path), "--action", action)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "zero" in err


@pytest.mark.parametrize("block", [
    "L: x0\nQ: x0*x1\nH: x1^3 + x2^3\n",
    "L: 0\nQ: x0*x1\nH: x1^3 + x2^3\n",
    "L: 2*x2\nQ: x0*x2 - 3*x2^2\nH: x0^3 + x1^3\n",
    "L: x0 + 2*x1 - x2\nQ: (x0 + 2*x1 - x2)*(x1 + 5*x2)\nH: x1^3 + x2^3\n",
], ids=["x0-divides", "zero-line", "x2-divides", "line-divides"])
def test_detrep_quartic_not_bitangent_exit3(capsys, tmp_path, block):
    """A zero L, or a Q that vanishes on all of L = 0 (so L divides the
    quartic), is no bitangent: exit 3, one error line, nothing on stdout."""
    path = tmp_path / "quartic.txt"
    path.write_text(block)
    code, out, err = run(capsys, "detrep", str(path), "--action", "quartic")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "L" in err


def test_detrep_quartic(capsys, data_dir):
    code, out, _ = run(capsys, "detrep", str(data_dir / "quartic_sample.txt"),
                       "--action", "quartic", "--format", "tsv")
    assert code == 0
    assert "quartic\tx0*x2^3 - x1^4" in out
    assert "bitangent verified" in out


def test_detrep_quartic_unknown_key_exit2(capsys, tmp_path):
    bad = tmp_path / "bogus.txt"
    bad.write_text("L: x0\nQ: x1^2\nH: x2^3\nBOGUS: x0\n")
    code, out, err = run(capsys, "detrep", str(bad), "--action", "quartic")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: unknown keys: ['BOGUS']"]


def test_reports_are_deterministic(capsys, data_dir):
    _, first, _ = run(capsys, "detrep", str(data_dir / "detrep_sample.txt"),
                      "--action", "check", "--format", "tsv")
    _, second, _ = run(capsys, "detrep", str(data_dir / "detrep_sample.txt"),
                       "--action", "check", "--format", "tsv")
    assert first == second


def test_pretty_and_tsv_carry_same_counts(capsys):
    _, tsv, _ = run(capsys, "lattice", "--degree", "3", "--kind", "root",
                    "--format", "tsv")
    _, pretty, _ = run(capsys, "lattice", "--degree", "3", "--kind", "root")
    assert "total\t72" in tsv and "total: 72" in pretty


# sha256 of the full stdout; the rows pin every Aronhold set, every even
# theta representative and every scheme point, not only the summary lines
GOLDEN_STDOUT = [
    (("theta", "aronhold", "--format", "tsv"),
     "8ccd1403bc0f12096cc430e1b9c036c13972912767068050abd86b8ef5c3162f"),
    (("theta", "aronhold", "--format", "pretty"),
     "9d48d9d9574a7771eb65fc79e1e8b6748cb5f081e7892a2307c812543e320f47"),
    (("nodal", "node_a1.cfg", "--scheme", "eventheta", "--format", "tsv"),
     "31ce86b14a5e9f5eba0cd6eeb65612b23064e1d79b20002ec1c9031ebab96f18"),
    (("nodal", "cusp_a2_deg2.cfg", "--scheme", "eventheta", "--format", "tsv"),
     "3f296ef4b863cfabfda33ed7a52dadc27927dbf716a06b44a842968318303f93"),
    (("nodal", "e7.cfg", "--scheme", "eventheta", "--format", "tsv"),
     "7cefd353046c34c02b8e3651d041f2960aa706f891a060211748f429f8694516"),
    (("nodal", "node_a1.cfg", "--scheme", "aronhold", "--format", "tsv"),
     "dfcba80f836731ee2b7cd8007d906c81aadcc386e5443fc0aa335dd5872d07ce"),
    (("nodal", "e7.cfg", "--scheme", "aronhold", "--format", "tsv"),
     "62039ed5b1b51d05c43ad75d86ce81289b2ab70e9e146274ffab66466a33128f"),
    (("lattice", "--kind=double-six", "--format", "tsv", "--degree", "3"),
     "c6663ad469b9c0b534cca77cf7a3cea23d92bb56e1d193b5191ed280665ef861"),
    (("lattice", "--kind=double-six", "--format", "pretty", "--degree", "3"),
     "243fb94101aff1dda3d4b76b02170f528ee4ec57af3b95c76a50de44a32ad4b0"),
    (("lattice", "--kind", "exceptional", "--degree", "3", "--format", "tsv"),
     "e7ca3cb69c329ff1ea72820c013c61b1dcf9d02a0fed879201b0a88962b5f3dd"),
    (("spin", "genus3_node.gr", "--format", "tsv"),
     "b1368ebaa25f4b269d47f4257f90e0e73ae23f47fb888dd6d52d5b5e04b20287"),
    (("spin-table", "--genus", "3", "--nodes", "3", "--format", "tsv"),
     "60288e37a68abe32d50e439796e4c31de1fa4fcab2d23accc4e3a127ab1586f3"),
    (("theta", "conic-pairs", "--format", "tsv"),
     "b7d5ef5047c1065ab2881b3526f520d127f9e9de901791e9575e09c4644fae66"),
    (("theta", "zeros", "--dim", "16", "--arf", "1", "--format", "tsv"),
     "237390c1c68f5f60f7bf00f665fa3a2afe46835cd8f333943e859ff0bf320481"),
    (("detrep", "detrep_sample.txt", "--action", "check", "--format", "tsv"),
     "0f65d4373f452339055a7521ebb93194ed3a3d19b95f31a8fa6baa65ad390cc3"),
    (("detrep", "quartic_sample.txt", "--action", "quartic", "--format", "tsv"),
     "d1b8d8c64783367099bf9027adb3438945c887dc905aeb13ef902e5af160ffc1"),
    (("detrep", "detrep_sample.txt", "--action", "quintic", "--format", "tsv"),
     "dd0793124fcc53a6f85312993fa53f6b273ec46d1f4e7eff9ff13e27e8a211c6"),
    (("detrep", "detrep_sample.txt", "--action", "conic", "--format", "tsv"),
     "6d3059fa8feadd1f8ff839a2de81ab547ec1c7939e5f6c35a5f6fa00b6423fb3"),
    (("detrep", "detrep_rational.txt", "--action", "quintic", "--format", "tsv"),
     "992af4a420e378da5d42eab554f293d6097e7a3f19c3ccd1d8c586c8edc4e4c4"),
    (("detrep", "detrep_rational.txt", "--action", "conic", "--format", "tsv"),
     "7876069d49a42b3a49ba25368dda26fa3e9523289880d0363387d206afa95c41"),
    # the pretty footers: configuration/profile/total, the bare summary line
    # and "bitangent verified"
    (("nodal", "node_a1.cfg", "--scheme=eventheta", "--format", "pretty"),
     "a197eef7b99104678d614f494322c66b266871e09ebcc558b438f118fd3e3562"),
    (("nodal", "node_a1.cfg", "--scheme=profile", "--format", "pretty"),
     "e2dfbd5c4c6d10e78f87832e2e9b5816b7edd5a58b722cd4bfd2dae4c7f126d9"),
    (("spin", "genus3_node.gr", "--format=pretty"),
     "7b75d5fcea4966f116e8a2fc0768171f7071d536361046bcf08502db8b965b6b"),
    (("detrep", "detrep_sample.txt", "--action=check", "--format", "pretty"),
     "3d68d12aaafc90cb5c87f54e95f62113cf67fb113131acb05d4177c3acf281bd"),
    (("detrep", "quartic_sample.txt", "--action=quartic", "--format", "pretty"),
     "75041c45545b617562394f385d894a1a3220aaadd7f26418d6806f5783caac01"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=[" ".join(a[:4]) for a, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, data_dir, argv, digest):
    if argv[0] in ("nodal", "spin", "detrep"):  # the first argument is a data file
        argv = (argv[0], str(data_dir / argv[1])) + argv[2:]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the dptheta modules each subcommand loads: its own layer and what that
# layer imports, never the layers of the other subcommands
IMPORT_SETS = [
    (("lattice", "--degree", "3", "--kind", "root"), {"lattice"}),
    (("nodal", "e7.cfg", "--scheme", "eventheta"),
     {"kernels", "lattice", "nodal", "theta_f2"}),
    (("spin", "genus3_node.gr"), {"kernels", "spin"}),
    (("spin-table", "--genus", "3", "--nodes", "2"), {"kernels", "spin"}),
    (("theta", "aronhold"), {"lattice", "theta_f2"}),
    (("detrep", "detrep_sample.txt", "--action", "check"), {"detrep", "kernels", "poly"}),
    # only the eventheta label loads the theta layer
    (("nodal", "cusp_a2.cfg", "--scheme", "doublesix"), {"kernels", "lattice", "nodal"}),
]


def import_set_ids(rows):
    """Each row's subcommand, then its last word when an earlier row ran it."""
    commands = [argv[0] for argv, _ in rows]
    return [c if commands.index(c) == i else f"{c}-{rows[i][0][-1]}"
            for i, c in enumerate(commands)]


# the stdlib modules whose presence the probe reports, in this order
PROBED = ("typing", "dataclasses", "inspect", "fractions", "random")

LOADED_MODULES = f"""\
import sys
from dptheta import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("dptheta."))
print(code, *(m in sys.modules for m in {PROBED!r}), *loaded)
"""


@pytest.mark.parametrize("argv,layers", IMPORT_SETS, ids=import_set_ids(IMPORT_SETS))
def test_subcommand_loads_only_its_layers(data_dir, argv, layers):
    """Under -S (no site preloads) a command loads its layers and no
    `typing`, `dataclasses` or `inspect`; only the polynomial layer loads
    `fractions`, and only detrep loads `random`."""
    if argv[0] in ("nodal", "spin", "detrep"):
        argv = (argv[0], str(data_dir / argv[1])) + argv[2:]
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_MODULES, *argv],
                          capture_output=True, text=True, timeout=60, env=fresh_env())
    assert proc.returncode == 0, proc.stderr
    code, *flags = proc.stdout.splitlines()[-1].split()
    probed, loaded = dict(zip(PROBED, flags)), flags[len(PROBED):]
    assert code == "0"
    assert set(loaded) == {"cli", "text"} | layers
    assert probed == {"typing": "False", "dataclasses": "False", "inspect": "False",
                      "fractions": str("poly" in layers), "random": str("detrep" in layers)}


def test_scheme_choices_match_library():
    """The parser lists the schemes literally, so it need not import nodal."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    scheme = next(a for a in sub.choices["nodal"]._actions if a.dest == "scheme")
    assert scheme.choices == tuple(nodal.SCHEMES) + ("profile",)


def one_error_line(code, out, err):
    return code == 2 and out == "" and len(err.splitlines()) == 1 \
        and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("theta", "zeros", "--dim", "\u0666"),                  # Arabic-Indic six
    ("theta", "zeros", "--dim", "6_0"),
    ("theta", "zeros", "--dim", "\uff16"),                  # full-width six
    ("theta", "zeros", "--arf", "\u0661"),
    ("lattice", "--kind", "root", "--degree", "\uff13"),
    ("spin-table", "--nodes", "0", "--genus", "1_0"),
    ("spin-table", "--genus", "3", "--nodes", "\u0662"),
    ("detrep", str(DATA / "detrep_sample.txt"), "--action", "check", "--seed", "1_0"),
    ("theta", "zeros", "--dim", "x"),                       # as type=int refuses it
], ids=["dim-arabic-indic", "dim-underscore", "dim-full-width", "arf-arabic-indic",
        "degree-full-width", "genus-underscore", "nodes-arabic-indic", "seed-underscore",
        "dim-letter"])
def test_integer_option_takes_ascii_digits_only(capsys, argv):
    """The integer options read a file literal's characters: no `_` and no
    other script's digits, refused in argparse's words for type=int.  Each
    row ends with the option and its word."""
    code, out, err = run(capsys, *argv)
    assert one_error_line(code, out, err)
    assert err == f"error: argument {argv[-2]}: invalid int value: {argv[-1]!r}\n"


def test_closed_stdout_exits_1_quietly():
    """A reader that stops early (`| head -1`) is not an input error: exit
    1, with nothing on stderr, on a report larger than the pipe buffer."""
    argv = ("spin-table", "--genus", "100", "--nodes", "100", "--format", "tsv")
    proc = subprocess.Popen([sys.executable, "-m", "dptheta.cli", *argv], env=fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "nodes\tresolved\tcount\tmultiplicity\todd\teven\n"
        proc.stdout.close()
        assert proc.wait(timeout=10) == 1
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize("dim", ["40000", "0", "7"])
def test_theta_zeros_bad_dim_exit2(capsys, monkeypatch, dim):
    make_space = theta_f2.make_space

    def guarded(g, *args):
        assert g <= 10, f"make_space({g}) built before the dim check"
        return make_space(g, *args)

    monkeypatch.setattr(theta_f2, "make_space", guarded)
    assert one_error_line(*run(capsys, "theta", "zeros", "--dim", dim))


@pytest.mark.parametrize("expr", ["(" * 3000 + "x0" + ")" * 3000,
                                  "x0*" + "-" * 3000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_detrep_deep_nesting_exit2(capsys, tmp_path, expr):
    bad = tmp_path / "deep.txt"
    bad.write_text(f"H: {expr}\n")
    assert one_error_line(*run(capsys, "detrep", str(bad), "--action", "check"))


def test_spin_too_many_loops_exit2(capsys, monkeypatch, tmp_path):
    def unbounded(graph):
        raise AssertionError("2^26 supports enumerated before the b1 check")

    monkeypatch.setattr(spin, "spin_scheme", unbounded)
    bad = tmp_path / "loops.gr"
    bad.write_text("v 1\n" + "e 0 0\n" * 26)
    assert one_error_line(*run(capsys, "spin", str(bad)))


@pytest.mark.parametrize("expr", ["(x0+x1+x2)^120", "2^99999999",
                                  "*".join(["x0"] * 17)],
                         ids=["power", "constant-power", "product"])
def test_detrep_degree_capped_exit2(capsys, expansion_guard, tmp_path, expr):
    bad = tmp_path / "high.txt"
    bad.write_text(f"H: {expr}\n")
    code, out, err = run(capsys, "detrep", str(bad), "--action", "check")
    assert one_error_line(code, out, err)
    assert f"exceeds {poly.MAX_DEGREE}" in err


@pytest.mark.parametrize("expr", ["((((((((2)^16)^16)^16)^16)^16)^16)^16)^16",
                                  "((((1/3)^16)^16)^16)^16",
                                  f"{2 ** 256}^16", "*".join(["9" * 1000] * 5)],
                         ids=["tower", "fraction-tower", "literal", "product"])
def test_detrep_coefficient_size_capped_exit2(capsys, expansion_guard, tmp_path, expr):
    bad = tmp_path / "tower.txt"
    bad.write_text(f"H: {expr}*x0^3\n")
    code, out, err = run(capsys, "detrep", str(bad), "--action", "check")
    assert one_error_line(code, out, err)
    assert f"exceeds {poly.MAX_COEFF_BITS}" in err


def test_spin_genus_capped_exit2(capsys, tmp_path):
    bad = tmp_path / "big.gr"
    bad.write_text("v 8000\n")
    code, out, err = run(capsys, "spin", str(bad))
    assert one_error_line(code, out, err)
    assert f"exceeds {spin.MAX_GRAPH_GENUS}" in err


@pytest.mark.parametrize("genus", ["8000", "101"])
def test_spin_table_genus_capped_exit2(capsys, genus):
    code, out, err = run(capsys, "spin-table", "--genus", genus,
                         "--nodes", "0")
    assert one_error_line(code, out, err)
    assert f"exceeds {spin.MAX_GENUS}" in err


@pytest.mark.parametrize("genus, message", [
    ("3", "node count must be between 0 and g"),
    ("1", "arithmetic genus must be >= 2"),
    ("500", f"exceeds {spin.MAX_GENUS}"),
], ids=["3", "1", "500"])
def test_spin_table_negative_nodes_exit2(capsys, genus, message):
    code, out, err = run(capsys, "spin-table", "--genus", genus,
                         "--nodes", "-1")
    assert one_error_line(code, out, err)
    assert message in err


def test_spin_table_at_genus_cap(capsys):
    code, out, _ = run(capsys, "spin-table", "--genus", "100", "--nodes", "2",
                       "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 1 + 2 + 3
    assert lines[1].split("\t")[:4] == ["0", "0", str(4 ** 100), "1"]


LONG = "9" * 5000


@pytest.mark.parametrize("name,body,argv", [
    ("long.gr", f"v {LONG}\nv 2\ne 0 1\n", ("spin",)),
    ("long.cfg", f"degree 2\nroot [{LONG}, 1, -1, 0, 0, 0, 0, 0]\n",
     ("nodal", "--scheme", "lines")),
    ("degree.cfg", f"degree {LONG}\n", ("nodal", "--scheme", "lines")),
    ("long.txt", f"H: {LONG}*x0^3\n", ("detrep", "--action", "check")),
], ids=["graph", "config-root", "config-degree", "H"])
def test_long_integer_literal_exit2(capsys, tmp_path, name, body, argv):
    bad = tmp_path / name
    bad.write_text(body)
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert one_error_line(code, out, err)
    assert err == (f"error: integer literal of 5000 digits exceeds "
                   f"{text.MAX_LITERAL_DIGITS}\n")


def test_detrep_zero_denominator_exit2(capsys, tmp_path):
    bad = tmp_path / "zero.txt"
    bad.write_text("H: x0^3 + 1/0*x1^3\n")
    code, out, err = run(capsys, "detrep", str(bad), "--action", "check")
    assert one_error_line(code, out, err)
    assert "zero denominator" in err


@pytest.mark.parametrize("name,body,argv,message", [
    ("twice.txt", "L11: x0\nL22: x1\nL11: x2\nH: x2^3\n",
     ("detrep", "--action", "check"), "line 3: duplicate key 'L11'"),
    ("twice.cfg", "degree 2\nroot [0, 1, -1, 0, 0, 0, 0, 0]\ndegree 3\n",
     ("nodal", "--scheme", "lines"), "line 3: duplicate degree"),
], ids=["detrep-key", "nodal-degree"])
def test_duplicate_directive_exit2(capsys, tmp_path, name, body, argv, message):
    bad = tmp_path / name
    bad.write_text(body)
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert one_error_line(code, out, err)
    assert err == f"error: {message}\n"


LONG = "K" * 10 ** 6


@pytest.mark.parametrize("name,body,argv", [
    ("long_line.gr", "v 1\n" + LONG + "\n", ("spin",)),
    ("long_directive.cfg", LONG + " 2\n", ("nodal", "--scheme", "lines")),
    ("long_degree.cfg", "degree " + "9" * 1000 + "\n", ("nodal", "--scheme", "lines")),
    ("long_edge.gr", "v 2\nv 2\ne 0 " + "9" * 1000 + "\n", ("spin",)),
    ("repeated_key.txt", f"{LONG}: x0\n{LONG}: x1\n", ("detrep", "--action", "check")),
    ("long_key.txt", f"{LONG}: x0\nH: x2^3\n", ("detrep", "--action", "check")),
    ("long_key.txt", f"L: x0\nQ: x1^2\nH: x2^3\n{LONG}: x0\n", ("detrep", "--action", "quartic")),
    ("many_keys.txt", "".join(f"K{i}: x0\n" for i in range(100000)),
     ("detrep", "--action", "check")),
    ("long_root.cfg", "degree 2\nroot " + "0 " * 300000 + "\n", ("nodal", "--scheme", "lines")),
    ("wide_root.cfg", "degree 2\nroot " + " ".join(["9" * 1000] * 8) + "\n",
     ("nodal", "--scheme", "lines")),
    ("signs.cfg", "degree " + "+" * 1000 + "2\n", ("nodal", "--scheme", "lines")),
    ("signs.gr", "v " + "-" * 1000 + "1\n", ("spin",)),
    ("signs_root.cfg", "degree 2\nroot " + "+" * 900 + "1 0 0 0 0 0 0 0\n",
     ("nodal", "--scheme", "lines")),
], ids=["graph-line", "config-directive", "config-degree", "graph-edge", "repeated-key",
        "unknown-key", "unknown-key-quartic", "many-unknown-keys", "long-root", "wide-root",
        "signs-degree", "signs-genus", "signs-root"])
def test_hostile_input_quoted_in_one_short_line(capsys, tmp_path, name, body, argv):
    """An error quotes at most 40 characters of the input it names, then
    "...": a hostile file gets one `error:` line under 200 bytes."""
    bad = tmp_path / name
    bad.write_text(body)
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert one_error_line(code, out, err)
    assert len(err.encode()) < 200 and "..." in err


BIG = "9" * 4000


@pytest.mark.parametrize("name,body,argv,message", [
    (None, None, ("theta", "zeros", "--dim", BIG),
     "--dim must be even and between 2 and 1000, got 9999999999999999999999999999999999999999..."),
    (None, None, ("spin-table", "--genus", BIG, "--nodes", "0"),
     "arithmetic genus 9999999999999999999999999999999999999999... exceeds 100"),
    ("big.gr", "v " + BIG[:1000] + "\n", ("spin",),
     "arithmetic genus 9999999999999999999999999999999999999999... exceeds 5000"),
    ("big.txt", "H: x0^" + BIG[:1000] + "\n", ("detrep", "--action", "check"),
     "exponent 9999999999999999999999999999999999999999... exceeds 16"),
], ids=["theta-dim", "spin-table-genus", "graph-genus", "exponent"])
def test_outside_number_quoted_in_one_short_line(capsys, tmp_path, name, body, argv, message):
    """A number from the command line or a file is quoted like any other
    input: at most 40 characters, then "..."."""
    if name:
        (tmp_path / name).write_text(body)
        argv = (argv[0], str(tmp_path / name), *argv[1:])
    code, out, err = run(capsys, *argv)
    assert one_error_line(code, out, err)
    assert err == f"error: {message}\n" and len(err.encode()) < 200


DIGITS = "9" * 5000
SPACED = "a " * 50000


@pytest.mark.parametrize("argv,shown", [
    (("theta", "zeros", "--dim", DIGITS), DIGITS),
    (("detrep", str(DATA / "detrep_sample.txt"), "--action", "check", "--seed", DIGITS),
     DIGITS),
    (("theta", "K" * 100000), "K" * 100000),
    (("nodal", str(DATA / "e7.cfg"), "--scheme", "S" * 100000), "S" * 100000),
    (("theta", SPACED), SPACED),
    (("theta", "zeros", "--arf", "+" + DIGITS[:4000]), int(DIGITS[:4000])),
    (("spin", "f" * 100000), "f" * 100000),
    (("theta", "K" * 100 + "\\"), "K" * 100 + "\\"),
    (("Z" * 100000,), "Z" * 100000),
    (("theta", "aronhold", "--bogus", SPACED), SPACED),
    (("spin-table", "--genus", "3"), None),
    (("nodal", str(DATA / "e7.cfg"), "--scheme=" + "S" * 100000), "S" * 100000),
    (("theta", "zeros", "--arf=" + DIGITS[:4000]), int(DIGITS[:4000])),
    (("theta", "aronhold", "-h" + "x" * 100000), "x" * 100000),
    ((SPACED,), SPACED),
    (("theta", "aronhold", "--format", SPACED), SPACED),
    (("lattice", "--degree", "3", "--kind", SPACED), SPACED),
    (("nodal", str(DATA / "e7.cfg"), "--scheme", SPACED), SPACED),
    (("detrep", str(DATA / "detrep_sample.txt"), "--action", SPACED), SPACED),
    (("theta", "zeros", "--arf", SPACED), SPACED),
], ids=["dim-digits", "seed-digits", "long-task", "long-scheme", "spaced-task",
        "arf-digits", "long-file-name", "backslash", "unknown-subcommand",
        "unknown-option", "missing-nodes", "scheme-after-equals", "arf-after-equals",
        "after-short-option", "spaced-subcommand", "spaced-format", "spaced-kind",
        "spaced-scheme", "spaced-action", "spaced-arf"])
def test_usage_error_in_one_short_line(capsys, argv, shown):
    """A usage error leaves through main's one `error:` line, and quotes a
    command-line word as any input is quoted, by `text.echo`: whether
    argparse shows the value as a repr, bare, or as the int it converted,
    and whether it stands alone or after `=` or `-h`."""
    code, out, err = run(capsys, *argv)
    assert one_error_line(code, out, err) and len(err.encode()) < 200, err
    for word in argv:
        windows = {word[i:i + 41] for i in range(len(word) - 40)}
        assert not any(w in err for w in windows), err
    if shown is not None:
        assert f" {text.echo(shown)}" in err, err


@pytest.mark.parametrize("argv", [("--help",), ("theta", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0 and "usage: dptheta" in capsys.readouterr().out


@pytest.mark.parametrize("body,message", [
    ("L: x0\nQ: x1^2\nH: x2^3\nL11: x0\n", "unknown keys: ['L11']"),
    ("L: x0\nH: x2^3\n", "quartic action needs keys ['Q']"),
    ("H: x2^3\n", "quartic action needs keys ['L', 'Q']"),
], ids=["matrix-name", "missing-one", "missing-two"])
def test_detrep_quartic_key_messages(capsys, tmp_path, body, message):
    bad = tmp_path / "quartic.txt"
    bad.write_text(body)
    code, out, err = run(capsys, "detrep", str(bad), "--action", "quartic")
    assert one_error_line(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("centre", [0, spin.MAX_GRAPH_GENUS - 1], ids=["first", "last"])
def test_spin_star_answers_fast(tmp_path, centre):
    """A genus-0 centre with MAX_GRAPH_GENUS - 1 genus-1 leaves (b1 = 0):
    every edge meets the centre, yet the F2 reduction stays linear, so a
    fresh `spin` prints its one support well within 10 s."""
    n = spin.MAX_GRAPH_GENUS
    leaves = [v for v in range(n) if v != centre]
    path = tmp_path / "star.gr"
    path.write_text("".join("v 0\n" if v == centre else "v 1\n" for v in range(n))
                    + "".join(f"e {centre} {v}\n" for v in leaves))
    proc = fresh("spin", str(path), "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == f"-\t{4 ** (n - 1)}\t1"
    assert len(lines) == 3


def loops(n):
    """One genus-1 vertex with n loops: b1 = n."""
    return "v 1\n" + "e 0 0\n" * n


def monomials():
    """The 969 monomials of degree <= MAX_DEGREE in x0, x1, x2."""
    found = ["*".join(f"{v}^{e}" for v, e in zip(("x0", "x1", "x2"), exp) if e) or "1"
             for exp in itertools.product(range(poly.MAX_DEGREE + 1), repeat=3)
             if sum(exp) <= poly.MAX_DEGREE]
    assert len(found) == 969
    return found


def around_sample_h(prefix, suffix):
    """detrep_sample.txt with its H line wrapped in prefix and suffix."""
    lines = (DATA / "detrep_sample.txt").read_text().splitlines()
    h = next(line for line in lines if line.startswith("H:"))
    return ("\n".join(line for line in lines if line != h)
            + f"\nH: {prefix}{h[2:].strip()}{suffix}\n")


def answers(check):
    """Exit 0 with stdout lines that pass check."""
    def expect(proc):
        assert proc.returncode == 0, proc.stderr[:200]
        assert check(proc.stdout.splitlines()), proc.stdout[:200]
    return expect


def one_error(proc):
    """Exit 2, nothing on stdout and one `error:` line under 200 bytes."""
    assert one_error_line(proc.returncode, proc.stdout, proc.stderr), proc.stderr[:200]
    assert len(proc.stderr.encode()) < 200, proc.stderr[:300]


TANGENT = answers(lambda lines: "verdict\tTotallyTangent" in lines)


def tangent_at_literal_cap(proc):
    """TotallyTangent, on a matrix whose longest literal is at the digit cap."""
    TANGENT(proc)
    digits = max(map(len, re.findall(r"\d+", (DATA / "detrep_cap.txt").read_text())))
    assert digits == text.MAX_LITERAL_DIGITS


FILE = object()  # the place in an argv of the row's data file
CHECK, LINES, TSV = ("--action", "check"), ("--scheme", "lines"), ("--format", "tsv")
DIM_CAP, GENUS_CAP, B1_CAP = theta_f2.MAX_COUNT_DIM, spin.MAX_GENUS, spin.MAX_B1
MEGA = "K" * 10 ** 6
CANCELLING = " + x0 - x0" * 100_000  # a 1 MB tail of terms that cancel
SIGNED = " + ".join(f"{m} + -{m}" for m in monomials() * 2) + " + "  # m + -m, twice over

# each row: (the body of the data file FILE or None, the argv, what the process must show)
BOUNDS = {
    # accepted at the cap
    "dim-cap": (None, ("theta", "zeros", "--dim", str(DIM_CAP), "--arf", "1", *TSV), answers(
        lambda lines: f"zeros\t{2 ** (DIM_CAP - 1) - 2 ** (DIM_CAP // 2 - 1)}" in lines)),
    "genus-cap": (None, ("spin-table", "--genus", str(GENUS_CAP), "--nodes", str(GENUS_CAP), *TSV),
                  answers(lambda lines: len(lines) == 1 + (GENUS_CAP + 1) * (GENUS_CAP + 2) // 2)),
    "b1-cap": (loops(B1_CAP), ("spin", FILE, *TSV), answers(
        lambda lines: len(lines) == 2 ** B1_CAP + 2
        and lines[-1].endswith(f"= 2^{2 * (B1_CAP + 1)}"))),
    "detrep-literal-cap": (None, ("detrep", str(DATA / "detrep_cap.txt"), *CHECK, *TSV),
                           tangent_at_literal_cap),
    "detrep-rational": (None, ("detrep", str(DATA / "detrep_rational.txt"), *CHECK, *TSV), TANGENT),
    # a 1 MB H line of terms that cancel, and one of 969 signed monomial pairs around the
    # sample H: each sum is built once, and a unary minus binds looser than ^
    "detrep-repeated-terms": (around_sample_h("", CANCELLING), ("detrep", FILE, *CHECK, *TSV),
                              TANGENT),
    "detrep-signed-monomials": (around_sample_h(SIGNED, ""), ("detrep", FILE, *CHECK, *TSV),
                                TANGENT),
    # refused past the cap
    "dim-over": (None, ("theta", "zeros", "--dim", str(DIM_CAP + 2)), one_error),
    "negative-nodes": (None, ("spin-table", "--genus", str(GENUS_CAP), "--nodes", "-1"), one_error),
    "genus-over": (None, ("spin-table", "--genus", str(GENUS_CAP + 1), "--nodes", "0"), one_error),
    "b1-over": (loops(B1_CAP + 1), ("spin", FILE), one_error),
    # not a cubic: the parser meets the wide factor once, not once per `*1`
    "wide-product": ("H: (" + " + ".join(monomials()) + ")" + "*1" * 2000 + "\n",
                     ("detrep", FILE, *CHECK), one_error),
    # hostile files, each quoted in at most 40 characters
    "dollar-h-line": (around_sample_h("$", CANCELLING), ("detrep", FILE, *CHECK), one_error),
    "graph-line": (f"v 1\n{MEGA}\n", ("spin", FILE), one_error),
    "config-directive": (f"{MEGA} 2\n", ("nodal", FILE, *LINES), one_error),
    "repeated-key": (f"{MEGA}: x0\n{MEGA}: x1\n", ("detrep", FILE, *CHECK), one_error),
    "many-unknown-keys": ("".join(f"K{i}: x0\n" for i in range(100000)), ("detrep", FILE, *CHECK),
                          one_error),
    "signs-degree": ("degree " + "+" * 1000 + "2\n", ("nodal", FILE, *LINES), one_error),
    "signs-genus": ("v " + "-" * 1000 + "1\n", ("spin", FILE), one_error),
    "signs-root": ("degree 2\nroot " + "+" * 900 + "1 0 0 0 0 0 0 0\n", ("nodal", FILE, *LINES),
                   one_error),
    # numbers from outside, quoted the same way
    "dim-4000-digits": (None, ("theta", "zeros", "--dim", "9" * 4000), one_error),
    "genus-4000-digits": (None, ("spin-table", "--genus", "9" * 4000, "--nodes", "0"), one_error),
    "graph-genus-1000-digits": ("v " + "9" * 1000 + "\n", ("spin", FILE), one_error),
    "exponent-1000-digits": ("H: x0^" + "9" * 1000 + "\n", ("detrep", FILE, *CHECK), one_error),
    # usage errors; each word stays under Linux's 128 KiB MAX_ARG_STRLEN, or exec fails first
    "dim-5000-digits": (None, ("theta", "zeros", "--dim", "9" * 5000), one_error),
    "seed-5000-digits": (None, ("detrep", str(DATA / "detrep_sample.txt"), *CHECK,
                                "--seed", "9" * 5000), one_error),
    "spaced-scheme": (None, ("nodal", str(DATA / "e7.cfg"), "--scheme", SPACED), one_error),
    "long-file-name": (None, ("spin", "f" * 100000), one_error),
    "help": (None, ("--help",), answers(lambda lines: lines[0].startswith("usage: dptheta"))),
}


@pytest.mark.parametrize("body,argv,expect", BOUNDS.values(), ids=BOUNDS)
def test_cli_bound_fresh(tmp_path, body, argv, expect):
    """Each CLI bound as a fresh process within 10 s: the largest input
    under a cap still answers, and past a cap, or on hostile input, the
    command exits 2 with one short `error:` line."""
    path = tmp_path / "data"
    if body is not None:
        path.write_text(body)
    expect(fresh(*(str(path) if word is FILE else word for word in argv)))
