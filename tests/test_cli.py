"""End-to-end CLI tests: golden TSV reports and exit codes."""


from dptheta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


def test_detrep_zero_exit3(capsys, data_dir):
    code, _, err = run(capsys, "detrep", str(data_dir / "detrep_zero.txt"),
                       "--action", "quintic")
    assert code == 3 and "zero" in err


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
