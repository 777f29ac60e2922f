"""Tests of the benchmark itself: seeded inputs, generator validity, output.

Run with `PYTHONPATH=src python -m pytest bench/test_bench.py`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dptheta import detrep, nodal, poly, spin  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def all_inputs(seed: int) -> str:
    return json.dumps({
        "nodal": inputs.nodal_configs(seed),
        "malformed": inputs.malformed_config(seed),
        "matrices": [(m["block"], m["conic_text"]) for m in inputs.matrices(seed)],
        "forms": inputs.quadratic_forms(seed),
        "graphs": inputs.dual_graphs(seed),
        "aronhold": inputs.aronhold_order(seed),
    })


def test_same_seed_same_inputs(tmp_path):
    assert all_inputs(7) == all_inputs(7)
    assert all_inputs(7) != all_inputs(8)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        workloads.cli_commands(7, tmp_path / name, workloads.References())
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_inputs_are_valid(seed):
    refs = workloads.References()
    for degree, subset, roots in inputs.nodal_configs(seed):
        cfg = nodal.parse_config(inputs.config_text(degree, roots))
        assert len(cfg.roots) == len(subset)
        assert nodal.validate_config(cfg) == refs.get(degree, subset, "validate")
    _, bad = inputs.malformed_config(seed)
    with pytest.raises(ValueError):
        nodal.validate_config(nodal.parse_config(bad))
    for m in inputs.matrices(seed):
        data = detrep.data_from_block(detrep.parse_data_block(m["block"]))
        assert not detrep.discriminant_quintic(data).is_zero()
        conic = poly.parse_poly(m["conic_text"], detrep.PLANE_VARS)
        assert conic.is_homogeneous(2) and not conic.is_zero()
    for genera, edges in inputs.dual_graphs(seed):
        graph = spin.parse_graph(inputs.graph_text(genera, edges))
        assert spin.betti(len(graph.genera), graph.edges) in inputs.GRAPH_BETTI
    for g, arf0, eta in inputs.quadratic_forms(seed):
        assert 0 <= eta < 1 << (2 * g) and arf0 in (0, 1)


def test_first_matrix_passes_its_oracles():
    m = inputs.matrices(5, 1)[0]
    for op in workloads._matrix_ops(0, m):
        assert op.check(op.run()) is None, op.name


def small_nodal(monkeypatch, tmp_path):
    """The nodal workload cut down to its validate ops, set up once."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    wl = run.build("nodal", 0, tmp_path)
    wl.ops = wl.trace_ops = [op for op in wl.ops if op.name.startswith("validate")]
    return wl


def result_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_smoke_end_to_end_prints_every_metric(monkeypatch, tmp_path, capsys):
    wl = small_nodal(monkeypatch, tmp_path)
    args = run.parse_args(["--workload", "nodal", "--seed", "0", "--seconds", "0"])
    assert run.report(args, wl) == 0
    out = capsys.readouterr().out
    result = result_line(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert f"{metric['name']} = " in out
    assert "fail_frac = 0.0 ratio" in out


def test_smoke_traced_prints_every_layer(monkeypatch, tmp_path, capsys):
    wl = small_nodal(monkeypatch, tmp_path)
    rows = workloads.kernel_rows()   # real row names, trivial bodies
    monkeypatch.setattr(workloads, "kernel_rows",
                        lambda: [(name, lambda: None, lambda got: None)
                                 for name, _, _ in rows])
    monkeypatch.setattr(run, "cli_probes", lambda: (0.05, 0.08))
    args = run.parse_args(["--workload", "nodal", "--seed", "0", "--trace", "1"])
    assert run.report(args, wl) == 0
    result = result_line(capsys.readouterr().out)
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["nodal.validate_config.ms"]["value"] > 0
    # the tracer put every original function back
    assert not hasattr(nodal.validate_config, "__wrapped__")


def test_refuses_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
