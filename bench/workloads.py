"""The three workloads as fixed op lists, each op with an output oracle.

An op is one timed call: a CLI command in a fresh subprocess (`cli`), or one
library call in this process (`nodal`, `algebra`).  Its oracle runs after the
timer stops and returns None or the reason the output is wrong; a miss
counts as a failed op.  Oracle references that need the library are computed
on first use, outside the timed region, and memoised.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
import spans
from dptheta import cli, detrep, lattice as lt, nodal, poly, spin, theta_f2 as tf

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
CHILD_TIMEOUT_S = 120

WEYL_ORDERS = {2: 2903040, 3: 51840}
SCHEME_TOTALS = {
    2: {"lines": 56, "bitangents": 28, "blowdowns": 576, "aronhold": 288,
        "eventheta": 36},
    3: {"lines": 27, "blowdowns": 72, "doublesix": 36},
}
SCHEME_FUNCS = {"lines": "line_scheme", "bitangents": "bitangent_scheme",
                "blowdowns": "blowdown_scheme", "doublesix": "double_six_scheme",
                "aronhold": "aronhold_scheme", "eventheta": "even_theta_scheme"}
A1_PROFILE_TOTALS = (32, 160, 192, 160, 32)
# The computed cusp profile, pinned; the paper states 12x1 + 20x3.
CUSP_BLOWDOWN_PROFILE = "12x1 + 18x3 + 1x6"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]                       # one pass, as timed with tracing off
    trace_ops: list[Op]                 # the same pass, in this process
    tail_pct: int                       # fixed per workload so that runs compare
    before_op: Callable[[], None] = lambda: None   # untimed, traced runs only
    child_rss_kb: list[int] = field(default_factory=list)

    def peak_rss_mb(self) -> float:
        if self.child_rss_kb:
            return max(self.child_rss_kb) / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def profile_text(profile: dict) -> str:
    return " + ".join(f"{n}x{m}" for m, n in sorted(profile.items()))


class References:
    """Oracle values for unconjugated configs, computed once on demand."""

    def __init__(self):
        self.memo = {}

    def get(self, degree: int, subset: tuple, what: str):
        key = (degree, subset, what)
        if key not in self.memo:
            self.memo[key] = self._compute(degree, subset, what)
        return self.memo[key]

    @staticmethod
    def _compute(degree, subset, what):
        simple = inputs.simple_roots(degree)
        cfg = nodal.parse_config(inputs.config_text(degree, [simple[i] for i in subset]))
        if what == "validate":
            return nodal.validate_config(cfg)
        if what == "profile":
            return tuple(nodal.profile_column_totals(nodal.intersection_profile(cfg)))
        return dict(getattr(nodal, SCHEME_FUNCS[what])(cfg).multiplicity_profile())


# ---------------------------------------------------------------------------
# nodal: warm, in-process multiplicity schemes of Weyl-conjugated configs.

def warm_lattice() -> None:
    """Cold class enumeration, both Weyl orders and the 576 even-theta labels."""
    for degree, order in WEYL_ORDERS.items():
        lat = lt.make_lattice(degree)
        for kind in lt.ClassKind:
            lt.enumerate_classes(lat, kind)
        if lt.weyl_order(lat) != order:
            raise RuntimeError(f"weyl_order(d={degree}) != {order}")
    lat2 = lt.make_lattice(2)
    labels = Counter(tf.even_theta_of_blowdown(lat2, d) for d in
                     lt.enumerate_classes(lat2, lt.ClassKind.BLOWDOWN))
    if len(labels) != 36 or set(labels.values()) != {16}:
        raise RuntimeError("576 blow-downs do not give 36 labels x 16")


def nodal_workload(seed: int, refs: References) -> Workload:
    warm_lattice()
    ops = []
    for degree, subset, roots in inputs.nodal_configs(seed):
        cfg = nodal.parse_config(inputs.config_text(degree, roots))
        tag = f"d{degree}{list(subset)}"
        ops.append(Op(f"validate {tag}", lambda cfg=cfg: nodal.validate_config(cfg),
                      _expect_equal(refs, degree, subset, "validate")))
        for scheme, total in SCHEME_TOTALS[degree].items():
            ops.append(Op(f"{scheme} {tag}",
                          lambda cfg=cfg, f=SCHEME_FUNCS[scheme]: getattr(nodal, f)(cfg),
                          _expect_scheme(refs, degree, subset, scheme, total)))
        if degree == 2 and len(subset) == 1:
            ops.append(Op(f"profile {tag}",
                          lambda cfg=cfg: nodal.intersection_profile(cfg),
                          _expect_profile(refs, degree, subset)))
    return Workload("nodal", ops, ops, tail_pct=90)


def _expect_equal(refs, degree, subset, what):
    def check(got):
        want = refs.get(degree, subset, what)
        return None if got == want else f"got {got!r}, unconjugated gives {want!r}"
    return check


def _expect_scheme(refs, degree, subset, scheme, total):
    def check(got):
        if got.total != total:
            return f"total {got.total}, expected {total}"
        want = refs.get(degree, subset, scheme)
        prof = dict(got.multiplicity_profile())
        if prof != want:
            return f"profile {profile_text(prof)}, unconjugated {profile_text(want)}"
        return None
    return check


def _expect_profile(refs, degree, subset):
    def check(got):
        totals = tuple(nodal.profile_column_totals(got))
        want = refs.get(degree, subset, "profile")
        if totals != want or totals != A1_PROFILE_TOTALS:
            return f"column totals {totals}, expected {want}"
        return None
    return check


# ---------------------------------------------------------------------------
# algebra: warm, in-process determinantal, F2 and spin computations.

def standard_form_value(g: int, arf_invariant: int, v: int) -> int:
    """q(v) = sum v_2i v_2i+1 (+ v_0 + v_1 when the Arf invariant is 1)."""
    q = sum((v >> (2 * i)) & (v >> (2 * i + 1)) & 1 for i in range(g))
    if arf_invariant:
        q += (v & 1) + ((v >> 1) & 1)
    return q & 1


def algebra_workload(seed: int) -> Workload:
    aronhold = tf.enumerate_aronhold()
    if len(aronhold) != 288:
        raise RuntimeError(f"{len(aronhold)} Aronhold sets, expected 288")
    ops = []
    for k, m in enumerate(inputs.matrices(seed)):
        ops += _matrix_ops(k, m)
    for g, arf0, eta in inputs.quadratic_forms(seed):
        space = tf.make_space(g, arf0).shift(eta)
        arf1 = arf0 ^ standard_form_value(g, arf0, eta)
        zeros = (1 << (2 * g - 1)) + (-1) ** arf1 * (1 << (g - 1))
        ops.append(Op(f"count_zeros dim {2 * g}", lambda s=space: tf.count_zeros(s),
                      lambda got, z=zeros: None if got == z else f"{got} zeros, expected {z}"))
        ops.append(Op(f"arf dim {2 * g}", lambda s=space: tf.arf(s),
                      lambda got, a=arf1: None if got == a else f"arf {got}, expected {a}"))
    ops.append(Op("count_conic_pairs",
                  lambda: tf.count_conic_pairs(random.Random(f"conic:{seed}")),
                  lambda got: None if tuple(got) == (496, 990, 495) else f"got {got}"))
    for genera, edges in inputs.dual_graphs(seed):
        graph = spin.parse_graph(inputs.graph_text(genera, edges))
        b1 = len(edges) - len(genera) + 1
        genus = sum(genera) + b1
        ops.append(Op(f"spin_scheme b1={b1}", lambda gr=graph: spin.spin_scheme(gr),
                      _expect_spin(genus, b1)))
    order, members = inputs.aronhold_order(seed)
    shuffled = [tuple(aronhold[i][j] for j in members[k]) for k, i in enumerate(order)]
    reference = {}

    def check_labels(got):
        if not reference:
            reference.update((s, tf.even_theta_of_aronhold(s)) for s in aronhold)
        counts = Counter(got)
        if len(counts) != 36 or set(counts.values()) != {8}:
            return "labels are not 36 even classes x 8"
        bad = sum(label != reference[aronhold[i]] for label, i in zip(got, order))
        return f"{bad} labels differ from the unshuffled sets" if bad else None

    ops.append(Op("relabel 288 Aronhold sets",
                  lambda: [tf.even_theta_of_aronhold(s) for s in shuffled],
                  check_labels))
    return Workload("algebra", ops, ops, tail_pct=85)


def _matrix_ops(k: int, m: dict) -> list[Op]:
    state = {}
    name = f"matrix {k}"

    def parse():
        state["data"] = detrep.data_from_block(detrep.parse_data_block(m["block"]))
        return state["data"]

    def check_parse(data):
        point = dict(zip(inputs.PLANE_VARS, m["points"][0]))
        got = [data.l11.evaluate(point), data.q1.evaluate(point), data.h.evaluate(point)]
        want = [inputs.evaluate(m["entries"][key], m["points"][0])
                for key in ("L11", "Q1", "H")]
        return None if got == want else f"entries {got}, expected {want}"

    def quintic():
        state["f"] = detrep.discriminant_quintic(state["data"])
        state["t"] = detrep.contact_conic(state["data"])
        return state["f"], state["t"]

    def check_quintic(ft):
        f, t = ft
        for p in m["points"]:
            point = dict(zip(inputs.PLANE_VARS, p))
            if f.evaluate(point) != inputs.matrix_det_at(m["entries"], p):
                return f"quintic disagrees with the determinant at {p}"
            if t.evaluate(point) != inputs.conic_at(m["entries"], p):
                return f"conic disagrees with L11*L22 - L12^2 at {p}"
        return None

    def verdict(want):
        return lambda got: (None if got.verdict.value == want
                            else f"verdict {got.verdict.value}, expected {want}")

    return [
        Op(f"{name} parse", parse, check_parse),
        Op(f"{name} quintic+conic", quintic, check_quintic),
        Op(f"{name} str/parse_poly round trip",
           lambda: poly.parse_poly(str(state["f"]), detrep.PLANE_VARS),
           lambda got: None if got == state["f"] else "round trip changed the quintic"),
        Op(f"{name} tangency vs contact conic",
           lambda: detrep.total_tangency_check(state["f"], state["t"]),
           verdict("TotallyTangent")),
        Op(f"{name} tangency vs random conic",
           lambda: detrep.total_tangency_check(
               state["f"], poly.parse_poly(m["conic_text"], detrep.PLANE_VARS)),
           verdict("Not")),
    ]


def _expect_spin(genus: int, b1: int):
    def check(scheme):
        total = sum(s.count * s.multiplicity for s in scheme)
        if total != 1 << (2 * genus):
            return f"total degree {total}, expected 2^{2 * genus}"
        if len(scheme) != 1 << b1:
            return f"{len(scheme)} supports, expected 2^{b1}"
        return None
    return check


# ---------------------------------------------------------------------------
# cli: every README command, the heavy rows and generated inputs, each as a
# fresh `python -m dptheta.cli` process.

@dataclass
class Command:
    argv: list[str]
    exit_code: int
    check: Callable[[str], str | None]


def run_process(argv, env, workdir: Path):
    """Run a child to completion; returns (exit code, stdout, stderr, max RSS kB).

    os.wait4 reaps the child itself so that its own peak RSS is known.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss)


def child_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def _lines(out: str) -> list[str]:
    return [" ".join(line.split()) for line in out.splitlines()]


def has_lines(*want: str):
    def check(out):
        lines = _lines(out)
        missing = [w for w in want if w not in lines]
        return f"missing {missing!r}" if missing else None
    return check


def spin_table_check(genus: int, nodes: int):
    def check(out):
        rows = [r.split() for r in _lines(out)[1:]]
        if len(rows) != sum(n + 1 for n in range(nodes + 1)):
            return f"{len(rows)} rows"
        for n in range(nodes + 1):
            total = sum(int(r[2]) * int(r[3]) for r in rows if r[0] == str(n))
            if total != 1 << (2 * genus):
                return f"{n} nodes: total degree {total}"
        return None
    return check


def profile_totals_check(totals):
    return has_lines("total " + " ".join(str(t) for t in totals))


def generated_nodal_check(refs, degree, subset, scheme, total):
    def check(out):
        want = profile_text(refs.get(degree, subset, scheme))
        dynkin = refs.get(degree, subset, "validate")
        return has_lines(f"configuration: {dynkin}", f"profile: {want}",
                         f"total: {total}")(out)
    return check


def cli_commands(seed: int, workdir: Path, refs: References) -> list[Command]:
    """Write the generated inputs to workdir and list one pass of commands."""
    d = lambda name: str(DATA / name)  # noqa: E731
    configs = {(deg, len(sub)): (deg, sub, roots)
               for deg, sub, roots in inputs.nodal_configs(seed)}
    gen2, gen3 = configs[(2, 3)], configs[(3, 2)]
    for tag, (deg, _, roots) in (("gen2.cfg", gen2), ("gen3.cfg", gen3)):
        (workdir / tag).write_text(inputs.config_text(deg, roots))
    genera, edges = inputs.dual_graphs(seed)[2]
    (workdir / "gen.gr").write_text(inputs.graph_text(genera, edges))
    genus = sum(genera) + len(edges) - len(genera) + 1
    (workdir / "gen.txt").write_text(inputs.matrices(seed, 1)[0]["block"])
    _, bad = inputs.malformed_config(seed)
    (workdir / "bad.cfg").write_text(bad)
    w = lambda name: str(workdir / name)  # noqa: E731

    return [
        # README commands
        Command(["lattice", "--degree", "3", "--kind", "exceptional"], 0,
                has_lines("total: 27")),
        Command(["lattice", "--degree", "2", "--kind", "blowdown"], 0,
                has_lines("total: 576")),
        Command(["nodal", d("node_a1.cfg"), "--scheme", "eventheta"], 0,
                has_lines("configuration: A1", "profile: 16x1 + 10x2", "total: 36")),
        Command(["nodal", d("cusp_a2.cfg"), "--scheme", "doublesix"], 0,
                has_lines("configuration: A2", "profile: 6x1 + 10x3", "total: 36")),
        Command(["nodal", d("node_a1.cfg"), "--scheme", "profile"], 0,
                profile_totals_check(A1_PROFILE_TOTALS)),
        Command(["spin", d("genus3_node.gr")], 0,
                has_lines("genus 3, total degree 64 = 2^6")),
        Command(["spin-table", "--genus", "3", "--nodes", "3"], 0,
                spin_table_check(3, 3)),
        Command(["theta", "aronhold"], 0,
                has_lines("288 Aronhold sets over 36 even classes, 8 per class")),
        Command(["theta", "conic-pairs"], 0,
                has_lines("intermediate 496", "Z 990", "pairs 495")),
        Command(["theta", "zeros", "--dim", "6", "--arf", "1"], 0,
                has_lines("zeros 28")),
        Command(["detrep", d("detrep_sample.txt"), "--action", "check"], 0,
                has_lines("verdict TotallyTangent")),
        Command(["detrep", d("quartic_sample.txt"), "--action", "quartic"], 0,
                has_lines("bitangent verified")),
        # the heavy rows of the ROADMAP baseline
        Command(["nodal", d("e7.cfg"), "--scheme", "eventheta"], 0,
                has_lines("configuration: E7", "profile: 1x36", "total: 36")),
        Command(["nodal", d("e7.cfg"), "--scheme", "aronhold"], 0,
                has_lines("configuration: E7", "profile: 1x288", "total: 288")),
        Command(["theta", "zeros", "--dim", "16", "--arf", "1"], 0,
                has_lines("zeros 32640")),
        # the cusp's computed blow-down profile, pinned
        Command(["nodal", d("cusp_a2.cfg"), "--scheme", "blowdowns"], 0,
                has_lines(f"profile: {CUSP_BLOWDOWN_PROFILE}", "total: 72")),
        # generated inputs
        Command(["nodal", w("gen2.cfg"), "--scheme", "eventheta"], 0,
                generated_nodal_check(refs, 2, gen2[1], "eventheta", 36)),
        Command(["nodal", w("gen2.cfg"), "--scheme", "bitangents"], 0,
                generated_nodal_check(refs, 2, gen2[1], "bitangents", 28)),
        Command(["nodal", w("gen3.cfg"), "--scheme", "doublesix"], 0,
                generated_nodal_check(refs, 3, gen3[1], "doublesix", 36)),
        Command(["spin", w("gen.gr")], 0,
                has_lines(f"genus {genus}, total degree {1 << (2 * genus)} = 2^{2 * genus}")),
        Command(["detrep", w("gen.txt"), "--action", "check"], 0,
                has_lines("verdict TotallyTangent")),
        # bounded error paths
        Command(["detrep", d("detrep_zero.txt"), "--action", "check"], 3, None),
        Command(["nodal", w("bad.cfg"), "--scheme", "lines"], 2, None),
    ]


def check_command(cmd: Command, result) -> str | None:
    code, out, err = result[:3]
    if "Traceback" in err:
        return "traceback on stderr"
    if code != cmd.exit_code:
        return f"exit {code}, expected {cmd.exit_code}: {err.strip()[:200]}"
    if cmd.exit_code != 0:
        lines = err.strip().splitlines()
        ok = len(lines) == 1 and lines[0].startswith("error:")
        return None if ok else f"stderr is not one error line: {err[:200]!r}"
    return cmd.check(out)


def cli_workload(seed: int, workdir: Path, refs: References) -> Workload:
    commands = cli_commands(seed, workdir, refs)
    env = child_env()
    wl = Workload("cli", [], [], tail_pct=85)

    def in_subprocess(cmd):
        def run():
            result = run_process([sys.executable, "-m", "dptheta.cli", *cmd.argv],
                                 env, workdir)
            wl.child_rss_kb.append(result[3])
            return result
        return run

    def in_process(cmd):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd.argv))
            return code, out.getvalue(), err.getvalue()
        return run

    for cmd in commands:
        name = " ".join(Path(a).name if "/" in a else a for a in cmd.argv)
        check = lambda result, cmd=cmd: check_command(cmd, result)  # noqa: E731
        wl.ops.append(Op(name, in_subprocess(cmd), check))
        wl.trace_ops.append(Op(name, in_process(cmd), check))
    wl.before_op = spans.clear_caches
    return wl


# ---------------------------------------------------------------------------
# Cold/warm table of the ROADMAP kernels, plus one row for each remaining
# traced layer so that every layer is measured in every traced run.

# ROADMAP baseline (ms, Python 3.11.7, one machine) for the rows it has.
ROADMAP_MS = {
    "weyl_order(d=2)": 549,
    "congruence_classes(E7 blow-downs)": 436,     # as blowdown_scheme(E7)
    "even_theta_of_blowdown x576": 382,
    "enumerate_aronhold": 2209,
    "total_tangency_check(sample)": 46,
    "python -c pass": 63,
    "import dptheta.cli": 75,
    "theta aronhold": 2147,
    "nodal e7.cfg --scheme eventheta": 922,
    "nodal e7.cfg --scheme aronhold": 582,
    "theta zeros --dim 16 --arf 1": 334,
    "detrep detrep_sample.txt --action check": 213,
}


def kernel_rows():
    lat2 = lt.make_lattice(2)
    blowdowns = list(lt.enumerate_classes(lat2, lt.ClassKind.BLOWDOWN))
    e7 = nodal.parse_config((DATA / "e7.cfg").read_text())
    node = nodal.parse_config((DATA / "node_a1.cfg").read_text())
    sample = (DATA / "detrep_sample.txt").read_text()
    banana = (DATA / "genus3_banana.gr").read_text()
    data = detrep.data_from_block(detrep.parse_data_block(sample))
    f, t = detrep.discriminant_quintic(data), detrep.contact_conic(data)
    res = poly.resultant(f, t, "x2")
    uni, _ = poly.uni_from_binary_form(res, "x0", "x1")

    def enumerate_all():
        for degree in (2, 3):
            for kind in lt.ClassKind:
                lt.enumerate_classes(lt.make_lattice(degree), kind)

    def tangency_sample():
        d = detrep.data_from_block(detrep.parse_data_block(sample))
        return detrep.total_tangency_check(detrep.discriminant_quintic(d),
                                           detrep.contact_conic(d))

    def cli_zeros():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["theta", "zeros", "--dim", "6"])

    def equals(want):
        return lambda got: None if got == want else f"got {got!r}, expected {want!r}"

    anything = lambda got: None  # noqa: E731
    return [
        ("enumerate_classes (3 kinds x 2 degrees)", enumerate_all, anything),
        ("weyl_order(d=2)", lambda: lt.weyl_order(lat2), equals(WEYL_ORDERS[2])),
        ("congruence_classes(E7 blow-downs)",
         lambda: len(nodal.congruence_classes(e7, blowdowns)), equals(1)),
        ("aronhold_scheme(E7)", lambda: nodal.aronhold_scheme(e7).total, equals(288)),
        ("even_theta_of_blowdown x576",
         lambda: len({tf.even_theta_of_blowdown(lat2, b) for b in blowdowns}),
         equals(36)),
        ("enumerate_aronhold", lambda: len(tf.enumerate_aronhold()), equals(288)),
        ("count_zeros(dim 16)", lambda: tf.count_zeros(tf.make_space(8, 1)),
         equals(32640)),
        ("resultant(sample quintic, conic)", lambda: poly.resultant(f, t, "x2"),
         equals(res)),
        ("squarefree_multiplicities(sample)",
         lambda: [m for _, m in poly.squarefree_multiplicities(uni)], anything),
        ("total_tangency_check(sample)", lambda: tangency_sample().verdict.value,
         equals("TotallyTangent")),
        ("even_theta_scheme(A1 node)", lambda: nodal.even_theta_scheme(node).total,
         equals(36)),
        ("intersection_profile(A1 node)",
         lambda: tuple(nodal.profile_column_totals(nodal.intersection_profile(node))),
         equals(A1_PROFILE_TOTALS)),
        ("arf(dim 12)", lambda: tf.arf(tf.make_space(6, 1)), equals(1)),
        ("count_conic_pairs", lambda: tuple(tf.count_conic_pairs()),
         equals((496, 990, 495))),
        ("spin_scheme(genus-3 banana)",
         lambda: sum(s.count * s.multiplicity
                     for s in spin.spin_scheme(spin.parse_graph(banana))),
         equals(64)),
        ("cli theta zeros --dim 6", cli_zeros, equals(0)),
    ]


def kernel_table(tracer) -> list[tuple[str, float, float, str | None]]:
    """(row, cold seconds, warm seconds, failure or None) per kernel.

    Caches are cleared from outside with cache_clear() before the cold call.
    """
    lt.weyl_order(lt.make_lattice(3))   # pay lazy imports before any row
    out = []
    for name, fn, check in kernel_rows():
        times, reasons = [], []
        for phase in ("cold", "warm"):
            if phase == "cold":
                spans.clear_caches()
            tracer.op = f"kernel {phase}: {name}"
            tracer.recording = True
            t0 = perf_counter()
            try:
                got, error = fn(), None
            except Exception as exc:   # counted as a failed op
                got, error = None, f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            tracer.recording = False
            reasons.append(error or check(got))
        out.append((name, times[0], times[1], reasons[0] or reasons[1]))
    return out
