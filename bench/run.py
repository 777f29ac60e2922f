"""dptheta benchmark: one workload per run, seeded, single client, closed loop.

    python3 bench/run.py --workload {cli,nodal,algebra} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` (the `dptheta` console script need not be installed).  With
`--trace 0` the run measures the end-to-end metrics with tracing off: it
runs whole passes over the workload's fixed op list until `--seconds` of
passes have run and there are enough for the tail percentile, and sets up
five times in fresh processes along the way (median `setup_s`).  With `--trace 1` it runs
one untraced and one traced pass in this process, then a cold/warm kernel
table, and reports the per-layer metrics and the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli", "nodal", "algebra")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (one setup_s sample)")
    return p.parse_args(argv)


def build(workload: str, seed: int, workdir: Path):
    import workloads as w
    refs = w.References()
    if workload == "nodal":
        return w.nodal_workload(seed, refs)
    if workload == "algebra":
        return w.algebra_workload(seed)
    return w.cli_workload(seed, workdir, refs)


# Host-speed calibration.  On a shared host the same code runs up to ~1.8x
# slower in some phases than in others, phases switch within seconds, and
# CPU time follows wall time, so medians over a run do not remove the drift.
# Every end-to-end time is therefore reported in reference seconds: the raw
# time times CAL_REF_S / c, where c is the median of the four calibration
# samples nearest the op (two before it, two after it).  Raw times are logged.
CAL_REF_S = 0.0005


def calibration_kernel() -> int:
    """Fixed pure-Python work (Fractions, tuples, a dict) that gauges speed."""
    acc, seen = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i, i + 3)
        seen[(i, acc.denominator % 97)] = (acc, i)
    return len(seen)


def calibration() -> float:
    """The faster of two back-to-back runs, so a cold cache does not count."""
    times = []
    for _ in range(2):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return min(times)


class Pass:
    """Timed ops in order: raw durations, calibration samples, failures."""

    def __init__(self):
        self.durations: list[float] = []
        self.cals: list[float] = []     # cals[i] is taken just before op i
        self.failures: list[str] = []

    def time(self, fn):
        """Returns (result, exception or None) and records the duration."""
        self.cals.append(calibration())
        t0 = perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:   # the caller counts it as a failed op
            out, error = None, exc
        self.durations.append(perf_counter() - t0)
        return out, error

    def close(self) -> "Pass":
        self.cals.append(calibration())
        return self

    @property
    def wall(self) -> float:
        return sum(self.durations)

    @property
    def ref_durations(self) -> list[float]:
        return [d * CAL_REF_S / statistics.median(self.cals[max(0, i - 1):i + 3])
                for i, d in enumerate(self.durations)]

    @property
    def ref_wall(self) -> float:
        return sum(self.ref_durations)


def setup_sample(args) -> tuple[float, float]:
    """(raw, reference) seconds of a fresh process that only sets up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    cal = calibration()
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    raw = perf_counter() - t0
    cal = (cal + calibration()) / 2
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return raw, raw * CAL_REF_S / cal


def run_pass(ops, before_op=None, tracer=None) -> Pass:
    """Time each op; its oracle runs after the timer stops and untraced."""
    result = Pass()
    for i, op in enumerate(ops):
        if before_op:
            before_op()
        if tracer:
            tracer.op, tracer.recording = f"op {i}", True
        out, error = result.time(op.run)
        if tracer:
            tracer.recording = False
        if error:
            result.failures.append(f"{op.name}: {type(error).__name__}: {error}")
            continue
        try:
            reason = op.check(out)
        except Exception as exc:
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason:
            result.failures.append(f"{op.name}: {reason}")
    return result.close()


def percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def samples_beyond(n: int, pct: int) -> int:
    """Samples strictly above the interpolated pct-th percentile of n."""
    return (n - 1) - math.floor(pct / 100 * (n - 1))


def min_passes(n_ops: int, tail_pct: int) -> int:
    """Fewest passes (at least two) with ten samples beyond the tail percentile."""
    k = 2
    while samples_beyond(k * n_ops, tail_pct) < 10:
        k += 1
    return k


def provenance(args) -> list[str]:
    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "absent"
    return [f"python {platform.python_version()}", f"sympy {sympy}",
            f"nproc {os.cpu_count()}", f"workload {args.workload}",
            f"seed {args.seed}", f"trace {args.trace}", f"commit {commit}"]


def end_to_end(args, wl, log) -> tuple[dict, int, int]:
    # Set-up samples go between the first passes, not in one block, so that
    # they fall in different phases of the host's speed.
    setups, passes = [], []
    needed = min_passes(len(wl.ops), wl.tail_pct)
    measured = 0.0
    while len(passes) < needed or measured < args.seconds:
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args))
        t0 = perf_counter()
        passes.append(run_pass(wl.ops))
        measured += perf_counter() - t0
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    samples = [d for p in passes for d in p.ref_durations]
    failures = [f for p in passes for f in p.failures]
    tail = percentile(samples, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": statistics.median(p.ref_wall for p in passes),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": tail * 1e3,
        "fail_frac": len(failures) / len(samples),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    raw = [d for p in passes for d in p.durations]
    log("set-up (s, raw/reference): " + ", ".join(f"{r:.3f}/{x:.3f}" for r, x in setups))
    log(f"ops per pass {len(wl.ops)}, passes {len(passes)} (minimum {needed}), "
        f"samples {len(samples)}, op_tail_ms = p{wl.tail_pct} "
        f"with {samples_beyond(len(samples), wl.tail_pct)} samples beyond it")
    log(f"pass wall (s, raw/reference): "
        f"{', '.join(f'{p.wall:.3f}/{p.ref_wall:.3f}' for p in passes)}")
    log(f"raw medians: wall_s {statistics.median(p.wall for p in passes):.4f}, "
        f"op_p50_ms {statistics.median(raw) * 1e3:.3f}, "
        f"op_tail_ms {percentile(raw, wl.tail_pct) * 1e3:.3f}")
    log_op_medians(wl.ops, passes, log)
    for f in failures[:20]:
        log(f"FAILED {f}")
    return metrics, len(samples), len(failures)


def log_op_medians(ops, passes, log) -> None:
    import workloads
    rows = []
    for i, op in enumerate(ops):
        rows.append((statistics.median(p.durations[i] for p in passes), op.name))
    log("slowest ops (median raw ms, ROADMAP ms where it has the row):")
    for t, name in sorted(rows, reverse=True)[:12]:
        ref = workloads.ROADMAP_MS.get(name)
        log(f"  {t * 1e3:9.1f} {'' if ref is None else ref:>6}  {name}")


def traced(args, wl, log) -> tuple[dict, int, int]:
    import spans
    import workloads

    before = wl.before_op
    untraced = run_pass(wl.trace_ops, before_op=before)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(wl.trace_ops, before_op=before, tracer=tracer)
        kernels = workloads.kernel_table(tracer)
    finally:
        tracer.uninstall()
    pass_ops = {f"op {i}" for i in range(len(wl.trace_ops))}
    pass_busy = tracer.busy_for_ops(pass_ops)
    pass_spans = [s for s in tracer.spans if s.op in pass_ops]
    startup, import_total = cli_probes()
    metrics = layer_metrics(tracer, kernels, startup, import_total)
    # in reference seconds, as the two passes may meet different host phases
    overhead = traced_pass.ref_wall - untraced.ref_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.unaccounted_s"] = traced_pass.wall - pass_busy

    log(f"untraced pass {untraced.wall:.3f} s raw, {untraced.ref_wall:.3f} s reference; "
        f"traced pass {traced_pass.wall:.3f} s raw, {traced_pass.ref_wall:.3f} s reference; "
        f"tracing overhead {overhead:+.3f} s (reference) over {len(pass_spans)} spans")
    log(f"module self time {pass_busy:.3f} s of the traced pass; "
        f"unaccounted {traced_pass.wall - pass_busy:+.3f} s")
    log("cold/warm kernels (ms; caches cleared with cache_clear() from outside):")
    log(f"  {'cold':>9} {'warm':>9} {'ROADMAP':>8}  kernel")
    rows = [(n, c, w) for n, c, w, _ in kernels]
    rows += [("python -c pass", startup, startup),
             ("import dptheta.cli", import_total, import_total)]
    for name, cold, warm in rows:
        ref = workloads.ROADMAP_MS.get(name)
        log(f"  {cold * 1e3:9.1f} {warm * 1e3:9.1f} "
            f"{'' if ref is None else ref:>8}  {name}")
    failures = untraced.failures + traced_pass.failures
    failures += [f"kernel {name}: {reason}" for name, _, _, reason in kernels if reason]
    for f in failures[:20]:
        log(f"FAILED {f}")
    attempted = len(untraced.durations) + len(traced_pass.durations) + len(kernels)
    return metrics, attempted, len(failures)


def cli_probes(samples: int = 5) -> tuple[float, float]:
    """Median wall of `python -c pass` and of `python -c "import dptheta.cli"`."""
    import workloads
    env = workloads.child_env()
    times = {"pass": [], "import dptheta.cli": []}
    for _ in range(samples):
        for code in times:
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=60)
            times[code].append(perf_counter() - t0)
    return (statistics.median(times["pass"]),
            statistics.median(times["import dptheta.cli"]))


def layer_metrics(tracer, kernels, startup, import_total) -> dict:
    from spans import MODULES
    rows = tracer.by_name()

    def get(name, col):
        return rows.get(name, [0, 0.0, 0.0, 0, 0])[col]

    ms = lambda name: get(name, 1) * 1e3              # noqa: E731  inclusive
    self_ms = lambda *names: sum(get(n, 2) for n in names) * 1e3  # noqa: E731
    cold = {row[0]: row[1] * 1e3 for row in kernels}
    calls = get("nodal.congruence_classes", 0)
    labels = "theta_f2.even_theta_of_blowdown"
    m = {
        "cli.startup_ms": startup * 1e3,
        "cli.import_ms": (import_total - startup) * 1e3,
        "cli.main.self_ms": self_ms("cli.main"),
        "lattice.enumerate_classes.cold_ms": cold["enumerate_classes (3 kinds x 2 degrees)"],
        "lattice.weyl_order.cold_ms": cold["weyl_order(d=2)"],
        "nodal.congruence_classes.self_ms": self_ms("nodal.congruence_classes"),
        "nodal.congruence_classes.calls": calls,
        "nodal.congruence_classes.classes": tracer.classes_keyed,
        "nodal.partition_reuse": len(set(tracer.partition_keys)) / calls if calls else 0.0,
        "nodal.validate_config.ms": ms("nodal.validate_config"),
        "nodal.quotient.self_ms": self_ms("nodal.bitangent_scheme", "nodal.aronhold_scheme",
                                          "nodal.double_six_scheme"),
        "nodal.even_theta_scheme.self_ms": self_ms("nodal.even_theta_scheme"),
        "nodal.intersection_profile.ms": ms("nodal.intersection_profile"),
        "theta_f2.enumerate_aronhold.cold_ms": cold["enumerate_aronhold"],
        "theta_f2.even_theta_of_blowdown.cold_ms": cold["even_theta_of_blowdown x576"],
        "theta_f2.even_theta_of_blowdown.hit_ratio":
            get(labels, 4) / get(labels, 0) if get(labels, 0) else 0.0,
        "theta_f2.count_zeros.ms": ms("theta_f2.count_zeros"),
        "theta_f2.arf.ms": ms("theta_f2.arf"),
        "theta_f2.count_conic_pairs.ms": ms("theta_f2.count_conic_pairs"),
        "poly.parse_poly.ms": ms("poly.parse_poly"),
        "poly.resultant.ms": ms("poly.resultant"),
        "poly.squarefree_multiplicities.ms": ms("poly.squarefree_multiplicities"),
        "detrep.total_tangency_check.self_ms": self_ms("detrep.total_tangency_check"),
        "detrep.discriminant_quintic.ms": ms("detrep.discriminant_quintic"),
        "detrep.verdicts": tracer.verdicts,
        "spin.spin_scheme.ms": ms("spin.spin_scheme"),
        "spin.even_subsets.count": tracer.even_subsets,
    }
    for module in MODULES:
        mine = [r for name, r in rows.items() if name.startswith(module + ".")]
        m[f"{module}.calls"] = sum(r[0] for r in mine)
        m[f"{module}.busy_ms"] = sum(r[2] for r in mine) * 1e3
        m[f"{module}.failed"] = sum(r[3] for r in mine)
    return m


def declared_units(trace: int) -> dict:
    """Metric name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dptheta" / "__init__.py").is_file():
        print(f"error: no dptheta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ensure_work_root()))
    try:
        wl = build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        return report(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    On a shared host each CPU drifts in speed on its own.  The calibration
    only tracks a child process's speed when both run on the same CPU; the
    parent is blocked while a child runs, so they never compete for it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def ensure_work_root() -> Path:
    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    return root


def report(args, wl) -> int:
    lines = ["# " + ", ".join(provenance(args))]
    log = lambda s: lines.append("# " + s)  # noqa: E731
    measure = traced if args.trace else end_to_end
    metrics, attempted, failed = measure(args, wl, log)
    declared = declared_units(args.trace)
    units = dict(declared, fail_frac="ratio")
    lines += [f"{name} = {value} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
