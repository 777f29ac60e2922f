"""Command-line interface: reproducible reports for every computation.

Subcommands mirror the library modules: `lattice` enumerates Picard-lattice
classes, `nodal` runs multiplicity schemes from a root-configuration file,
`spin` / `spin-table` count spin structures on dual graphs, `theta` runs the
F2 layer, and `detrep` drives the symmetric determinantal pipeline.  Reports
go to standard output (TSV or aligned pretty format); errors to standard
error.  Exit codes: 0 success, 1 standard output closed before the report
was written (a reader such as `head` stopped early), 2 input error,
3 degenerate input.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

EXIT_PIPE = 1  # stdout closed early; the code Python itself exits with on EPIPE
EXIT_INPUT = 2  # an input error; an exception's `exit_code` overrides it


def _emit(report: tuple, fmt: str) -> None:
    """Print a (header, rows, footer) report as TSV or aligned columns.

    Each footer entry is (tsv key, pretty label, value): TSV prints
    "key<TAB>value", pretty prints "label: value", or the bare value when
    the label is None.  Every cell is formatted before the one print.
    """
    header, rows, footer = report
    cells = [tuple(str(c) for c in row) for row in [header, *rows]]
    if fmt == "tsv":
        lines = ["\t".join(row) for row in cells]
        lines += [f"{key}\t{value}" for key, _, value in footer]
    else:
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in cells]
        lines += [f"{label}: {value}" if label else str(value)
                  for _, label, value in footer]
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# Subcommands.  Each handler imports the one layer it drives, so a fresh
# process loads only the modules of the command it runs, and returns its
# report for `_emit`; it prints nothing and lets errors reach `main`.

def cmd_lattice(args) -> tuple:
    from . import lattice as lt

    lat = lt.make_lattice(args.degree)
    if args.kind == "double-six":
        header = ("orbit",)
        rows = [(" ".join(sorted(map(lt.format_class, orbit))),)
                for orbit in lt.double_six_orbits(lat)]
    else:
        header = ("class",)
        rows = [(lt.format_class(d),)
                for d in lt.enumerate_classes(lat, lt.ClassKind[args.kind.upper()])]
    return header, rows, [("total", "total", len(rows))]


def cmd_nodal(args) -> tuple:
    from . import lattice as lt, nodal

    with open(args.config) as fh:
        cfg = nodal.parse_config(fh.read())
    if args.scheme == "profile":
        profile = nodal.intersection_profile(cfg)
        header = ("family",) + tuple(str(c) for c in nodal.PROFILE_COLUMNS)
        rows = [(name,) + row for name, row in profile]
        rows.append(("total",) + nodal.profile_column_totals(profile))
        return header, rows, []
    scheme = nodal.scheme(cfg, args.scheme)
    # a point is a Picard class (a tuple) or a theta characteristic
    rows = [(lt.format_class(rep) if isinstance(rep, tuple) else str(rep), m)
            for rep, m in scheme.points]
    profile = " + ".join(f"{n}x{m}" for m, n in
                         sorted(scheme.multiplicity_profile().items()))
    return ("representative", "multiplicity"), rows, [
        ("dynkin", "configuration", nodal.validate_config(cfg)),
        ("profile", "profile", profile),
        ("total", "total", scheme.total)]


def cmd_spin(args) -> tuple:
    from . import spin

    with open(args.graph) as fh:
        graph = spin.parse_graph(fh.read())
    supports = spin.spin_scheme(graph)
    rows = []
    for support in supports:
        delta = " ".join(f"({graph.edges[i][0]},{graph.edges[i][1]})"
                         for i in support.delta) or "-"
        rows.append((delta, support.count, support.multiplicity))
    total = sum(s.count * s.multiplicity for s in supports)
    g = graph.genus
    return ("support", "count", "multiplicity"), rows, [
        ("summary", None, f"genus {g}, total degree {total} = 2^{2 * g}")]


def cmd_spin_table(args) -> tuple:
    from . import spin

    rows = []
    for n in range(min(args.nodes, 0), args.nodes + 1):  # the library rejects n < 0
        for row in spin.spin_table_irreducible(args.genus, n):
            rows.append((n, row.resolved, row.count, row.multiplicity,
                         row.odd, row.even))
    return ("nodes", "resolved", "count", "multiplicity", "odd", "even"), rows, []


def cmd_theta(args) -> tuple:
    from . import theta_f2
    from .text import echo

    if args.task == "aronhold":
        sets = theta_f2.enumerate_aronhold()
        by_even = defaultdict(int)
        rows = []
        for s in sets:
            even = theta_f2.even_theta_of_aronhold(s)
            by_even[even] += 1
            rows.append((" ".join(str(t) for t in s), str(even)))
        sizes = sorted(set(by_even.values()))
        line = (f"{len(sets)} Aronhold sets over {len(by_even)} even classes,"
                f" {sizes[0]} per class" if len(sizes) == 1
                else f"{len(sets)} Aronhold sets, uneven fibers {sizes}")
        return ("aronhold_set", "even_theta"), rows, [("summary", None, line)]
    if args.task == "conic-pairs":
        intermediate, z, pairs = theta_f2.count_conic_pairs()
        rows = [("intermediate", intermediate), ("Z", z), ("pairs", pairs)]
    else:
        # one message for an odd, small or large --dim; make_space refuses only 2g > cap
        if args.dim % 2 or not 2 <= args.dim <= theta_f2.MAX_COUNT_DIM:
            raise ValueError(f"--dim must be even and between 2 and "
                             f"{theta_f2.MAX_COUNT_DIM}, got {echo(args.dim)}")
        count = theta_f2.count_zeros(theta_f2.make_space(args.dim // 2, args.arf))
        rows = [("dim", args.dim), ("arf", args.arf), ("zeros", count)]
    return ("quantity", "value"), rows, []


def cmd_detrep(args) -> tuple:
    from . import detrep

    with open(args.input) as fh:
        fields = detrep.parse_data_block(fh.read())
    if args.action == "quartic":
        f, line = detrep.quartic_from_block(fields)
        return ("quantity", "value"), [("quartic", f), ("bitangent", line)], [
            ("status", None, "bitangent verified")]
    data = detrep.data_from_block(fields)
    if args.action == "quintic":
        rows = [("quintic", detrep.discriminant_quintic(data))]
    elif args.action == "conic":
        rows = [("conic", detrep.contact_conic(data))]
    else:
        f = detrep.discriminant_quintic(data)
        t = detrep.contact_conic(data)
        report = detrep.total_tangency_check(f, t, seed=args.seed)
        rows = [("quintic", f), ("conic", t), ("verdict", report.verdict.value),
                ("shear", f"{report.shear[0]} {report.shear[1]}")]
    return ("quantity", "value"), rows, []


# ---------------------------------------------------------------------------
# Parser wiring.

def _int(word: str) -> int:
    """The integer options' type: text.parse_int, a file's integer literal,
    refused in argparse's own words for type=int."""
    from .text import parse_int

    try:
        return parse_int(word)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {word!r}") from None


class _Parser(argparse.ArgumentParser):
    """A parser, subcommands' too, whose usage errors raise into `main`:
    they leave through its one `error:` line instead of usage and exit."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dptheta",
        description="Exact combinatorial invariants of Del Pezzo surfaces, "
                    "spin curves and theta characteristics.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("tsv", "pretty"),
                        default="pretty", help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("lattice", help="enumerate Picard-lattice classes")
    p.add_argument("--degree", type=_int, required=True)
    p.add_argument("--kind", required=True,
                   choices=("exceptional", "root", "blowdown", "double-six"))
    p.set_defaults(func=cmd_lattice)

    p = add_parser("nodal", help="multiplicity schemes of a root configuration")
    p.add_argument("config", help="configuration file (degree/root lines)")
    # the keys of nodal.SCHEMES, spelled out so that parsing imports no layer
    p.add_argument("--scheme", required=True,
                   choices=("lines", "bitangents", "blowdowns", "doublesix",
                            "aronhold", "eventheta", "profile"))
    p.set_defaults(func=cmd_nodal)

    p = add_parser("spin", help="spin structures on a dual graph")
    p.add_argument("graph", help="graph file (v/e lines)")
    p.set_defaults(func=cmd_spin)

    p = add_parser("spin-table", help="irreducible-curve multiplicity tables")
    p.add_argument("--genus", type=_int, required=True)
    p.add_argument("--nodes", type=_int, required=True)
    p.set_defaults(func=cmd_spin_table)

    p = add_parser("theta", help="F2 theta-characteristic computations")
    p.add_argument("task", choices=("aronhold", "conic-pairs", "zeros"))
    p.add_argument("--dim", type=_int, default=6, help="even F2 dimension (zeros only)")
    p.add_argument("--arf", type=_int, default=0, choices=(0, 1),
                   help="Arf invariant of the quadratic form (zeros only)")
    p.set_defaults(func=cmd_theta)

    p = add_parser("detrep", help="symmetric determinantal pipeline")
    p.add_argument("input", help="data file of NAME: polynomial lines")
    p.add_argument("--action", required=True,
                   choices=("quintic", "conic", "check", "quartic"))
    p.add_argument("--seed", type=_int, default=0, help="seed of the shear draws (check only)")
    p.set_defaults(func=cmd_detrep)
    return parser


def _cut_words(message: str, argv: list[str]) -> str:
    """message with each command-line word that `text.echo` cuts replaced by
    echo's cut, in each form the message may hold it.

    argparse and the OS quote a value as its repr, or bare (unrecognized
    arguments), or as the repr of the int that an `_int` option made of it
    (an invalid `--arf` choice); an option's value may be the part of the
    word after `=` or after `-h`.
    Longer forms are cut first, so that no shorter one splits them.
    """
    from .text import echo

    cuts = {}
    for word in argv:
        for value in {word, word.partition("=")[2], word[2:]}:
            if echo(value) != repr(value):
                cuts[repr(value)] = cuts[value] = echo(value)
            try:
                number = int(value)
            except ValueError:  # not an int literal, or too long for one
                continue
            if echo(number) != repr(number):
                cuts[repr(number)] = echo(number)
    for form in sorted(cuts, key=len, reverse=True):
        message = message.replace(form, cuts[form])
    return message


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        _emit(args.func(args), args.format)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # not an input error: as the Python docs' "Note on SIGPIPE" does,
        # point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {_cut_words(str(exc), argv)}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
