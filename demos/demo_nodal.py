#!/usr/bin/env python3
"""Degenerate Del Pezzo surfaces: multiplicity schemes of ADE configurations.

Reruns the three worked degenerations shipped in demos/data: a single node
(A1), a cusp (A2, in both degrees) and the maximal E7 case.  Each runs every
scheme of its degree, and the schemes of one configuration share one
partition per class table; `eventheta` shares none, as it reads the F2
cosets of the roots' labels instead of a class table.
"""

from pathlib import Path

from dptheta import nodal

DATA = Path(__file__).resolve().parent / "data"


def show(path):
    cfg = nodal.parse_config((DATA / path).read_text())
    print(f"--- {path}: {nodal.validate_config(cfg)} in degree "
          f"{cfg.lattice.degree} ---")
    for name, (_, degree, _) in nodal.SCHEMES.items():
        if degree in (None, cfg.lattice.degree):
            scheme = nodal.scheme(cfg, name)
            profile = " + ".join(f"{n}x{m}" for m, n in
                                 sorted(scheme.multiplicity_profile().items()))
            print(f"  {name:12s} {profile}  (total {scheme.total})")


for path in ("node_a1.cfg", "cusp_a2.cfg", "cusp_a2_deg2.cfg", "e7.cfg"):
    show(path)

print("\nintersection frequencies of the 576 blow-down classes against the")
print("node class (rows: coefficient families; columns: D.F = 2,1,0,-1,-2):")
cfg = nodal.parse_config((DATA / "node_a1.cfg").read_text())
profile = nodal.intersection_profile(cfg)
for name, row in profile:
    print(f"  {name:22s} {row}")
print(f"  {'totals':22s} {nodal.profile_column_totals(profile)}")
