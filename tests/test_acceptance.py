"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
print.  Criterion 4 is split: the double-six part passes; the stated
blow-down congruence profile 12x1 + 20x3 disagrees with the exact
enumeration (12x1 + 18x3 + 1x6, which aggregates to the same double-six
scheme) and is kept as an honest failing sub-test.
"""

import random
import time
from collections import Counter

from dptheta import lattice as lt, nodal, spin, theta_f2 as tf
from dptheta.lattice import ClassKind

from test_nodal import A1_NODE, A2_CUSP_2, A2_CUSP_3, E7_ROOTS, config
from test_spin import GENUS3_TABLE, random_graph


def report(num, desc, cond, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if cond else "FAIL"
    print(f"[{status}] criterion {num}: {desc} ({elapsed:.2f}s)")
    assert cond, f"criterion {num}: {desc}"


def test_criterion_1_lattice_counts():
    t0 = time.perf_counter()
    ok = True
    for degree, exc, roots, bd in ((3, 27, 72, 72), (2, 56, 126, 576)):
        lat = lt.make_lattice(degree)
        ok &= len(lt.enumerate_classes(lat, ClassKind.EXCEPTIONAL)) == exc
        ok &= len(lt.enumerate_classes(lat, ClassKind.ROOT)) == roots
        ok &= len(lt.enumerate_classes(lat, ClassKind.BLOWDOWN)) == bd
    lat3, lat2 = lt.make_lattice(3), lt.make_lattice(2)
    ok &= len(lt.double_six_orbits(lat3)) == 36
    geiser_orbits = {frozenset((d, lt.geiser(lat2, d)))
                     for d in lt.enumerate_classes(lat2, ClassKind.EXCEPTIONAL)}
    ok &= len(geiser_orbits) == 28
    report(1, "lattice counts 27/72/72/36 and 56/126/576/28", ok, t0)


def test_criterion_2_weyl_orders():
    t0 = time.perf_counter()
    ok = (lt.weyl_order(lt.make_lattice(2)) == 2903040 == 576 * 5040
          and lt.weyl_order(lt.make_lattice(3)) == 51840 == 72 * 720)
    report(2, "Weyl orders 2903040 and 51840", ok, t0)


def test_criterion_3_node_example():
    t0 = time.perf_counter()
    cfg = config(2, *A1_NODE)
    ok = nodal.scheme(cfg, "lines").multiplicity_profile() == {1: 32, 2: 12}
    ok &= nodal.scheme(cfg, "bitangents").multiplicity_profile() == {1: 16, 2: 6}
    ok &= nodal.scheme(cfg, "eventheta").multiplicity_profile() == {1: 16, 2: 10}
    profile = nodal.intersection_profile(cfg)
    rows = {name: row for name, row in profile}
    ok &= rows["2L-Em-En-Ep"] == (0, 10, 15, 10, 0)
    ok &= rows["3L-sumE+Ei+Ej-Ek"] == (5, 30, 35, 30, 5)
    ok &= rows["4L-sumE+Ei-Em-En-Ep"] == (10, 40, 40, 40, 10)
    ok &= rows["5L-2sumE+2Ei"] == (1, 0, 5, 0, 1)
    ok &= nodal.profile_column_totals(profile) == (32, 160, 192, 160, 32)
    report(3, "node example schemes and intersection profile", ok, t0)


def test_criterion_4_cusp_example():
    t0 = time.perf_counter()
    cfg3 = config(3, *A2_CUSP_3)
    ok = nodal.scheme(cfg3, "lines").multiplicity_profile() == {1: 9, 3: 6}
    ok &= nodal.scheme(cfg3, "doublesix").multiplicity_profile() == {1: 6, 3: 10}
    cfg2 = config(2, *A2_CUSP_2)
    ok &= nodal.scheme(cfg2, "bitangents").multiplicity_profile() == {1: 10, 3: 6}
    ok &= nodal.scheme(cfg2, "eventheta").multiplicity_profile() == {1: 6, 3: 10}
    report(4, "cusp example lines/double-six/cross-check", ok, t0)


def test_criterion_4_blowdown_congruence_as_stated():
    """Honest red: the stated profile 12x1 + 20x3 is not what the exact
    congruence enumeration yields (12x1 + 18x3 + 1x6; the six classes
    3L - sumE + E_i - E_j for i != j in the A2 support are all congruent
    modulo the root span).  Both aggregate to the same double-six scheme,
    which passes above."""
    t0 = time.perf_counter()
    cfg3 = config(3, *A2_CUSP_3)
    got = nodal.scheme(cfg3, "blowdowns").multiplicity_profile()
    report("4 (blow-down sub-claim)",
           f"stated 12x1 + 20x3, computed {dict(sorted(got.items()))}",
           got == {1: 12, 3: 20}, t0)


def test_criterion_5_e7_example():
    t0 = time.perf_counter()
    cfg = config(2, *E7_ROOTS)
    ok = nodal.scheme(cfg, "bitangents").multiplicity_profile() == {28: 1}
    ok &= nodal.scheme(cfg, "aronhold").multiplicity_profile() == {288: 1}
    report(5, "E7 example: one bitangent x28, one Aronhold point x288", ok, t0)


def test_criterion_6_spin_tables():
    t0 = time.perf_counter()
    ok = True
    for n, expected in GENUS3_TABLE.items():
        rows = spin.spin_table_irreducible(3, n)
        ok &= [(r.resolved, r.count, r.multiplicity, r.odd, r.even)
               for r in rows] == expected
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng)
        scheme = spin.spin_scheme(g)
        ok &= len(scheme) == 2 ** spin.betti(len(g.genera), g.edges)
        ok &= sum(s.count * s.multiplicity for s in scheme) == 4 ** g.genus
    report(6, "genus-3 table verbatim + 200-graph properties", ok, t0)


def test_criterion_7_f2_layer():
    t0 = time.perf_counter()
    ok = len(tf.odd_classes()) == 28 and len(tf.even_classes()) == 36
    sets = tf.enumerate_aronhold()
    ok &= len(sets) == 288
    fibers = Counter(tf.even_theta_of_aronhold(s) for s in sets)
    ok &= set(fibers.values()) == {8} and len(fibers) == 36
    lat = lt.make_lattice(2)
    bd_fibers = Counter(tf.even_theta_of_blowdown(lat, d)
                        for d in lt.enumerate_classes(lat, ClassKind.BLOWDOWN))
    ok &= set(bd_fibers.values()) == {16} and len(bd_fibers) == 36
    ok &= tf.count_conic_pairs() == (496, 990, 495)
    for seed in range(20):
        ok &= tf.count_conic_pairs(random.Random(seed)) == (496, 990, 495)
    report(7, "F2 layer: 28/36, 288 Aronhold, fibers 8 and 16, 496/990/495",
           ok, t0)


def test_criterion_8_riemann_mumford():
    t0 = time.perf_counter()
    classes = tf.all_classes()
    ok = True
    for theta in classes[:10]:
        for a in classes:
            qa = tf.q_theta(theta, a)
            for b in classes:
                ok &= (tf.q_theta(theta, a + b) + qa
                       + tf.q_theta(theta, b)) % 2 == tf.weil_pair(a, b)
    rng = random.Random(13)
    for dim in (4, 8, 12):
        rows = tuple(rng.getrandbits(dim) >> i << i for i in range(dim))
        space = tf.QuadraticSpace(dim, rows)
        for _ in range(200):
            u, v = rng.getrandbits(dim), rng.getrandbits(dim)
            bl = space.evaluate(u ^ v) ^ space.evaluate(u) ^ space.evaluate(v)
            full = 0
            for i in range(dim):
                if (u >> i) & 1:
                    full ^= (space.rows[i] & v).bit_count() & 1
                if (v >> i) & 1:
                    full ^= (space.rows[i] & u).bit_count() & 1
            ok &= bl == full
    report(8, "Riemann-Mumford exhaustive (genus 3) and random (dim <= 12)",
           ok, t0)


def test_criterion_9_detrep():
    t0 = time.perf_counter()
    from test_detrep import (SAMPLE, random_data, random_form)
    from dptheta.detrep import (DegenerateError, Tangency, contact_conic,
                                cubic_threefold, discriminant_quintic,
                                extract_matrix, quartic_from_odd_theta,
                                total_tangency_check)
    rng = random.Random(0)
    ok = True
    for _ in range(100):
        data = random_data(rng)
        ok &= extract_matrix(cubic_threefold(data)) == data
    for _ in range(100):
        lf, q, h = (random_form(rng, d) for d in (1, 2, 3))
        try:
            f, _ = quartic_from_odd_theta(lf, q, h)
        except DegenerateError:
            continue
        ok &= (f + q * q - lf * h).is_zero()
    f = discriminant_quintic(SAMPLE)
    t = contact_conic(SAMPLE)
    ok &= total_tangency_check(f, t).verdict is Tangency.TOTALLY_TANGENT
    checked = 0
    i = 0
    while checked < 20:
        f5, t2 = random_form(rng, 5), random_form(rng, 2)
        if f5.is_zero() or t2.is_zero():
            continue
        verdict = total_tangency_check(f5, t2, seed=i).verdict
        ok &= verdict is Tangency.NOT_TANGENT
        checked += 1
        i += 1
    report(9, "detrep round-trips, quartic identity, tangency verdicts",
           ok, t0)
