"""The value types: immutable, hashable, copyable, and checked however built."""

import copy
import pickle

import pytest
from conftest import DATA

from dptheta import detrep, lattice as lt, nodal, spin, theta_f2

LAT2 = lt.make_lattice(2)
ROOT = lt.divisor(LAT2, 0, 1, -1)  # E1 - E2


def instances():
    """One instance of each value type, with a change that makes it invalid
    (None for the types that do not check their fields)."""
    cfg = nodal.NodalConfig(LAT2, [ROOT])
    graph = spin.DualGraph((1, 1), ((0, 1), (0, 1)))
    data = detrep.data_from_block(detrep.parse_data_block((DATA / "detrep_sample.txt").read_text()))
    return [
        (LAT2, {"degree": 4}),
        (cfg, {"roots": (lt.divisor(LAT2, 0, 1, 1),)}),  # E1 + E2: K.r = -2
        (nodal.scheme(cfg, "lines"), None),
        (graph, {"edges": ()}),  # two vertices and no edge: not connected
        (spin.spin_counts(graph, ()), None),
        (spin.spin_table_irreducible(3, 1)[0], None),
        (theta_f2.make_space(2, 1), {"rows": (1,)}),  # dim 4 needs four rows
        (theta_f2.EvenSubsetClass((1, 2)), None),
        (data, {"h": data.l11}),  # H must be a cubic
        (detrep.TangencyReport(detrep.Tangency.TOTALLY_TANGENT, (0, 1)), None),
    ]


INSTANCES = instances()


@pytest.mark.parametrize("value,invalid", INSTANCES,
                         ids=[type(v).__name__ for v, _ in INSTANCES])
def test_value_type_contract(value, invalid):
    hash(value)
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    field = getattr(value, "_fields", ("mask",))[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    if invalid is not None:
        with pytest.raises(ValueError):
            value._replace(**invalid)
        with pytest.raises(ValueError):
            value._make({**value._asdict(), **invalid}.values())
