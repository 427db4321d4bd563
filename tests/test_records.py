"""Value semantics of the package's records, which are plain classes.

The hashed records compare and hash field by field and refuse assignment;
the report records take their documented defaults.
"""

import pytest

from sympow.complexes import BasedFreeModule
from sympow.dga import DgaContext, surface_context
from sympow.groupring import LaurentRing, UnitSpecialization, surface_ring
from sympow.homology import DegreeEntry, HomologyReport, SnfResult
from sympow.verify import CheckResult, VerifyReport

RING = surface_ring(1)

# Each hashed record: a constructor and its field values, then for each field
# the same values with that one field changed.
HASHED = [
    (LaurentRing, (("x1", "y1"),), [(("x1", "y2"),)]),
    (UnitSpecialization, (7, (2, 3)), [(11, (2, 3)), (7, (2, 4))]),
    (DgaContext, ("surface", 1, RING),
     [("wedge", 1, RING), ("surface", 2, RING), ("surface", 1, surface_ring(2))]),
    (BasedFreeModule, (1, ((1, 0), (2, 0))), [(2, ((1, 0), (2, 0))), (1, ((1, 0), (2, 1)))]),
    (SnfResult, ((1, 2, 0),), [((1, 4, 0),)]),
]


@pytest.mark.parametrize("cls, values, variants", HASHED, ids=[c.__name__ for c, _, _ in HASHED])
def test_hashed_records_compare_and_hash_by_value(cls, values, variants):
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for changed in variants:
        c = cls(*changed)
        assert a != c and not a == c, changed
    # another type is never equal: DgaContext.last_view is keyed by values of mixed types
    assert a != values and a != 0


@pytest.mark.parametrize("cls, values, variants", HASHED, ids=[c.__name__ for c, _, _ in HASHED])
def test_hashed_records_refuse_assignment(cls, values, variants):
    a = cls(*values)
    for name, value in zip(cls._fields, variants[0]):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*values)


def test_cached_properties_still_cache_on_frozen_records():
    ring = LaurentRing(("x1", "y1"))
    assert ring.unpack(ring.pack((3, -2))) == (3, -2)
    assert "_codec" in vars(ring)
    ctx = surface_context(2)
    assert "table" not in vars(ctx)  # built on first read, not at construction
    assert ctx.table is ctx.table
    assert ctx == surface_context(2)  # a cached value is not a field


def test_report_record_defaults():
    assert DegreeEntry(0, 1).torsion == ()
    rep = HomologyReport("wedge", {}, "betti-count", [])
    assert (rep.prime, rep.trials, rep.seed) == (None, None, None)
    assert CheckResult("name", True).detail == ""
    first, second = VerifyReport("a", {}), VerifyReport("b", {})
    first.add("check", True)
    assert [c.name for c in first.checks] == ["check"]
    assert second.checks == []
