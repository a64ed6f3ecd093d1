"""The value-object contract that every ``Record`` subclass keeps.

Equality within one class, a hash of the field tuple, the dataclass-style
repr, refusal of assignment and deletion, and pickling and copying by
calling the class again on the field values.
"""

import copy
import pickle

import pytest

from severi_lattice._record import Record
from severi_lattice.corpus import CorpusSpec
from severi_lattice.intmat import IntMat, hsnf, snf
from severi_lattice.lattices import Z2, AffineLattice2, affine_span
from severi_lattice.polygons import LatticePolygon
from severi_lattice.severi import analyze, build_profile, enumerate_components


def _polygon():
    return LatticePolygon([(2, 0), (0, 2), (-2, 0), (0, -2)])


# one builder per Record class; each call builds a new, equal instance
BUILDERS = {
    "IntMat": lambda: IntMat.from_rows([[1, 2, -3], [4, -1, -3]]),
    "SnfResult": lambda: snf(IntMat.from_rows([[2, 4], [6, 8]])),
    "HsnfResult": lambda: hsnf(IntMat.from_rows([[1, 2, -3], [4, -1, -3]])),
    "AffineLattice2": lambda: affine_span([(1, 0), (0, 1), (-1, 0)]),
    "Facet": lambda: _polygon().facets()[1],
    "BoundaryProfile": lambda: build_profile(_polygon()),
    "ComponentDescriptor": lambda: enumerate_components(_polygon())[-1],
    "SeveriReport": lambda: analyze(_polygon()),
    "CorpusSpec": lambda: CorpusSpec(3, "none", 10),
}


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    library = {
        c.__name__
        for c in subclasses(Record)
        if c.__module__.startswith("severi_lattice.")
    }
    assert library == set(BUILDERS)


@pytest.fixture(params=sorted(BUILDERS))
def pair(request):
    build = BUILDERS[request.param]
    a, b = build(), build()
    assert type(a).__name__ == request.param and a is not b
    return a, b


def test_equal_and_hash(pair):
    a, b = pair
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in a.__slots__))


def test_another_class_with_the_same_values_differs(pair):
    a, _ = pair
    other_cls = type("Other", (Record,), {"__slots__": a.__slots__})
    other = object.__new__(other_cls)
    for name in a.__slots__:
        object.__setattr__(other, name, getattr(a, name))
    assert a != other and other != a
    assert a != tuple(getattr(a, name) for name in a.__slots__)


def test_frozen_and_slotted(pair):
    a, b = pair
    assert not hasattr(a, "__dict__")
    first = a.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_pickle_and_copy_round_trips(pair):
    a, b = pair
    for clone in (
        pickle.loads(pickle.dumps(a)),
        copy.copy(a),
        copy.deepcopy(a),
    ):
        assert type(clone) is type(a) and clone == b and hash(clone) == hash(b)


def test_repr_is_the_dataclass_format():
    assert repr(Z2) == "AffineLattice2(basepoint=(0, 0), basis=((1, 0), (0, 1)))"
    assert repr(CorpusSpec(2)) == (
        "CorpusSpec(max_coordinate=2, dedup='translation', limit=None)"
    )
    assert eval(repr(Z2), {"AffineLattice2": AffineLattice2}) == Z2
