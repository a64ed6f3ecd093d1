"""The value-object contract that every ``Record`` subclass keeps.

One constructor, ``cls(*fields)`` in slot order, which refuses a wrong
field count; equality within one class, a hash of the field tuple, the
dataclass-style repr, refusal of assignment and deletion, and pickling and
copying by calling the class again on the field values.
"""

import copy
import pickle

import pytest

from severi_lattice._record import Record
from severi_lattice.corpus import CorpusSpec
from severi_lattice.intmat import IntMat, hsnf, snf
from severi_lattice.lattices import Z2, AffineLattice2, _canonical, affine_span
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
    "CorpusSpec": lambda: CorpusSpec(3, 10),
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


# the classes that check their input before they store it
VALIDATING = {"IntMat", "AffineLattice2", "CorpusSpec"}


def test_only_the_validating_classes_define_a_constructor():
    defines = {name for name in BUILDERS if "__init__" in vars(type(BUILDERS[name]()))}
    assert defines == VALIDATING


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - VALIDATING))
def test_a_wrong_field_count_raises(name):
    # the fields in slot order, never truncated or padded
    a = BUILDERS[name]()
    cls, slots = type(a), a.__slots__
    fields = [getattr(a, f) for f in slots]
    assert cls(*fields) == a
    assert cls(fields[0], **dict(zip(slots[1:], fields[1:]))) == a
    named = dict(zip(slots, fields))
    wrong = [
        (fields[:-1], {}),
        (fields + [fields[0]], {}),
        ([], {}),
        (fields[:1], {slots[0]: fields[0]}),
        (fields, {"extra": 1}),
        ([], {k: v for k, v in named.items() if k != slots[-1]}),
    ]
    for args, kwargs in wrong:
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*args, **kwargs)


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


@pytest.mark.parametrize(
    "vertices",
    [[(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (2, 0), (0, 2)], _polygon().vertices],
)
def test_filled_records_equal_constructed_ones(vertices):
    # analyze fills its records on object.__new__ instances; the constructor
    # given the same fields builds an equal record with the same hash
    report = analyze(LatticePolygon(vertices))
    profile = report.profile
    for record in (report, profile, *profile.facets, *report.components):
        built = type(record)(*[getattr(record, name) for name in record.__slots__])
        assert built == record and hash(built) == hash(record)


def test_repr_is_the_dataclass_format():
    assert repr(Z2) == "AffineLattice2(basepoint=(0, 0), basis=((1, 0), (0, 1)))"
    assert repr(CorpusSpec(2)) == (
        "CorpusSpec(max_coordinate=2, limit=None)"
    )
    assert eval(repr(Z2), {"AffineLattice2": AffineLattice2}) == Z2


# test-local records of one and of seven fields: the filler is generated
# from any slot tuple, whatever its length
class One(Record):
    __slots__ = ("only",)


class Seven(Record):
    __slots__ = ("a", "b", "c", "d", "e", "f", "g")


@pytest.mark.parametrize("cls", [One, Seven], ids=lambda c: c.__name__)
def test_the_filler_serves_any_field_count(cls):
    fields = [(i, str(i)) for i in range(len(cls.__slots__))]
    a, b = cls(*fields), cls(*fields)
    assert a == b and hash(a) == hash(b) == hash(tuple(fields))
    assert [getattr(a, name) for name in cls.__slots__] == fields
    assert a != cls(*fields[:-1], ("other",))
    clone = pickle.loads(pickle.dumps(a))
    assert type(clone) is cls and clone == a
    for wrong in (fields[:-1], fields + fields[:1], []):
        with pytest.raises(TypeError, match="takes the fields"):
            cls(*wrong)


def test_trusted_builders_equal_the_validating_constructors():
    entries = (1, 2, -3, 4, -1, -3)
    assert IntMat._trusted(2, 3, entries) == IntMat(2, 3, entries)
    # (5, 7) reduced modulo the columns (2, 0) and (1, 3)
    trusted = _canonical((5, 7), 2, 1, 3)
    built = AffineLattice2((1, 1), ((2, 1), (0, 3)))
    assert trusted == built and hash(trusted) == hash(built)


def test_one_filler_per_class():
    class Pair(Record):
        __slots__ = ("left", "right")

    # generated on the first fill, then kept on the class
    assert Pair._fill is Record._fill
    Pair(1, 2)
    fill = Pair._fill
    assert fill is not Record._fill
    assert Pair(3, 4).left == 3 and Pair._fill is fill
