"""Base class of the library's immutable value objects.

A subclass lists its fields in ``__slots__``, in order, and is built one
way, ``cls(*fields)`` (trailing fields may be named): its ``_fill(self,
<fields>)``, straight-line code generated from ``__slots__`` on the first
fill, sets each field through its slot descriptor, and a wrong field count
raises ``TypeError``.  A validating subclass runs its checks in ``__init__``
and then calls ``super().__init__``; a trusted builder calls ``_fill`` on an
``object.__new__`` instance.  A field that can be derived from the others
is a property, not a slot.  Subclasses get what a frozen dataclass gets,
without importing ``dataclasses``: equality within the class, a hash and a
``Name(field=value, ...)`` repr of the fields, ``AttributeError`` on
assignment, and pickling and copying through the constructor.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple, read in C; attrgetter of one name gives no tuple
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __init__(self, *fields, **named):
        if named:  # named fields follow the positional ones, in slot order
            rest = self.__slots__[len(fields) :]
            fields += tuple(named.pop(name) for name in rest if name in named)
        if named or len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        self._fill(*fields)

    def _fill(self, *fields):
        # first fill of the class: generate its filler, which replaces this
        # method; the instance and setters take a prefix no slot name has
        cls, names, me = type(self), self.__slots__, "self"
        while any(name.startswith(me) for name in names):
            me = "_" + me
        scope = {f"{me}{i}": vars(cls)[name].__set__ for i, name in enumerate(names)}
        body = "".join(f"\n {me}{i}({me}, {name})" for i, name in enumerate(names))
        exec(f"def _fill({me}, {', '.join(names)}):{body}", scope)
        cls._fill = scope["_fill"]
        cls._fill(self, *fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values)
