"""Base class of the library's immutable value objects.

A subclass lists its fields in ``__slots__``, in order, and sets them in its
``__init__`` with ``object.__setattr__``.  It gets what a frozen dataclass
gets, without importing ``dataclasses``: equality within its class, a hash
and a ``Name(field=value, ...)`` repr of the fields, ``AttributeError`` on
assignment, and pickling and copying through the constructor.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple, read in C; every subclass has two fields or more
        cls._values = property(attrgetter(*cls.__slots__))

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
