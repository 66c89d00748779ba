"""Plain record classes for the parameter objects and reports.

A record names its fields in `_fields`, which lead its `__slots__`, and sets
them in its own `__init__`.  Two records are equal when they are of one class
with equal fields, and the repr is `Class(field=value, ...)`.  A `Record`
(a report) is mutable and unhashable; a `FrozenRecord` refuses assignment
with `AttributeError` and hashes its fields.  The contexts that every scalar
operation and cache lookup compares (`scalar.FieldContext`,
`qcomb.QContext`) write their own equality and keep their hash.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        """Set the slots in order: the body of every `__init__`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({inner})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key())
