"""What every layer shares and no layer owns: the frozen-record base and
the root of the package's exceptions.  A leaf module: it imports nothing
from the package.

A record checks its data once, in its `__init__`, so the check stays true
only if the record cannot change afterwards.  `Record` refuses assignment
and compares and hashes by one key, the tuple of the fields a class
declares once: its `__slots__`, or `_fields` for a class that also keeps
values derived on first use in a `__dict__`, which are not compared.  An
`__init__` writes each field once, through `set_field`.
"""

from __future__ import annotations

from operator import attrgetter

# the one way to write a record's field, used only by its `__init__`
set_field = object.__setattr__


class EndoapproxError(Exception):
    """Root of the package's exceptions.  Each one also keeps the built-in
    exception it derived from before, so an `except ValueError` (or
    `KeyError`, `RuntimeError`, `AssertionError`) still catches it."""


class Record:
    """An immutable value: equal when of the same class with equal keys,
    hashed by the key, and refusing assignment to any attribute."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields", cls.__dict__.get("__slots__"))
        get = attrgetter(*fields)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._key = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to field {name!r}")
