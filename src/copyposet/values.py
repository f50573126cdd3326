"""The base of the package's immutable value classes.

A value class lists its fields in ``__slots__``, in constructor order, and sets
them in its own ``__init__`` through ``init`` (``object.__setattr__``): plain
assignment raises ``AttributeError``. Its method ``_values`` returns the tuple of
the fields that make up the value, in constructor order. Two values are equal
when they are of the same class with equal ``_values``; the hash is that of the
``_values`` tuple, and copying and pickling rebuild a value from it. A class on a
hot path writes its own ``__eq__`` and ``__hash__`` with the same meaning.
"""
from __future__ import annotations

init = object.__setattr__


class Value:
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"
