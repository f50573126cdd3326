"""The base of the package's immutable value classes.

A value class lists its fields in ``__slots__``, in constructor order, and sets
them in its own ``__init__`` through ``init`` (``object.__setattr__``): plain
assignment raises ``AttributeError``. Its value is the tuple of its fields: the
``__slots__`` of its bases and then its own, in declared order, minus those whose
names start with ``_``; every class has two or more. Two values are equal when
they are of the same class with equal value tuples; the hash is that of the
tuple, the repr lists it, and copying and pickling rebuild a value from it.

Two classes on hot paths write their own ``__eq__`` and ``__hash__`` with the
same meaning: ``OrdinalTerm`` and ``atoms.CardinalAtom`` (which caches its hash).
Against the generic path here, on an Intel Xeon with CPython 3.11: comparing equal
terms ``w^(w_1+1)*3 + w^w + 5`` takes 0.68 instead of 0.99 us, and hashing an atom
0.12 instead of 0.36 us. ``forcing.PosetExpr`` and ``forcing.ForcingFact`` keep the
generic ``__eq__`` and cache their hash when it is first asked for: the kept JSON
texts are looked up by fact and by poset, and a fact's hash walks its whole trace,
so the 6 facts of a ``saturate`` report hash in about 25 us on the generic path.
Every other class uses the generic path. None is a dataclass:
there, ``import dataclasses`` (it loads ``inspect``) takes 7-14 ms and making 15 frozen
slots dataclasses 11-17 ms, some 20 ms of the 88 ms in which a one-shot command starts.
"""
from __future__ import annotations

from operator import attrgetter

init = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = [name for klass in reversed(cls.__mro__)
                  for name in vars(klass).get("__slots__", ()) if not name.startswith("_")]
        cls._get_values = attrgetter(*fields)  # a tuple, for two fields or more

    def _values(self) -> tuple:
        return self._get_values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get_values
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get_values(self))

    def __reduce__(self):
        return self.__class__, self._get_values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._get_values(self)))})"
