"""Cardinal atoms and the per-session registry.

Atoms name uncountable initial ordinals. The builtin family ``w_1, w_2, ...``
carries the aleph_k scale (rank k): ``builtin(k)`` is the one value of w_k, and
computing builds the builtins it needs from it without any registry. User atoms
are ordered against everything else only through their declared rank.
"""
from __future__ import annotations

import re

from .values import Value, init

_BUILTIN_RE = re.compile(r"^w_([1-9][0-9]*)$")
# the largest k of a w_k name in input: w_k puts w_1..w_k and ~k^2/2 atom-order
# relations in a closure (analyze "w^w" --assume "w_200 < c" takes ~0.2 s as a whole
# process on a 2-vCPU Xeon); the engine itself still builds w_{k+1} for a w_k at the limit
MAX_BUILTIN_INDEX = 200
# names the cardinal grammar reads as constants
_RESERVED = {"w": "omega", "c": "the continuum", "h": "the distributivity number"}


class AtomError(ValueError):
    pass


def _written_builtin(name: str) -> int | None:
    """k for a ``w_k`` name written in input, None for any other name."""
    m = _BUILTIN_RE.match(name)
    if m is None:
        return None
    digits = m.group(1)
    if len(digits) > len(str(MAX_BUILTIN_INDEX)) or int(digits) > MAX_BUILTIN_INDEX:
        raise AtomError(f"{name} is past w_{MAX_BUILTIN_INDEX}, the largest builtin "
                        f"atom input may name")
    return int(digits)


class CardinalAtom(Value):
    __slots__ = ("name", "rank", "singular", "declared_cofinality", "builtin_index",
                 "_hash")

    def __init__(self, name: str, rank: int, singular: bool = False,
                 declared_cofinality: CardinalAtom | None = None,
                 builtin_index: int | None = None) -> None:
        init(self, "name", name)
        init(self, "rank", rank)
        init(self, "singular", singular)
        # for singular atoms: the regular atom of the declared cofinality, or None for omega
        init(self, "declared_cofinality", declared_cofinality)
        init(self, "builtin_index", builtin_index)
        # every CardinalExpr lookup hashes its atom: the hash is computed once
        init(self, "_hash", hash((name, rank, singular, declared_cofinality, builtin_index)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or (
                self._hash == other._hash
                and (self.name, self.rank, self.singular, self.declared_cofinality,
                     self.builtin_index)
                == (other.name, other.rank, other.singular, other.declared_cofinality,
                    other.builtin_index))
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def regular(self) -> bool:
        return not self.singular

    def __repr__(self) -> str:
        return f"CardinalAtom({self.name!r})"


_BUILTINS: dict[int, CardinalAtom] = {}


def builtin(k: int) -> CardinalAtom:
    """The atom w_k (aleph_k)."""
    atom = _BUILTINS.get(k)
    if atom is None:
        if k < 1:
            raise AtomError("builtin atoms start at w_1")
        atom = _BUILTINS[k] = CardinalAtom(f"w_{k}", k, builtin_index=k)
    return atom


class AtomRegistry:
    """Append-only registry of the atoms input declares or names.

    A ``w_k`` name enters on its first lookup, and its rank is then taken;
    computing never changes the registry.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, CardinalAtom] = {}
        self._by_rank: dict[int, CardinalAtom] = {}

    def declare(self, name: str, rank: int, singular: bool = False,
                cofinality: str | None = None) -> CardinalAtom:
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
            raise AtomError(f"bad atom name {name!r}")
        if name in _RESERVED:
            raise AtomError(f"{name!r} denotes {_RESERVED[name]} and cannot be redeclared")
        if rank < 1:
            raise AtomError("atom rank must be a positive integer")
        if name in self._by_name:
            raise AtomError(f"atom {name!r} already declared")
        if rank in self._by_rank:
            raise AtomError(f"rank {rank} already taken by {self._by_rank[rank].name!r}")
        builtin_index = _written_builtin(name)
        if builtin_index is not None:
            if singular:
                raise AtomError(f"builtin atom {name!r} is regular and cannot be singular")
            if rank != builtin_index:
                raise AtomError(f"builtin atom {name!r} must have rank {builtin_index}")
        cof_atom = None
        if singular:
            cof_name = cofinality if cofinality is not None else "w"
            if cof_name != "w":
                cof_atom = self.lookup(cof_name)
                if cof_atom is None:
                    raise AtomError(f"declared cofinality {cof_name!r} is not a known atom")
                if cof_atom.singular:
                    raise AtomError("declared cofinality must be regular")
                if cof_atom.rank >= rank:
                    raise AtomError("declared cofinality must lie strictly below the atom")
        elif cofinality is not None:
            raise AtomError("only singular atoms carry a declared cofinality")
        atom = CardinalAtom(name, rank, singular, cof_atom, builtin_index)
        self._by_name[name] = atom
        self._by_rank[rank] = atom
        return atom

    def lookup(self, name: str) -> CardinalAtom | None:
        """The atom a name in input denotes; a ``w_k`` name registers w_k."""
        k = _written_builtin(name)
        atom = self._by_name.get(name)
        if atom is None and k is not None:
            if k in self._by_rank:
                raise AtomError(
                    f"cannot use {name}: rank {k} is taken by {self._by_rank[k].name!r}")
            atom = self._by_name[name] = self._by_rank[k] = builtin(k)
        return atom

    def atoms(self) -> list[CardinalAtom]:
        return sorted(self._by_name.values(), key=lambda a: a.rank)
