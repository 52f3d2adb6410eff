"""One counter type for every observability group in the package.

Each group (ingest decisions, cache lookups, bus deliveries,
supervision, chaos injections, ...) is a :class:`Counters` subclass
whose body only declares its fields, one bare annotation each::

    class CacheCounters(Counters):
        #: Lookups answered from the cache.
        hits: int
        misses: int

The type owns the decision every owner used to make by hand, which
lock guards which counter: each group carries its own lock, bumps go
through :meth:`~Counters.add` (sums) and :meth:`~Counters.peak`
(high-water marks), and :meth:`~Counters.copy`/:meth:`~Counters.as_dict`
read every field under that lock, so two fields bumped by one call are
never seen apart.  Reading one field is a plain attribute read;
assigning one raises, since it would race a concurrent ``add``.  One
locked call costs about a microsecond, so hot loops tally in locals
and add once per block.
"""

from __future__ import annotations

import threading
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Tuple

__all__ = ["Counters", "format_counts"]


class Counters:
    """A named group of integer counters, all starting at 0.

    Groups compare, copy and pickle by value.  Constructor keywords
    set starting values; an unknown field name raises ``TypeError``
    there and in every bump.
    """

    #: Field names in declaration order.
    _fields: ClassVar[Tuple[str, ...]] = ()
    _field_set: ClassVar[FrozenSet[str]] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)

    def __init__(self, **values: int) -> None:
        if not self._field_set.issuperset(values):
            self._reject(values)
        object.__setattr__(self, "_lock", threading.Lock())
        self.__dict__.update(dict.fromkeys(self._fields, 0))
        self.__dict__.update(values)

    def _reject(self, names: Mapping[str, int]) -> None:
        unknown = sorted(set(names) - self._field_set)
        raise TypeError(f"{type(self).__name__} has no fields {unknown}")

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"{type(self).__name__} fields change only through add() or peak()"
        )

    def add(self, **deltas: int) -> None:
        """Add each delta to its field, all under one lock hold."""
        if not self._field_set.issuperset(deltas):
            self._reject(deltas)
        values = self.__dict__
        with self._lock:
            for name, delta in deltas.items():
                values[name] += delta

    def peak(self, **observed: int) -> None:
        """Raise each high-water field to its observation if larger."""
        if not self._field_set.issuperset(observed):
            self._reject(observed)
        values = self.__dict__
        with self._lock:
            for name, value in observed.items():
                if value > values[name]:
                    values[name] = value

    def as_dict(self) -> Dict[str, int]:
        """Every field as a plain ``int`` (JSON-ready), read under the lock."""
        values = self.__dict__
        with self._lock:
            return {name: int(values[name]) for name in self._fields}

    def copy(self) -> "Counters":
        """An independent group holding one consistent snapshot."""
        return type(self)(**self.as_dict())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None  # type: ignore[assignment] - mutable, compared by value

    def __getstate__(self) -> Dict[str, int]:
        return self.as_dict()

    def __setstate__(self, state: Dict[str, int]) -> None:
        self.__init__(**state)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_counts(self.as_dict())})"


def format_counts(values: Mapping[str, Any]) -> str:
    """The CLI's one rendering of a group: ``k=v`` pairs joined by
    commas, floats (rates) to three places."""
    return ", ".join(
        f"{name}={value:.3f}" if isinstance(value, float) else f"{name}={value}"
        for name, value in values.items()
    )
