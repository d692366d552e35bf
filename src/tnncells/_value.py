"""The base of the package's small value classes.

A value class lists its slots in ``__slots__`` and writes its own
``__init__``, which sets them with ``object.__setattr__`` and then
validates them.  Its fields are its slots, or the names in its own
``_fields`` when some slot holds derived state.  The base compares,
hashes and prints an instance by the tuple of its fields, as a frozen
dataclass does, and refuses assignment with AttributeError; `_Ordered`
adds the four order comparisons on the same tuple.  `_unchecked` builds
an instance from its field values without running ``__init__``, for the
enumerations, whose walks yield only valid values.  Neither imports
`dataclasses`, which would load `inspect` and `ast` into every process
and compile each class's methods from generated source at import.
"""

from __future__ import annotations

from operator import attrgetter


class _Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("_fields", cls.__slots__)
        if fields:  # `_Ordered` declares none
            cls._fields = fields
            cls._key = attrgetter(*fields)  # two or more fields: a tuple

    @classmethod
    def _unchecked(cls, *values):
        """An instance with the given field values, in `_fields` order,
        set without ``__init__``'s checks.  Only for values the caller
        built valid, of a class whose fields are all its slots."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, whose
        # positional parameters are the fields in order
        return type(self), self._key(self)


class _Ordered(_Value):
    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < other._key(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) <= other._key(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) > other._key(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) >= other._key(other)
        return NotImplemented
