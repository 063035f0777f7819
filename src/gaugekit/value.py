"""The base of the package's immutable value classes.

Each subclass names its fields in `__slots__`, in constructor order, and
sets each one once in a hand-written `__init__` through `set_field`.
Equality holds only between instances of one class with equal compared
fields; the hash is the hash of the tuple of those fields, and the repr
lists them.  The compared fields are all of `__slots__` unless a subclass
names fewer in `_fields`.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value", "set_field"]

set_field = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = vars(cls).get("_fields", cls.__slots__)
        if fields:
            # attrgetter returns a bare value for one name, a tuple for more
            get = attrgetter(*fields)
            cls._compared = get if len(fields) > 1 else staticmethod(lambda x: (get(x),))

    @staticmethod
    def _compared(x: Value) -> tuple:
        """The tuple of the compared fields of x, an instance of this class."""
        return ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the default slot-by-slot
        # restore would go through __setattr__, which refuses
        return type(self), tuple([getattr(self, f) for f in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
