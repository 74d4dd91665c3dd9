"""Frozen values: the base every value class of the package derives from.

Frozen refuses assignment and deletion with an AttributeError and has no
slots of its own.  A value class lists its fields in __slots__ and sets
them, and any lazy cache it keeps, with _set (object.__setattr__, since
assignment is refused).  Frozen says nothing about equality, hashing or
pickling: QSeries derives from it directly, compares by value up to the
common order, is unhashable, and pickles through its private _make.

Record is Frozen with what a frozen dataclass has.  A record's fields are
its class's __slots__, in order, and its __init__ takes them in that order,
coerces and checks them.  The base gives it equality with records of the
same class only (never with a plain tuple), a hash of the fields, a repr
that names them, and pickling through __init__.  The hash is kept once
computed, since the fields never change: records key the samplers' caches,
and a Fraction field costs about a microsecond to hash on every lookup.

Neither base needs an import, so loading the package does not pay for the
dataclasses module and what that loads.
"""

_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """Base of the frozen records; see the module docstring."""

    __slots__ = ("_hash",)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._fields()))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
