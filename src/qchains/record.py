"""Frozen records: the package's small immutable value classes.

A record's fields are its class's __slots__, in order, and its __init__
takes them in that order.  The __init__ coerces and checks the values and
sets them with _set (object.__setattr__, since assignment is refused).
The base gives each record what a frozen dataclass has: equality with
records of the same class only (never with a plain tuple), a hash of the
fields, a repr that names them, an AttributeError on assignment or
deletion, and pickling through __init__.  It needs no import, so loading
the package does not pay for the dataclasses module and what that loads.
The hash is kept once computed, since the fields never change: records
key the samplers' caches, and a Fraction field costs about a microsecond
to hash on every lookup.
"""

_set = object.__setattr__


class Record:
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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
