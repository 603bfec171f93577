"""The one base of geomint's immutable value types.

A value type lists its constructor fields in ``_fields`` and its slots in
``__slots__``; a slot that is not a field caches something derived from the
fields, such as an inverse.  Its written-out ``__init__`` stores each slot
with ``store``, since assignment on a value raises AttributeError; a
scalar model parameter passes through ``finite`` first.  The base gives
field-wise ``==``, ``hash`` and ``repr``, and pickles and copies a value by
calling its constructor on the fields again.
"""

from __future__ import annotations

import math

# object.__setattr__ bound once: the one way to fill a slot of a Value
store = object.__setattr__


def finite(name: str, value):
    """value, if it is a finite number and not a bool; else ValueError naming the field."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


class Value:
    """Frozen value: ==, hash and repr over ``_fields``; ``_hidden`` fields stay out of repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._astuple()
