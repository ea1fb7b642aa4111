"""Immutable records: the value type of every layer.

Frozen is the fieldless base of every immutable value: its constructor
writes the attributes into the instance __dict__, and assignment and
deletion raise AttributeError.  Record and the kernel values of
fourgeo.algebra (Poly, LaurentPoly) derive from it; the kernel values keep
their own constructors, equality and hashing, and declare no fields.

A subclass of Record declares its fields as annotations, after those of its
bases; a class-level value is the field's default.  The constructor takes
the fields positionally or by keyword, fills in the defaults and then calls
__post_init__, which may validate a field or normalize it through
object.__setattr__.  A call that gives every field positionally, the common
case, skips the keyword and default bookkeeping.  Records refuse assignment
and deletion, compare and hash by exact type and every field value, and
print as Name(field=value, ...).  A `cached` attribute of a Frozen value
stores its value in the instance __dict__ on first read.
"""

from __future__ import annotations


class cached:
    """A method read as an attribute, computed on first read and then kept
    in the instance __dict__, which shadows this (non-data) descriptor.
    Unlike functools.cached_property on Python 3.10 and 3.11 it takes no
    lock: threads that read first at once may each compute the value, and
    as records are immutable those values are equal."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.fn(instance)
        return value


class Frozen:
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    _fields = ()  # every field, those of the bases first
    _field_set = frozenset()
    _defaults = {}

    def __init_subclass__(cls):
        own = [f for f in cls.__dict__.get("__annotations__", {}) if f not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        cls, values = self.__class__, self.__dict__
        fields = cls._fields
        values.update(zip(fields, args))
        if kwargs or len(args) != len(fields):  # else every field is given
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__} takes at most {len(fields)} positional fields")
            for name in kwargs:
                if name in values or name not in cls._field_set:
                    raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values.update(kwargs)
            for name in fields:
                if name not in values:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__} is missing the field {name!r}")
                    values[name] = cls._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


def replace(record: Record, **changes) -> Record:
    """A new record of the same type with some fields changed; its
    __post_init__ runs again, so the result is validated like any other.
    Cached attributes are not carried over: the new record computes its own."""
    cls = record.__class__
    for name in changes:
        if name not in cls._field_set:
            raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
    new = object.__new__(cls)
    new.__dict__.update(
        {f: changes[f] if f in changes else getattr(record, f) for f in cls._fields}
    )
    new.__post_init__()
    return new
