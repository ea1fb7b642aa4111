"""Immutable records: the value type of every layer.

Frozen is the fieldless base of every immutable value: its constructor
writes the attributes into the instance __dict__, and assignment and
deletion raise AttributeError.  Record and the kernel values of
fourgeo.algebra (Poly, LaurentPoly) derive from it; the kernel values keep
their own constructors, equality and hashing, and declare no fields.

A subclass of Record declares its fields as annotations, after those of its
bases; a class-level value is the field's default.  The constructor takes
the fields positionally or by keyword and then calls __post_init__, which
may validate a field or normalize it by writing the instance __dict__.  A
call that gives every field positionally, the common case, just stores
them.  Any other call fills in the defaults, then the positional fields,
then the keywords; one set test each catches an unknown and a repeated
keyword, and one length test a missing field, and only then are the fields
scanned, to name the first offender.  replace copies the unchanged fields
from the old value's __dict__ and runs __post_init__ again.  Records refuse
assignment and deletion, compare and hash by exact type and every field
value, and print as Name(field=value, ...).  A `cached` attribute of a
Frozen value stores its value in the instance __dict__ on first read.
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
        if not kwargs and len(args) == len(fields):  # every field, in order
            values.update(zip(fields, args))
        else:
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__} takes at most {len(fields)} positional fields")
            values.update(cls._defaults)
            values.update(zip(fields, args))
            names = kwargs.keys()
            if not names <= cls._field_set or args and not names.isdisjoint(fields[: len(args)]):
                name = next(k for k in names if k not in cls._field_set or k in fields[: len(args)])
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values.update(kwargs)
            if len(values) < len(fields):
                name = next(f for f in fields if f not in values)
                raise TypeError(f"{cls.__name__} is missing the field {name!r}")
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
    if not changes.keys() <= cls._field_set:
        name = next(k for k in changes if k not in cls._field_set)
        raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
    new = object.__new__(cls)
    old = record.__dict__
    new.__dict__.update({f: old[f] for f in cls._fields}, **changes)
    new.__post_init__()
    return new
