"""Immutable records: the value type of every layer.

A subclass of Record declares its fields as annotations, after those of its
bases; a class-level value is the field's default.  The constructor takes
the fields positionally or by keyword, fills in the defaults and then calls
__post_init__, which may validate a field or normalize it through
object.__setattr__.  Records refuse assignment and deletion, compare and
hash by exact type and every field value, and print as
Name(field=value, ...).  Records keep an instance __dict__, so
cached_property works on them.
"""

from __future__ import annotations


class Record:
    _fields = ()  # every field, those of the bases first
    _defaults = {}

    def __init_subclass__(cls):
        own = [f for f in cls.__dict__.get("__annotations__", {}) if f not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes at most {len(cls._fields)} positional fields")
        values = self.__dict__
        values.update(zip(cls._fields, args))
        if kwargs:
            for name in kwargs:
                if name in values or name not in cls._fields:
                    raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values.update(kwargs)
        if len(values) < len(cls._fields):
            for name in cls._fields:
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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A new record of the same type with some fields changed; its
    __post_init__ runs again, so the result is validated like any other."""
    values = {f: getattr(record, f) for f in record._fields}
    values.update(changes)
    return record.__class__(**values)
