"""Slotted records: the one base of the library's value classes.

A record lists its fields in __slots__, in order, or in _names when its
slots hold the fields in another form, and may give defaults:
_defaults maps a field to its default value and _factories to a callable
that makes a fresh one for each record. Record supplies what the
library's values need: a constructor taking the fields by position or
keyword, == between records of one type with equal fields, the hash of
the field tuple, the repr Name(field=value, ...), pickling, and refusal
of assignment. MutableRecord allows assignment and is unhashable.

The classes are written out rather than generated at import time,
because the calculator answers every script in a fresh process and class
generation would be paid on each of them. A record still answers
dataclasses.fields, replace and asdict, which code outside the library
applies to its values: the attributes that module reads come from an
equivalent dataclass built on first use, so only such a call imports it.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter


class _DataclassView:
    """One of the attributes the dataclasses module reads, built on demand."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, cls):
        return getattr(_twin(cls), self.name)


@cache
def _twin(cls):
    """A dataclass with cls's name, fields and mutability."""
    import dataclasses

    return dataclasses.make_dataclass(cls.__name__, cls._names, frozen=cls.__hash__ is not None)


class Record:
    """A frozen record: immutable, compared and hashed by its fields."""

    __slots__ = ()
    _defaults: dict = {}
    _factories: dict = {}
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._names = cls.__dict__.get("_names", cls.__slots__)
        get = attrgetter(*names) if names else lambda record: ()
        # _fields(record) is the tuple of its field values.
        cls._fields = staticmethod(get if len(names) != 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            args = self._complete(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, from arguments by position and keyword and
        the defaults."""
        names = cls._names
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in names[len(args):]:
            if name in values:
                continue
            if name in cls._defaults:
                values[name] = cls._defaults[name]
            elif name in cls._factories:
                values[name] = cls._factories[name]()
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        return tuple([values[name] for name in names])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MutableRecord(Record):
    """A record whose fields can be reassigned; it has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
