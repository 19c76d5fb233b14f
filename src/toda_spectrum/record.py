"""Frozen value records, with nothing generated at import.

A subclass declares its fields as class annotations, in order, with optional
class-level defaults, and behaves as under ``@dataclass(frozen=True)``:
positional or keyword construction, a ``__post_init__`` call after it, no
assignment or deletion afterwards, ``==`` only against the same class, a hash
over the field tuple and the same ``repr``. ``order=True`` in the class
statement adds the four comparisons. One ``__init__`` serves every subclass,
where the decorator would ``exec`` generated source per class at import, and
each instance keeps its field values as one tuple, which ``==``, ``hash`` and
the comparisons read. Instances keep a ``__dict__``, so
``functools.cached_property`` works on them.
"""

from __future__ import annotations

import operator


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, order: bool = False, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__annotations__ if f not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        cls._values_of = operator.itemgetter(*cls._fields)
        if order:
            for name in ("__lt__", "__le__", "__gt__", "__ge__"):
                setattr(cls, name, _comparison(getattr(operator, name)))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, d = self._fields, self.__dict__
        if kwargs or len(args) != len(fields):
            d.update(self._bind(args, kwargs))
        else:
            d.update(zip(fields, args))
        self.__post_init__()
        values = self._values_of(d)
        d["_values"] = values if len(fields) > 1 else (values,)

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """Field to value, from arguments that are not one positional per field."""
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(fields) or values.keys() != set(fields) or given.keys() & kwargs:
            raise TypeError(
                f"{type(self).__qualname__}() takes {', '.join(fields)}, each once; got "
                f"{len(args)} positional and {', '.join(kwargs) or 'no'} keyword arguments"
            )
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({body})"


def _comparison(op):
    def compare(self: Record, other: object) -> bool:
        if other.__class__ is self.__class__:
            return op(self._values, other._values)
        return NotImplemented

    return compare


def asdict(record: Record) -> dict[str, object]:
    """Field name to value, in field order; a nested record stays a record."""
    return dict(zip(record._fields, record._values))
