"""Immutable value records: field-wise ``==``, ``hash`` and ``repr``.

A subclass lists its fields in order in ``_fields``; ``Record(*values)``
binds them positionally and any later assignment raises ``AttributeError``.
Instances keep a ``__dict__``, so a ``functools.cached_property`` still
caches on them; cached values are not fields.  The package's records are
plain classes rather than dataclasses: importing ``dataclasses`` (with
``inspect`` behind it) and generating each class's methods took about a
sixth of a CLI process's start-up (README, "Start-up").
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")
