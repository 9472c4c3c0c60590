"""The base of the package's immutable records.

A record declares its fields as class annotations, in order, and may check
outside input in ``_check``.  It is built positionally or by keyword, keeps
its fields in its ``__dict__`` (so a private builder can fill one with a
single ``object.__new__`` and ``__dict__.update``), equals only a record of
its own class with equal fields, hashes as the tuple of its fields, shows
as ``Class(field=value, ...)`` and refuses assignment and deletion.  Copy,
deepcopy and pickle restore the ``__dict__`` as they find it.
"""


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *values, **named):
        fields = self._fields
        if len(values) + len(named) != len(fields) or (
            named and not named.keys() <= set(fields[len(values):])
        ):
            raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}")
        self.__dict__.update(zip(fields, values), **named)
        self._check()

    def _check(self) -> None:
        """Reject outside input with ValueError; a record with no
        constraint beyond its fields' types accepts any."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(self.__dict__.__getitem__, self._fields)))

    def __repr__(self):
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
