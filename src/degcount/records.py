"""Value records for the package's result and parameter types.

`dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, about a third
of the package's import time, to decorate a handful of classes; this one
base gives the records what they used of it.  A record names its fields in
`__slots__`, in constructor order.
"""


class Record:
    """Equal to a record of the same class whose fields are equal, hashed
    by its fields, shown as Class(field=value, ...), and pickled and copied
    by calling the class on its field values.  Its fields are set once, by
    `_fill` in `__init__`; any later assignment or deletion raises
    AttributeError."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"{type(self).__name__}")
