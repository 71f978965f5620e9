"""Plain records: the data classes of the package without ``dataclasses``,
whose import pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize`` and
would slow every command's start."""


class Record:
    """The fields named in ``_fields``, in order, set by the subclass's
    ``__init__``.  Two records are equal when their classes and their fields
    are; ``repr`` shows each field by name.  Records are mutable and so
    unhashable."""

    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"
