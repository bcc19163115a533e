"""Immutable value classes, built without ``dataclasses``.

Importing ``dataclasses`` loads ``inspect`` and ``ast``, and it builds each
method with ``exec``; for a one-shot ``tilecert`` command that costs more
CPU than the checks themselves.  ``frozen`` builds the same methods from
closures over ``operator.attrgetter`` instead.
"""

from operator import attrgetter


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    Two instances are equal, and hash alike, when they are of the same
    class and their fields are equal; ``repr`` lists the fields.
    Assigning or deleting any attribute raises ``AttributeError``, so the
    class's own ``__init__``, which it must define, sets its fields with
    ``object.__setattr__``; a class without one is a ``TypeError``.
    Instances keep their fields in their ``__dict__``, so they pickle
    (for ``--workers``) as they are.
    """
    if "__init__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} must define its own __init__")
    names = tuple(cls.__annotations__)
    key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    cls.__repr__ = __repr__
    return cls
