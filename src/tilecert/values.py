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
    class and their fields are equal.  ``repr`` lists the fields unless the
    class defines its own.  Assigning or deleting any attribute raises
    ``AttributeError``, so a class's own ``__init__`` sets its fields with
    ``object.__setattr__``.  A class without one gets an ``__init__`` that
    takes every field, by position or by keyword.  Instances keep their
    fields in their ``__dict__``, so they pickle (for ``--workers``) as
    they are.
    """
    names = tuple(cls.__annotations__)
    fields = frozenset(names)
    key = attrgetter(*names)
    setattr_ = object.__setattr__

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

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
            kwargs.update(zip(names, args))
        if kwargs.keys() != fields:
            raise TypeError(f"{cls.__name__}() takes exactly the fields {', '.join(names)}")
        # one object.__setattr__ per field keeps the values inline in the
        # instance; filling self.__dict__ instead is faster here but gives
        # every instance its own dict, which the memoized inventories keep
        for name, value in kwargs.items():
            setattr_(self, name, value)

    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    return cls
