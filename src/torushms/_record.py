"""Frozen records: immutable value classes without `dataclasses`.

A record is a class whose annotations name its fields, in order; a
class attribute with a field's name is that field's default.  `record`
gives the class the methods `@dataclass(frozen=True)` would give it,
with the same behaviour:

  * ``__init__`` taking the fields by position or keyword, filling
    defaults, then calling ``__post_init__`` if the class has one;
  * ``__repr__`` as ``QualName(f=<repr>, g=<repr>)``;
  * ``__eq__`` comparing field tuples of two instances of one class
    (``NotImplemented`` for any other class), and ``__hash__`` the hash
    of the field tuple, so equal records hash alike and set and dict
    order is what the dataclass gave;
  * ``__setattr__`` and ``__delattr__`` raising `FrozenRecordError`;
  * ``__getstate__`` and ``__setstate__`` for `pickle` and `copy`: the
    field tuple, set back without ``__init__`` or ``__setattr__``.

The methods are closures over the field names; nothing is compiled.
`dataclasses` compiles six methods per class and imports `inspect`,
which every CLI process, one per answer, would pay for at start-up.
A closure costs 0.2 to 0.6 us a call more than a compiled method, so a
method the class writes itself is kept: the classes built or hashed
thousands of times per K-theory sweep write their own ``__init__`` or
``__hash__``.
"""

from operator import attrgetter

__all__ = ["FrozenRecordError", "record"]

_set = object.__setattr__


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


def _refuse_set(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen record (see the module docstring)."""
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    qualname = cls.__qualname__
    tail = tuple(defaults.values())
    if names[len(names) - len(tail):] != tuple(defaults):
        raise TypeError(f"{qualname}: fields with defaults must come last")
    if len(names) == 1:
        one = attrgetter(names[0])
        values = lambda self: (one(self),)  # noqa: E731
    else:
        values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    text = qualname + "(" + ", ".join(f"{n}=%r" for n in names) + ")"

    def bind(args, kwargs):
        missing = len(names) - len(args)
        if not kwargs and 0 < missing <= len(tail):
            return args + tail[len(tail) - missing:]
        if missing < 0:
            raise TypeError(
                f"{qualname}() takes {len(names)} arguments, {len(args)} given"
            )
        out = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                out.append(kwargs.pop(name))
            elif name in defaults:
                out.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{qualname}() got an unexpected or repeated argument "
                f"{next(iter(kwargs))!r}"
            )
        return out

    def __setstate__(self, state):
        for name, value in zip(names, state):
            _set(self, name, value)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        __setstate__(self, args)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return text % values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __getstate__(self):
        return values(self)

    methods = {
        "__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
        "__hash__": __hash__, "__setattr__": _refuse_set,
        "__delattr__": _refuse_del, "__getstate__": __getstate__,
        "__setstate__": __setstate__,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
