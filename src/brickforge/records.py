"""Frozen records: what the model classes used of `dataclasses`.

`@record` gives a class with annotated fields an `__init__` that ends in
`__post_init__`, `==` and hash over the field values, the repr
`Name(field=value, ...)` and no assignment, as `@dataclass(frozen=True)`
did; a `HIDDEN` field defaults to None and is left out of all three.  Only
`__init__` is compiled, so a fresh process imports neither `dataclasses`
nor `inspect`.  A `Memo` is the one table of answers that other modules
keep: `keep(key, build)` builds each answer once.
"""

from operator import attrgetter

HIDDEN = object()  # a field default: None, left out of ==, hash and repr
_MISS = object()


def _hash(self):
    return hash(self._record_values(self))


def _repr(self):
    return self._record_repr.format(*self._record_values(self))


def _frozen(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = self._record_values
        return values(self) == values(other)
    return NotImplemented


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = tuple(n for n in names if defaults.get(n) is not HIDDEN)
    defaults.update((n, None) for n in names if n not in shown)
    params = ", ".join(f"{n}=_d[{n!r}]" if n in defaults else n for n in names)
    lines = [f"def __init__(self, {params}):", *(f" _set(self, {n!r}, {n})" for n in names)]
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    scope = {"_set": object.__setattr__, "_d": defaults}
    exec("\n".join(lines), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    get = attrgetter(*shown)
    cls._record_fields = names
    cls._record_values = get if len(shown) > 1 else staticmethod(lambda obj: (get(obj),))
    cls._record_repr = f"{cls.__qualname__}({', '.join(n + '={!r}' for n in shown)})"
    for name, fn in (("__eq__", _eq), ("__hash__", _hash), ("__repr__", _repr)):
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    """A copy of a record with some fields changed; `__post_init__` runs again."""
    for name in obj._record_fields:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)


class Memo(dict):
    """A table of answers, each built once.  `keep(key, build)` is
    `self[key]`, calling `build()` only on a miss; a build that raises
    keeps nothing.  A memo made with a bound empties itself before the
    entry that would go past it."""

    def __init__(self, bound=None):
        self.bound = bound

    def keep(self, key, build):
        value = self.get(key, _MISS)
        if value is _MISS:
            value = build()
            if self.bound is not None and len(self) >= self.bound:
                self.clear()
            self[key] = value
        return value
