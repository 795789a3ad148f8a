"""The base of rfidlab's value classes: messages, verdicts, params and reports.

A record class declares its fields as class annotations, in order, with
a field's default, if it has one, as the annotation's value. :class:`Record`
gives every record, once for all classes:

- ``_fields``, the field names in declaration order, ``_names``, the
  same names as a frozenset, and ``_replace``, which builds a copy with
  some fields changed through the constructor;
- a constructor that takes the fields, by position or keyword, and
  stores them, unless the class writes its own ``__init__`` to check
  them or to derive values from them;
- equality that holds only between records of one class, over the
  compared fields: all of them, less the names a class passes as
  ``uncompared`` (``class V(FrozenRecord, uncompared=("x",))``);
- the ``Name(field=value, ...)`` repr over every field;
- pickling and copying through the constructor, so values the
  constructor derives from the fields are derived again.

A :class:`FrozenRecord` also refuses any assignment or deletion with
:class:`FrozenRecordError` and hashes its compared fields; its
constructor stores each field, and any value derived from them, with
``setfield``. Records keep an instance ``__dict__``, so a constructor
costs as many stores as the class has fields and a message's
``fields()`` can copy it.

This replaces ``dataclasses``: importing it (which pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``) and generating each class's methods
took about a third of a cold import of rfidlab.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__  # a frozen record's constructor stores with this


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen record."""


def _key_getter(names: tuple[str, ...]) -> attrgetter:
    """What a record compares and hashes: its value of one field, else a tuple.

    A record with no compared fields gives its class, which is the same
    for every record it is compared with. An attrgetter is no descriptor,
    so ``record._key`` is the getter itself.
    """
    return attrgetter(*names) if names else attrgetter("__class__")


def _constructor(cls):
    """The ``__init__`` that stores each of the class's fields, compiled from source.

    Compiled once per class, it costs what a written one does; an
    ``__init__(self, *args)`` looping over ``_fields`` made a three-field
    message about 60% slower to build. A field's default is the class
    attribute of its name, which is then deleted: while a class attribute
    shares a field's name, every frozen store to that field is slower.
    """
    fields = cls._fields
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    for name in defaults:
        delattr(cls, name)
    params = ", ".join(f"{n}=defaults[{n!r}]" if n in defaults else n for n in fields)
    store = "setfield(self, {0!r}, {0})" if issubclass(cls, FrozenRecord) else "self.{0} = {0}"
    body = "".join(f"    {store.format(name)}\n" for name in fields)
    source = f"def __init__(self, {params}):\n{body}"
    namespace = {"__name__": cls.__module__, "setfield": setfield, "defaults": defaults}
    exec(source, namespace)  # a default before a field without one is a SyntaxError
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """A mutable record: unhashable, as it compares by value."""

    _fields = ()  # the field names in declaration order

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        # a class without annotations of its own reads {} here (3.10+)
        cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(cls._fields)
        cls._key = _key_getter(tuple(n for n in cls._fields if n not in uncompared))
        if cls._fields and "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A new record of this class: these fields changed, the others as they are."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class FrozenRecord(Record):
    """An immutable record, hashed over the fields it compares."""

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._key(self))
