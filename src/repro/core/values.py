"""Typed discrete state: variable declarations and valuations.

UPPAAL-style models carry discrete data next to clocks (Fig. 1c of the
paper declares ``id_t list[N+1]`` and ``int[0,N] len``).  A
:class:`Declarations` object fixes the variable order, initial values and
optional integer bounds; a :class:`Valuation` is an immutable, hashable
snapshot used as part of a search-space state; an :class:`Env` is the
mutable view handed to guard/update code.
"""

from __future__ import annotations

from .errors import EvaluationError, ModelError


class Declarations:
    """An ordered table of variable declarations.

    >>> decls = Declarations()
    >>> decls.declare_int("len", 0, 0, 6)
    >>> decls.declare_array("list", [0] * 7)
    >>> decls.initial()["len"]
    0
    """

    def __init__(self):
        self._names = []
        self._index = {}         # name -> position in _names
        self._initials = []
        self._bounds = {}

    def declare_int(self, name, init=0, lo=None, hi=None):
        """Declare a (possibly bounded) integer variable."""
        self._check_fresh(name)
        if lo is not None and hi is not None and lo > hi:
            raise ModelError(f"empty range [{lo},{hi}] for {name!r}")
        self._append(name, int(init))
        if lo is not None or hi is not None:
            self._bounds[name] = (lo, hi)
        self._check_bounds(name, init)

    def declare_bool(self, name, init=False):
        """Declare a boolean variable."""
        self._check_fresh(name)
        self._append(name, bool(init))

    def declare_array(self, name, init):
        """Declare a fixed-length integer array (stored as a tuple)."""
        self._check_fresh(name)
        self._append(name, tuple(init))

    def declare_const(self, name, value):
        """Constants are plain variables nothing ever assigns to."""
        self._check_fresh(name)
        self._append(name, value)

    def _check_fresh(self, name):
        if name in self._index:
            raise ModelError(f"variable {name!r} declared twice")

    def _append(self, name, init):
        self._index[name] = len(self._names)
        self._names.append(name)
        self._initials.append(init)

    def _check_bounds(self, name, value):
        bounds = self._bounds.get(name)
        if bounds is None:
            return
        lo, hi = bounds
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            raise EvaluationError(
                f"value {value} of {name!r} outside declared range "
                f"[{lo},{hi}]")

    @property
    def names(self):
        return tuple(self._names)

    def index_of(self, name):
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise ModelError(f"unknown variable {name!r}") from None

    def initial(self):
        """The initial :class:`Valuation`."""
        return Valuation(self, tuple(self._initials))

    def merged_with(self, other):
        """A new table containing this table's variables then ``other``'s."""
        merged = Declarations()
        merged._names = list(self._names)
        merged._index = dict(self._index)
        merged._initials = list(self._initials)
        merged._bounds = dict(self._bounds)
        for name, init in zip(other._names, other._initials):
            merged._check_fresh(name)
            merged._append(name, init)
        merged._bounds.update(other._bounds)
        return merged

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._index

    def __repr__(self):
        return f"Declarations({', '.join(self._names)})"


class Valuation:
    """Immutable, hashable snapshot of the discrete variables."""

    __slots__ = ("decls", "values")

    def __init__(self, decls, values):
        self.decls = decls
        self.values = values

    def __getitem__(self, name):
        return self.values[self.decls.index_of(name)]

    def get(self, name, default=None):
        if name in self.decls:
            return self[name]
        return default

    def keys(self):
        return self.decls.names

    def env(self):
        """A mutable :class:`Env` starting from this snapshot."""
        return Env(self)

    def assign(self, name, value):
        """A new valuation with one variable changed."""
        idx = self.decls.index_of(name)
        self.decls._check_bounds(name, value)
        values = list(self.values)
        values[idx] = value
        return Valuation(self.decls, tuple(values))

    def as_dict(self):
        return dict(zip(self.decls.names, self.values))

    def __eq__(self, other):
        return (isinstance(other, Valuation) and self.values == other.values
                and self.decls is other.decls)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        items = ", ".join(
            f"{n}={v!r}" for n, v in zip(self.decls.names, self.values))
        return f"Valuation({items})"


class Env:
    """Mutable view over a valuation, used while executing updates.

    Supports the mapping protocol expected by ``Expr.eval`` and by the
    Python-callable updates of UPPAAL-style models.  Call :meth:`commit`
    to obtain the resulting immutable :class:`Valuation`.
    """

    def __init__(self, valuation):
        self._decls = valuation.decls
        self._values = list(valuation.values)

    def __getitem__(self, name):
        return self._values[self._decls.index_of(name)]

    def __setitem__(self, name, value):
        if isinstance(value, list):
            value = tuple(value)
        self._decls._check_bounds(name, value)
        self._values[self._decls.index_of(name)] = value

    def __contains__(self, name):
        return name in self._decls

    def get(self, name, default=None):
        if name in self._decls:
            return self[name]
        return default

    def keys(self):
        return self._decls.names

    def commit(self):
        return Valuation(self._decls, tuple(self._values))

    def __repr__(self):
        items = ", ".join(
            f"{n}={v!r}" for n, v in zip(self._decls.names, self._values))
        return f"Env({items})"
