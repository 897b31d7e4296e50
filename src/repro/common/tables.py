"""Struct-of-arrays predictor table storage.

Every SRAM-like structure in the simulator — VTAGE/D-VTAGE components,
the LVT, TAGE banks, the BTB, BeBoP's block tables — is a *bank*: a
fixed number of entries, each made of a few narrow typed fields (tag,
value, stride, confidence, useful, useful_gen).  Modelling an entry as
a Python object means every probe pays attribute lookups and every
bank is a spray of heap objects; a bank is really a handful of
parallel columns.

:class:`TableBank` is that columnar store: one plain Python list per
field.  A bank is declared as a tuple of :class:`Field` specs and
read/written through flat columns:

* ``col(name)`` returns the column list, whose identity is stable for
  the bank's lifetime — hot paths cache these references once in
  ``__init__`` and index them directly.  Vector fields (``width > 1``)
  are stored flat; callers address ``entry * width + lane``.
* ``read``/``write``/``read_vec``/``write_vec``/``probe`` are the
  convenience ops for cold paths and tests; ``bulk_reset`` and
  ``fill`` restore defaults without rebinding columns.

Value conventions (checked on field defaults):

* signed fields (the default) hold values in ``[-2**63, 2**63)`` —
  tags use ``-1`` as the empty sentinel;
* ``unsigned`` fields hold values in ``[0, 2**64)`` — 64-bit data
  values and strides are stored pre-masked (``to_unsigned``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U64_MAX = (1 << 64) - 1


class Field(NamedTuple):
    """One typed column of a bank.

    ``width > 1`` declares a vector field: each entry holds ``width``
    lanes, stored flat (``entry * width + lane``).  ``unsigned`` fields
    store 64-bit data values in ``[0, 2**64)``; signed fields (tags,
    counters) store values in ``[-2**63, 2**63)``.
    """

    name: str
    default: int = 0
    width: int = 1
    unsigned: bool = False


class TableBank:
    """``entries`` rows of typed fields, one Python list per field."""

    def __init__(self, entries: int, fields: Sequence[Field]) -> None:
        if entries <= 0:
            raise ValueError(f"bank needs a positive entry count, got {entries}")
        fields = tuple(fields)
        if not fields:
            raise ValueError("bank needs at least one field")
        self._by_name: dict[str, Field] = {}
        for field in fields:
            if field.name in self._by_name:
                raise ValueError(f"duplicate field name {field.name!r}")
            self._by_name[field.name] = field
            if field.width < 1:
                raise ValueError(
                    f"field {field.name!r} width must be >= 1, got {field.width}"
                )
            lo, hi = (0, _U64_MAX) if field.unsigned else (_I64_MIN, _I64_MAX)
            if not lo <= field.default <= hi:
                raise ValueError(
                    f"field {field.name!r} default {field.default} out of range"
                )
        self.entries = entries
        self.fields = fields
        self._cols = {
            field.name: [field.default] * (entries * field.width)
            for field in fields
        }

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(
                f"bank has no field {name!r}; fields: "
                + ", ".join(self._by_name)
            ) from None

    # -- hot-path access -----------------------------------------------------

    def col(self, name: str) -> list[int]:
        """The flat column list for ``name``, stable identity.

        Mutations through the returned list are the bank's state; the
        bank never rebinds a column, so cached references stay valid
        across ``bulk_reset``/``fill``.
        """
        try:
            return self._cols[name]
        except KeyError:
            self.field(name)  # raises the informative ValueError
            raise

    # -- convenience ops -----------------------------------------------------

    def _scalar(self, name: str, op: str) -> list[int]:
        if self.field(name).width != 1:
            raise ValueError(f"field {name!r} is a vector; {op}")
        return self._cols[name]

    def read(self, name: str, index: int) -> int:
        """Scalar field value at ``index``."""
        return self._scalar(name, "use read_vec")[index]

    def write(self, name: str, index: int, value: int) -> None:
        self._scalar(name, "use write_vec")[index] = value

    def read_vec(self, name: str, index: int) -> list[int]:
        """All lanes of vector field ``name`` at entry ``index`` (a copy)."""
        width = self.field(name).width
        base = index * width
        return self._cols[name][base:base + width]

    def write_vec(self, name: str, index: int, values: Sequence[int]) -> None:
        width = self.field(name).width
        if len(values) != width:
            raise ValueError(
                f"field {name!r} has width {width}, got {len(values)} values"
            )
        base = index * width
        self._cols[name][base:base + width] = values

    def probe(self, name: str, index: int, expected: int) -> bool:
        """Tag-match check: does scalar field ``name`` at ``index`` equal
        ``expected``?"""
        return self._scalar(name, "probe is scalar")[index] == expected

    def fill(self, name: str, value: int) -> None:
        """Set every lane of ``name`` to ``value``, in place."""
        col = self.col(name)
        col[:] = [value] * len(col)

    def bulk_reset(self) -> None:
        """Restore every field to its declared default, in place."""
        for field in self.fields:
            self.fill(field.name, field.default)

    # -- introspection -------------------------------------------------------

    def dump(self) -> dict[str, list[int]]:
        """Full state as fresh lists (tests / state comparison)."""
        return {field.name: list(self._cols[field.name]) for field in self.fields}
