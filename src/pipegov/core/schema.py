"""Column-level schema model, delta extraction, and drift classification.

A schema is an ordered list of typed columns plus a version number. Two
schema versions are compared column-by-column to produce a minimal change
list (a delta), and a delta is classified as no drift, backward compatible,
or incompatible. Classification looks only at the delta, so the same rules
apply whether the delta was extracted from two schemas or injected by a
fault generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from pipegov.core.reader import Fields, boolean, integer, list_of, map_of, one_of, string


class SchemaError(ValueError):
    """Raised for structurally invalid schemas or inapplicable deltas."""


class Dtype(str, Enum):
    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    BOOL = "bool"
    TIMESTAMP = "timestamp"


_DTYPE = one_of(Dtype)

# Type changes that existing readers tolerate: every value of the old type
# is representable in the new one. Anything not listed here is a breaking
# type change.
WIDENINGS: frozenset[tuple[Dtype, Dtype]] = frozenset(
    {
        (Dtype.INT32, Dtype.INT64),
        (Dtype.INT32, Dtype.FLOAT64),
        (Dtype.INT64, Dtype.FLOAT64),
    }
)


@dataclass(frozen=True)
class Column:
    name: str
    dtype: Dtype
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """An ordered, versioned column set.

    ``aliases`` maps a column's current name to the name it had in the
    previous version; it is how a rename is declared rather than guessed.
    """

    columns: tuple[Column, ...]
    version: int = 1
    aliases: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.version < 1:
            raise SchemaError(f"schema version must be >= 1, got {self.version}")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names: {names}")
        known = set(names)
        for new_name, _old_name in self.aliases:
            if new_name not in known:
                raise SchemaError(f"alias target {new_name!r} is not a column")

    def column_map(self) -> dict[str, Column]:
        return {c.name: c for c in self.columns}

    def alias_map(self) -> dict[str, str]:
        return dict(self.aliases)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "columns": [
                {"name": c.name, "dtype": c.dtype.value, "nullable": c.nullable}
                for c in self.columns
            ],
            "aliases": {new: old for new, old in self.aliases},
        }

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> Schema:
        with Fields(raw, path) as f:
            return cls(
                columns=f.take("columns", list_of(_column_from_dict)),
                version=f.take("version", integer),
                aliases=tuple(sorted(f.take("aliases", map_of(string), {}).items())),
            )


def _read_column(f: Fields) -> Column:
    return Column(f.take("name", string), f.take("dtype", _DTYPE), f.take("nullable", boolean))


def _column_from_dict(raw: object, path: str) -> Column:
    with Fields(raw, path) as f:
        return _read_column(f)


@dataclass(frozen=True)
class AddColumn:
    column: Column


@dataclass(frozen=True)
class DropColumn:
    name: str


@dataclass(frozen=True)
class RenameColumn:
    old_name: str
    new_name: str
    # True only when the new schema declares the rename through its alias
    # metadata. A rename nobody declared cannot be distinguished from a
    # drop+add by consumers, so it is treated as breaking.
    aliased: bool = False


@dataclass(frozen=True)
class ChangeType:
    name: str
    old_dtype: Dtype
    new_dtype: Dtype


@dataclass(frozen=True)
class ChangeNullability:
    name: str
    old_nullable: bool
    new_nullable: bool


Change = Union[AddColumn, DropColumn, RenameColumn, ChangeType, ChangeNullability]


@dataclass(frozen=True)
class SchemaDelta:
    changes: tuple[Change, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.changes)

    def to_dict(self) -> dict:
        return {"changes": [_change_to_dict(c) for c in self.changes]}

    @classmethod
    def from_dict(cls, raw: object, path: str = "") -> SchemaDelta:
        with Fields(raw, path) as f:
            return cls(changes=f.take("changes", list_of(_change_from_dict)))


def _change_to_dict(change: Change) -> dict:
    if isinstance(change, AddColumn):
        return {
            "op": "add_column",
            "name": change.column.name,
            "dtype": change.column.dtype.value,
            "nullable": change.column.nullable,
        }
    if isinstance(change, DropColumn):
        return {"op": "drop_column", "name": change.name}
    if isinstance(change, RenameColumn):
        return {
            "op": "rename_column",
            "old_name": change.old_name,
            "new_name": change.new_name,
            "aliased": change.aliased,
        }
    if isinstance(change, ChangeType):
        return {
            "op": "change_type",
            "name": change.name,
            "old_dtype": change.old_dtype.value,
            "new_dtype": change.new_dtype.value,
        }
    if isinstance(change, ChangeNullability):
        return {
            "op": "change_nullability",
            "name": change.name,
            "old_nullable": change.old_nullable,
            "new_nullable": change.new_nullable,
        }
    raise SchemaError(f"unknown change: {change!r}")


def _change_from_dict(raw: object, path: str) -> Change:
    with Fields(raw, path) as f:
        op = f.take("op", string)
        if op == "add_column":
            return AddColumn(_read_column(f))
        if op == "drop_column":
            return DropColumn(f.take("name", string))
        if op == "rename_column":
            return RenameColumn(
                f.take("old_name", string), f.take("new_name", string), f.take("aliased", boolean, False)
            )
        if op == "change_type":
            return ChangeType(f.take("name", string), f.take("old_dtype", _DTYPE), f.take("new_dtype", _DTYPE))
        if op == "change_nullability":
            return ChangeNullability(
                f.take("name", string), f.take("old_nullable", boolean), f.take("new_nullable", boolean)
            )
        raise SchemaError(f"unknown change op: {op!r}")


class DriftKind(str, Enum):
    NO_DRIFT = "no_drift"
    BACKWARD_COMPATIBLE = "backward_compatible"
    INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class DriftClass:
    kind: DriftKind
    # The changes that forced the verdict: breaking changes for an
    # incompatible delta, empty otherwise.
    offending: tuple[Change, ...] = field(default=())

    @property
    def incompatible(self) -> bool:
        return self.kind is DriftKind.INCOMPATIBLE


def schema_delta(old: Schema, new: Schema) -> SchemaDelta:
    """Extract the minimal change list taking ``old`` to ``new``.

    Columns are matched by name. A column that disappeared under one name
    and appeared under another is reported as a rename only when the new
    schema's alias metadata declares the pair; otherwise it decomposes into
    a drop and an add. Changes are emitted in a canonical order: renames,
    type changes, nullability changes, drops, adds; alphabetical within
    each group.
    """

    old_cols = old.column_map()
    new_cols = new.column_map()
    aliases = new.alias_map()

    renames: list[RenameColumn] = []
    renamed_from: dict[str, str] = {}  # old name -> new name
    for new_name in sorted(new_cols):
        if new_name in old_cols:
            continue
        old_name = aliases.get(new_name)
        if old_name and old_name in old_cols and old_name not in new_cols:
            renames.append(RenameColumn(old_name, new_name, aliased=True))
            renamed_from[old_name] = new_name

    type_changes: list[ChangeType] = []
    null_changes: list[ChangeNullability] = []
    for new_name in sorted(new_cols):
        new_col = new_cols[new_name]
        if new_name in old_cols:
            old_col = old_cols[new_name]
        elif new_name in renamed_from.values():
            old_col = old_cols[aliases[new_name]]
        else:
            continue
        if old_col.dtype is not new_col.dtype:
            type_changes.append(ChangeType(new_name, old_col.dtype, new_col.dtype))
        if old_col.nullable != new_col.nullable:
            null_changes.append(ChangeNullability(new_name, old_col.nullable, new_col.nullable))

    drops = [
        DropColumn(name)
        for name in sorted(old_cols)
        if name not in new_cols and name not in renamed_from
    ]
    adds = [
        AddColumn(new_cols[name])
        for name in sorted(new_cols)
        if name not in old_cols and name not in renamed_from.values()
    ]

    return SchemaDelta(tuple(renames) + tuple(type_changes) + tuple(null_changes) + tuple(drops) + tuple(adds))


def apply_delta(old: Schema, delta: SchemaDelta) -> Schema:
    """Replay a delta onto ``old`` and return the resulting schema.

    Surviving columns keep their relative order; added columns are appended
    in delta order. The version is ``old.version + 1`` for a non-empty
    delta and unchanged for an empty one.
    """

    cols: list[Column] = list(old.columns)
    index = {c.name: i for i, c in enumerate(cols)}
    aliases: list[tuple[str, str]] = []

    def _pos(name: str) -> int:
        if name not in index:
            raise SchemaError(f"delta references unknown column {name!r}")
        return index[name]

    for change in delta.changes:
        if isinstance(change, RenameColumn):
            i = _pos(change.old_name)
            if change.new_name in index:
                raise SchemaError(f"rename target {change.new_name!r} already exists")
            cols[i] = Column(change.new_name, cols[i].dtype, cols[i].nullable)
            index[change.new_name] = i
            del index[change.old_name]
            aliases.append((change.new_name, change.old_name))
        elif isinstance(change, ChangeType):
            i = _pos(change.name)
            if cols[i].dtype is not change.old_dtype:
                raise SchemaError(
                    f"type change on {change.name!r} expected {change.old_dtype.value}, "
                    f"schema has {cols[i].dtype.value}"
                )
            cols[i] = Column(change.name, change.new_dtype, cols[i].nullable)
        elif isinstance(change, ChangeNullability):
            i = _pos(change.name)
            if cols[i].nullable != change.old_nullable:
                raise SchemaError(f"nullability change on {change.name!r} does not match schema")
            cols[i] = Column(change.name, cols[i].dtype, change.new_nullable)
        elif isinstance(change, DropColumn):
            i = _pos(change.name)
            cols.pop(i)
            index = {c.name: j for j, c in enumerate(cols)}
        elif isinstance(change, AddColumn):
            if change.column.name in index:
                raise SchemaError(f"added column {change.column.name!r} already exists")
            cols.append(change.column)
            index[change.column.name] = len(cols) - 1
        else:
            raise SchemaError(f"unknown change: {change!r}")

    version = old.version + 1 if delta.changes else old.version
    return Schema(columns=tuple(cols), version=version, aliases=tuple(sorted(aliases)))


def _classify_change(change: Change) -> bool:
    """Return True when a single change is backward compatible."""

    if isinstance(change, AddColumn):
        return change.column.nullable
    if isinstance(change, DropColumn):
        return False
    if isinstance(change, RenameColumn):
        return change.aliased
    if isinstance(change, ChangeType):
        return (change.old_dtype, change.new_dtype) in WIDENINGS
    if isinstance(change, ChangeNullability):
        return not change.old_nullable and change.new_nullable
    raise SchemaError(f"unknown change: {change!r}")


def classify_delta(delta: SchemaDelta) -> DriftClass:
    """Classify a delta; one breaking change makes the whole delta breaking.

    Backward compatible changes are: adding a nullable column, widening a
    column type (int32->int64, int32->float64, int64->float64), relaxing a
    column from non-nullable to nullable, and a declared (aliased) rename.
    Everything else breaks existing readers.
    """

    if not delta.changes:
        return DriftClass(DriftKind.NO_DRIFT)
    offending = tuple(c for c in delta.changes if not _classify_change(c))
    if offending:
        return DriftClass(DriftKind.INCOMPATIBLE, offending)
    return DriftClass(DriftKind.BACKWARD_COMPATIBLE)
