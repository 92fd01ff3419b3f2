"""Schema delta extraction, application, and drift classification."""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from pipegov.core import (
    AddColumn,
    ChangeNullability,
    ChangeType,
    Column,
    DriftKind,
    DropColumn,
    Dtype,
    RenameColumn,
    Schema,
    SchemaDelta,
    SchemaError,
    apply_delta,
    classify_delta,
    schema_delta,
)

import oracles


def S(*cols: Column, version: int = 1, aliases: tuple[tuple[str, str], ...] = ()) -> Schema:
    return Schema(columns=cols, version=version, aliases=aliases)


class TestSchemaModel:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            S(Column("a", Dtype.INT32), Column("a", Dtype.INT64))

    def test_version_must_be_positive(self):
        with pytest.raises(SchemaError):
            S(Column("a", Dtype.INT32), version=0)

    def test_alias_target_must_exist(self):
        with pytest.raises(SchemaError):
            S(Column("a", Dtype.INT32), aliases=(("ghost", "old"),))

    def test_dict_round_trip(self):
        schema = S(
            Column("a", Dtype.INT32),
            Column("b", Dtype.STRING, nullable=True),
            version=3,
            aliases=(("b", "b_old"),),
        )
        assert Schema.from_dict(schema.to_dict()) == schema


class TestSchemaDelta:
    def test_identical_schemas_give_empty_delta(self):
        schema = S(Column("a", Dtype.INT32))
        assert schema_delta(schema, schema) == SchemaDelta()

    def test_single_addition(self):
        old = S(Column("a", Dtype.INT32))
        new = S(Column("a", Dtype.INT32), Column("b", Dtype.STRING, nullable=True), version=2)
        delta = schema_delta(old, new)
        assert delta.changes == (AddColumn(Column("b", Dtype.STRING, nullable=True)),)

    def test_widen_and_drop_together(self):
        old = S(Column("a", Dtype.INT32), Column("b", Dtype.STRING))
        new = S(Column("a", Dtype.INT64), version=2)
        delta = schema_delta(old, new)
        assert delta.changes == (
            ChangeType("a", Dtype.INT32, Dtype.INT64),
            DropColumn("b"),
        )

    def test_declared_rename_is_detected(self):
        old = S(Column("user", Dtype.INT64))
        new = S(Column("user_id", Dtype.INT64), version=2, aliases=(("user_id", "user"),))
        delta = schema_delta(old, new)
        assert delta.changes == (RenameColumn("user", "user_id", aliased=True),)

    def test_undeclared_rename_decomposes_to_drop_add(self):
        old = S(Column("user", Dtype.INT64))
        new = S(Column("user_id", Dtype.INT64), version=2)
        delta = schema_delta(old, new)
        assert delta.changes == (
            DropColumn("user"),
            AddColumn(Column("user_id", Dtype.INT64)),
        )

    def test_delta_dict_round_trip(self):
        delta = SchemaDelta(
            (
                RenameColumn("a", "z", aliased=True),
                ChangeType("b", Dtype.INT32, Dtype.FLOAT64),
                ChangeNullability("c", False, True),
                DropColumn("d"),
                AddColumn(Column("e", Dtype.BOOL, nullable=True)),
            )
        )
        assert SchemaDelta.from_dict(delta.to_dict()) == delta


class TestApplyDelta:
    def test_apply_unknown_column_fails(self):
        schema = S(Column("a", Dtype.INT32))
        with pytest.raises(SchemaError):
            apply_delta(schema, SchemaDelta((DropColumn("ghost"),)))

    def test_apply_add_existing_fails(self):
        schema = S(Column("a", Dtype.INT32))
        with pytest.raises(SchemaError):
            apply_delta(schema, SchemaDelta((AddColumn(Column("a", Dtype.INT64)),)))

    def test_apply_mismatched_type_change_fails(self):
        schema = S(Column("a", Dtype.STRING))
        with pytest.raises(SchemaError):
            apply_delta(schema, SchemaDelta((ChangeType("a", Dtype.INT32, Dtype.INT64),)))

    def test_empty_delta_keeps_version(self):
        schema = S(Column("a", Dtype.INT32), version=4)
        assert apply_delta(schema, SchemaDelta()).version == 4

    def test_nonempty_delta_bumps_version(self):
        schema = S(Column("a", Dtype.INT32), version=4)
        out = apply_delta(schema, SchemaDelta((ChangeNullability("a", False, True),)))
        assert out.version == 5


class TestClassifyDelta:
    def test_empty_delta_is_no_drift(self):
        assert classify_delta(SchemaDelta()).kind is DriftKind.NO_DRIFT

    def test_nullable_add_is_compatible(self):
        delta = SchemaDelta((AddColumn(Column("b", Dtype.STRING, nullable=True)),))
        assert classify_delta(delta).kind is DriftKind.BACKWARD_COMPATIBLE

    def test_non_nullable_add_is_incompatible(self):
        delta = SchemaDelta((AddColumn(Column("b", Dtype.STRING, nullable=False)),))
        assert classify_delta(delta).kind is DriftKind.INCOMPATIBLE

    def test_drop_is_incompatible_and_cited(self):
        delta = SchemaDelta((DropColumn("b"),))
        verdict = classify_delta(delta)
        assert verdict.kind is DriftKind.INCOMPATIBLE
        assert verdict.offending == (DropColumn("b"),)

    def test_narrowing_is_incompatible(self):
        delta = SchemaDelta((ChangeType("a", Dtype.INT64, Dtype.INT32),))
        assert classify_delta(delta).kind is DriftKind.INCOMPATIBLE

    def test_widening_is_compatible(self):
        for old, new in ((Dtype.INT32, Dtype.INT64), (Dtype.INT32, Dtype.FLOAT64), (Dtype.INT64, Dtype.FLOAT64)):
            delta = SchemaDelta((ChangeType("a", old, new),))
            assert classify_delta(delta).kind is DriftKind.BACKWARD_COMPATIBLE

    def test_tightening_nullability_is_incompatible(self):
        delta = SchemaDelta((ChangeNullability("a", True, False),))
        assert classify_delta(delta).kind is DriftKind.INCOMPATIBLE

    def test_relaxing_nullability_is_compatible(self):
        delta = SchemaDelta((ChangeNullability("a", False, True),))
        assert classify_delta(delta).kind is DriftKind.BACKWARD_COMPATIBLE

    def test_unaliased_rename_is_incompatible(self):
        delta = SchemaDelta((RenameColumn("a", "b", aliased=False),))
        assert classify_delta(delta).kind is DriftKind.INCOMPATIBLE

    def test_aliased_rename_is_compatible(self):
        delta = SchemaDelta((RenameColumn("a", "b", aliased=True),))
        assert classify_delta(delta).kind is DriftKind.BACKWARD_COMPATIBLE

    def test_one_breaking_change_breaks_the_delta(self):
        delta = SchemaDelta(
            (
                AddColumn(Column("c", Dtype.STRING, nullable=True)),
                DropColumn("b"),
            )
        )
        verdict = classify_delta(delta)
        assert verdict.kind is DriftKind.INCOMPATIBLE
        assert verdict.offending == (DropColumn("b"),)


# --- exhaustive enumeration against the reference table -------------------


def _schema_from_cols(cols: list[dict]) -> Schema:
    return Schema(columns=tuple(Column(c["name"], Dtype(c["dtype"]), c["nullable"]) for c in cols))


def _delta_from_dicts(changes: list[dict]) -> SchemaDelta:
    return SchemaDelta.from_dict({"changes": changes})


# Cached: TestClassifierOracle and acceptance criterion 4 assert on one run.
@functools.cache
def run_single_change_enumeration() -> tuple[int, list[str]]:
    """Classify every 1-change delta over schemas of up to 4 columns.

    Returns (cases checked, mismatch descriptions). Also validates the
    apply/extract round trip for each applicable delta.
    """

    names = ("a", "b", "c", "d")
    dtypes = ("int32", "int64", "float64", "string")
    mismatches: list[str] = []
    checked = 0
    for cols in oracles.enumerate_schemas(names, dtypes):
        old = _schema_from_cols(cols)
        for change in oracles.enumerate_single_changes(cols, ("e",), dtypes):
            delta = _delta_from_dicts([change])
            got = classify_delta(delta).kind.value
            want = oracles.oracle_classify([change])
            checked += 1
            if got != want:
                mismatches.append(f"{cols} + {change}: got {got}, want {want}")
                continue
            new = apply_delta(old, delta)
            extracted = schema_delta(old, new)
            if replace(apply_delta(old, extracted), version=new.version) != new:
                mismatches.append(f"round trip failed for {cols} + {change}")
    return checked, mismatches


@functools.cache
def run_double_change_enumeration() -> tuple[int, list[str]]:
    """Classify every applicable ordered 2-change delta over a reduced pool."""

    names = ("a", "b", "c")
    dtypes = ("int32", "int64")
    mismatches: list[str] = []
    checked = 0
    for cols in oracles.enumerate_schemas(names, dtypes):
        old = _schema_from_cols(cols)
        singles = oracles.enumerate_single_changes(cols, ("d",), dtypes)
        for first in singles:
            for second in singles:
                if first is second:
                    continue
                delta = _delta_from_dicts([first, second])
                try:
                    new = apply_delta(old, delta)
                except SchemaError:
                    continue  # the pair conflicts; not a valid delta for this schema
                got = classify_delta(delta).kind.value
                want = oracles.oracle_classify([first, second])
                checked += 1
                if got != want:
                    mismatches.append(f"{cols} + {first} + {second}: got {got}, want {want}")
                    continue
                extracted = schema_delta(old, new)
                if replace(apply_delta(old, extracted), version=new.version) != new:
                    mismatches.append(f"round trip failed for {cols} + {first} + {second}")
    return checked, mismatches


class TestClassifierOracle:
    def test_all_single_change_deltas_match_reference(self):
        checked, mismatches = run_single_change_enumeration()
        assert checked > 100_000
        assert mismatches == []

    def test_all_double_change_deltas_match_reference(self):
        checked, mismatches = run_double_change_enumeration()
        assert checked > 10_000
        assert mismatches == []
