"""The strict document reader: typed fields, no coercion, unknown keys
rejected at every depth, and errors that name the field's path."""

from __future__ import annotations

import pytest

from pipegov.agents import CandidateAction
from pipegov.core.reader import (
    Fields,
    MissingField,
    OutOfRange,
    ReadError,
    UnknownKey,
    integer,
    list_of,
    number,
    string,
)
from pipegov.policy import PolicyError, parse_policy
from pipegov.policy import OutOfRange as PolicyOutOfRange
from pipegov.policy import UnknownKey as PolicyUnknownKey
from pipegov.scenario import ScenarioError, default_policy_dict, parse_scenario

from conftest import MALFORMED_CANONICAL, malformed_canonical


def _point(raw: object, path: str = "") -> tuple[int, float, tuple[str, ...]]:
    with Fields(raw, path) as f:
        return f.take("x", integer), f.take("y", number, 0.0), f.take("tags", list_of(string), ())


class TestValues:
    @pytest.mark.parametrize("value", [True, 3.0, 3.7, "3", None])
    def test_integer_takes_only_a_json_integer(self, value):
        with pytest.raises(OutOfRange, match="at: must be an integer"):
            integer(value, "at")

    def test_number_takes_an_integer_and_returns_a_float(self):
        assert type(number(3, "at")) is float
        with pytest.raises(OutOfRange, match="must be a number"):
            number(False, "at")

    def test_a_string_is_not_a_list(self):
        with pytest.raises(OutOfRange, match=r"^p\.tags: must be a list, got 'ab'$"):
            _point({"x": 1, "tags": "ab"}, "p")


class TestFields:
    def test_defaults_fill_absent_keys(self):
        assert _point({"x": 2}) == (2, 0.0, ())

    def test_unknown_key_is_named_with_its_path(self):
        with pytest.raises(UnknownKey) as info:
            _point({"x": 2, "z": 1}, "points[3]")
        assert info.value.path == "points[3].z"

    def test_missing_key_is_named_with_its_path(self):
        with pytest.raises(MissingField, match=r"^a\.x: missing required field$"):
            _point({}, "a")

    def test_null_only_where_the_default_is_none(self):
        with Fields({"a": None}) as f:
            assert f.take("a", string, None) is None
        with pytest.raises(OutOfRange, match="a: must be a string, got None"):
            with Fields({"a": None}) as f:
                f.take("a", string, "")

    def test_non_object_is_rejected(self):
        with pytest.raises(OutOfRange, match=r"^p: must be a mapping"):
            _point([1], "p")

    def test_other_value_errors_get_the_object_path(self):
        with pytest.raises(OutOfRange, match=r"^p\[0\]: bad point$"):
            with Fields({}, "p[0]"):
                raise ValueError("bad point")


@pytest.mark.parametrize("keys, value", MALFORMED_CANONICAL)
def test_parse_scenario_names_the_malformed_field(keys, value):
    doc, field = malformed_canonical(keys, value)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    assert str(info.value).startswith(f"{field}: "), info.value


class TestPolicyErrors:
    def test_bool_version_is_out_of_range(self):
        doc = default_policy_dict()
        doc["version"] = True
        with pytest.raises(PolicyOutOfRange) as info:
            parse_policy(doc)
        assert info.value.path == "version"
        assert isinstance(info.value, ReadError)

    def test_unknown_key_in_a_list_entry(self):
        doc = default_policy_dict()
        doc["actions"]["approval_required"][0]["why"] = "audit"
        with pytest.raises(PolicyUnknownKey) as info:
            parse_policy(doc)
        assert info.value.path == "actions.approval_required[0].why"

    def test_string_where_a_list_is_expected(self):
        doc = default_policy_dict()
        doc["recovery"]["allowed_strategies"] = "Replay"
        with pytest.raises(PolicyError, match=r"^recovery\.allowed_strategies: must be a list"):
            parse_policy(doc)


def test_candidate_null_rationale_is_rejected():
    with pytest.raises(ValueError, match="rationale: must be a string, got None"):
        CandidateAction.from_dict({"kind": "Halt", "pipeline": "p", "rationale": None})
