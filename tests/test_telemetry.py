"""Metric series, incident records, and the hash-chained audit log."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipegov.core import Actor
from pipegov.telemetry import audit as audit_module
from pipegov.telemetry import (
    AuditError,
    AuditLog,
    GENESIS_PREV_HASH,
    Incident,
    IncidentClass,
    MetricStore,
    NonMonotonicTick,
    UnknownSeries,
    load_audit_jsonl,
    verify_chain,
)

import oracles


class TestMetricStore:
    def test_append_and_read_back(self):
        store = MetricStore()
        store.record_sample("p", "queue_depth", 5, 0.8)
        assert store.series("p", "queue_depth") == [(5, 0.8)]

    def test_non_monotonic_tick_rejected(self):
        store = MetricStore()
        store.record_sample("p", "queue_depth", 5, 1.0)
        with pytest.raises(NonMonotonicTick):
            store.record_sample("p", "queue_depth", 5, 2.0)
        with pytest.raises(NonMonotonicTick):
            store.record_sample("p", "queue_depth", 4, 2.0)

    def test_long_series_preserved_in_order(self):
        store = MetricStore()
        for t in range(100):
            store.record_sample("p", "ingress", t, float(t))
        series = store.series("p", "ingress")
        assert len(series) == 100
        assert series == sorted(series)

    def test_query_window_takes_tail(self):
        store = MetricStore()
        for t in range(1, 11):
            store.record_sample("p", "ingress", t, float(t))
        window = store.query_window("p", "ingress", 3)
        assert [t for t, _ in window] == [8, 9, 10]

    def test_query_window_larger_than_history(self):
        store = MetricStore()
        for t in range(1, 4):
            store.record_sample("p", "ingress", t, float(t))
        assert len(store.query_window("p", "ingress", 999)) == 3

    def test_query_window_respects_gaps(self):
        store = MetricStore()
        for t in (1, 5, 9, 10):
            store.record_sample("p", "ingress", t, float(t))
        window = store.query_window("p", "ingress", 5)
        assert [t for t, _ in window] == [9, 10]  # ticks in (5, 10]

    def test_rejected_sample_leaves_series_unchanged(self):
        store = MetricStore()
        store.record_sample("p", "queue_depth", 5, 1.0)
        store.record_sample("p", "queue_depth", 6, 2.0)
        with pytest.raises(NonMonotonicTick, match="tick 6 is not after last tick 6"):
            store.record_sample("p", "queue_depth", 6, 3)
        assert store.series("p", "queue_depth") == [(5, 1.0), (6, 2.0)]
        assert store.query_window("p", "queue_depth", 1) == [(6, 2.0)]
        # Ticks and values still line up: the next accepted sample reads back as written.
        store.record_sample("p", "queue_depth", 7, 4.0)
        assert store.series("p", "queue_depth") == [(5, 1.0), (6, 2.0), (7, 4.0)]
        assert store.series_keys() == [("p", "queue_depth")]

    def test_returned_series_is_a_copy(self):
        store = MetricStore()
        store.record_sample("p", "ingress", 1, 1.5)
        series = store.series("p", "ingress")
        series.append((2, 2.5))
        series[0] = (0, 0.0)
        assert store.series("p", "ingress") == [(1, 1.5)]
        store.record_sample("p", "ingress", 2, 3.5)  # the copy's tick 2 never reached the store
        assert store.series("p", "ingress") == [(1, 1.5), (2, 3.5)]

    def test_non_float_value_kept_exactly(self):
        # Values are doubles: an int reads back as float(int), -0.0 keeps
        # its sign, and a value array('d') refuses changes nothing.
        store = MetricStore()
        store.record_sample("p", "cost", 1, 0.1)
        store.record_sample("p", "cost", 2, -0.0)
        store.record_sample("p", "cost", 3, 12345678901234567890)
        store.record_sample("p", "cost", 4, 3)
        with pytest.raises(TypeError):
            store.record_sample("p", "cost", 5, "2.5")
        with pytest.raises(OverflowError):
            store.record_sample("p", "cost", 5, 10**400)
        series = store.series("p", "cost")
        assert series == [(1, 0.1), (2, -0.0), (3, float(12345678901234567890)), (4, 3.0)]
        assert all(type(v) is float for _, v in series)
        assert repr(series[1][1]) == "-0.0"
        assert repr(series[2][1]) == "1.2345678901234567e+19"
        with pytest.raises(TypeError):
            store.record_sample("p", "other", 1, "3")
        assert store.series_keys() == [("p", "cost")]

    def test_row_must_be_a_list(self):
        store = MetricStore()
        columns = (("p", "ingress"), ("cluster", "cost"))
        for tick in (1, 2):
            with pytest.raises(TypeError):
                store.record_row(columns, tick, (1.0, 2.0))
            store.record_row(columns, tick, [1.0, 2.0])
        assert store.series("cluster", "cost") == [(1, 2.0), (2, 2.0)]

    def test_float_samples_are_stored_without_per_sample_objects(self):
        # 100,000 samples: about 1.6 MB as tick and value columns, about
        # 8.8 MB as one (tick, value) tuple and boxed float per sample.
        ticks = range(10_000)
        values = [t * 0.5 for t in ticks]
        tracemalloc.start()
        try:
            store = MetricStore()
            for t, v in zip(ticks, values):
                for i in range(10):
                    store.record_sample("p", f"m{i}", t, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store.series("p", "m9")) == 10_000
        assert peak < 3_000_000, f"{peak} bytes for 100,000 samples"

    def test_unknown_series_raises(self):
        store = MetricStore()
        with pytest.raises(UnknownSeries):
            store.query_window("ghost", "ingress", 3)
        with pytest.raises(UnknownSeries):
            store.series("ghost", "ingress")


_SCOPES = ("p", "cluster")
_NAMES = ("a", "b", "c")
# Tables that recur, overlap each other and the one-column tables of
# record_sample, some spanning both scopes, and two that no call may open.
_TABLES = (
    (("p", "a"), ("p", "b")),
    (("p", "c"), ("cluster", "b"), ("p", "a")),
    (("cluster", "b"), ("p", "c")),
    (("cluster", "a"), ("cluster", "c"), ("p", "b")),
    (("cluster", "c"),),
    (),
    (("p", "a"), ("p", "a")),
)
# Mostly values array('d') takes, with -0.0, an int above 2**53, an int
# beyond the double range and a string among them.
_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 2**53 + 1, 0.5, 7, 10**400, "1.0"]),
)


@st.composite
def _store_calls(draw):
    """record_sample and record_row calls as (method, columns, tick, row).

    Ticks mostly increase; some repeat or step back, and 2**63 does not fit
    array('q'). A record_sample column is often one a wider table holds.
    """

    calls = []
    for i in range(draw(st.integers(0, 25))):
        tick = draw(st.sampled_from([2 * i] * 4 + [2 * i - 2, 2 * i - 3, 2**63]))
        if draw(st.booleans()):
            column = (draw(st.sampled_from(_SCOPES)), draw(st.sampled_from(_NAMES)))
            calls.append(("record_sample", (column,), tick, [draw(_VALUES)]))
            continue
        columns = draw(st.sampled_from(_TABLES))
        width = draw(st.sampled_from([len(columns)] * 6 + [len(columns) + 1, max(len(columns) - 1, 0)]))
        calls.append(("record_row", columns, tick, [draw(_VALUES) for _ in range(width)]))
    return calls


def _as_double(value):
    """What array('d') stores for value, or None where it refuses it."""

    if isinstance(value, str):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


class _ListModel:
    """The store's contract as a plain dict of (tick, value) lists."""

    def __init__(self):
        self.last_tick = {}  # columns -> last tick
        self.series = {}  # (scope, name) -> [(tick, float)]

    def rejects(self, columns, tick, row):
        if len(row) != len(columns) or not -(2**63) <= tick < 2**63:
            return True
        last = self.last_tick.get(columns)
        if last is None:
            taken = any(column in self.series for column in columns)
            if not columns or len(set(columns)) < len(columns) or taken:
                return True
        elif tick <= last:
            return True
        return any(_as_double(v) is None for v in row)

    def record(self, columns, tick, row):
        self.last_tick[columns] = tick
        for column, value in zip(columns, row):
            self.series.setdefault(column, []).append((tick, _as_double(value)))

    def state(self):
        return repr([
            (key, samples, [[(t, v) for t, v in samples if t > samples[-1][0] - w] for w in (0, 1, 5, 100)])
            for key, samples in sorted(self.series.items())
        ])


def _store_state(store):
    # repr tells -0.0 from 0.0 and an int from a float.
    return repr([
        (key, store.series(*key), [store.query_window(*key, w) for w in (0, 1, 5, 100)])
        for key in store.series_keys()
    ])


class TestMetricStoreModel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(calls=_store_calls())
    def test_matches_dict_of_lists_model(self, calls):
        store, model = MetricStore(), _ListModel()
        for method, columns, tick, row in calls:
            args = (*columns[0], tick, row[0]) if method == "record_sample" else (columns, tick, row)
            before = _store_state(store)
            if model.rejects(columns, tick, row):
                with pytest.raises((ValueError, TypeError, OverflowError)):
                    getattr(store, method)(*args)
                assert _store_state(store) == before
            else:
                getattr(store, method)(*args)
                model.record(columns, tick, row)
            assert _store_state(store) == model.state()


class TestIncidents:
    def test_duration_is_close_minus_open(self):
        inc = Incident("INC-0001", "p", IncidentClass.TRANSIENT_TASK_FAILURE, 200)
        assert inc.open and inc.duration() is None
        inc.resumed_tick, inc.resolution = 260, "Replay"
        assert not inc.open
        assert inc.duration() == 60

    def test_serialization_keys(self):
        inc = Incident("INC-0001", "p", IncidentClass.SCHEMA_INCOMPATIBLE, 10)
        d = inc.to_dict()
        assert d["incident_class"] == "SchemaIncompatible"
        assert d["pipeline"] == "p"
        assert d["detected_tick"] == 10
        assert d["resumed_tick"] is None


def _payload(i: int) -> dict:
    return {"kind": "outcome", "event": "anomaly_flag", "index": i}


def _filled_log(n: int) -> AuditLog:
    log = AuditLog()
    for i in range(n):
        log.append(tick=i, actor=Actor.POLICY_ENGINE, payload=_payload(i), policy_version=1)
    return log


class TestAuditLog:
    def test_genesis_record(self):
        log = _filled_log(1)
        assert log.records[0].seq == 1
        assert log.records[0].prev_hash == GENESIS_PREV_HASH

    def test_unknown_payload_kind_rejected(self):
        log = AuditLog()
        with pytest.raises(AuditError):
            log.append(tick=0, actor=Actor.OPERATOR, payload={"kind": "gossip"}, policy_version=1)

    def test_thousand_appends_verify(self):
        log = _filled_log(1000)
        assert verify_chain(log.records) is None
        # independent walk over the serialized form
        rows = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert oracles.oracle_first_bad_seq(rows) is None

    def test_implementation_hash_matches_reference(self):
        log = _filled_log(3)
        for line in log.to_jsonl().splitlines():
            row = json.loads(line)
            assert row["hash"] == oracles.oracle_record_hash(row)

    def test_value_tamper_detected_at_that_seq(self):
        log = _filled_log(20)
        rows = [json.loads(line) for line in log.to_jsonl().splitlines()]
        rows[6]["payload"]["index"] = 999  # seq 7
        assert oracles.oracle_first_bad_seq(rows) == 7

    def test_jsonl_round_trip(self, tmp_path):
        log = _filled_log(10)
        path = tmp_path / "audit.jsonl"
        log.write_jsonl(str(path))
        records, first_bad, malformed = load_audit_jsonl(str(path))
        assert first_bad is None and malformed is None
        assert len(records) == 10
        assert verify_chain(records) is None

    def test_single_byte_flip_detected(self, tmp_path):
        log = _filled_log(12)
        path = tmp_path / "audit.jsonl"
        log.write_jsonl(str(path))
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        # flip one byte inside record 7's payload
        target = bytearray(lines[6])
        pos = target.find(b'"index":6')
        assert pos != -1
        target[pos + len(b'"index":')] = ord("9")
        lines[6] = bytes(target)
        path.write_bytes(b"\n".join(lines))
        _, first_bad, _ = load_audit_jsonl(str(path))
        assert first_bad == 7

    def test_truncation_detected(self, tmp_path):
        log = _filled_log(5)
        path = tmp_path / "audit.jsonl"
        log.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        del lines[2]  # drop seq 3
        path.write_text("\n".join(lines) + "\n")
        _, first_bad, _ = load_audit_jsonl(str(path))
        assert first_bad == 3

    def test_malformed_record_is_named_unless_the_chain_breaks_first(self, tmp_path):
        log = _filled_log(5)
        rows = [json.loads(line) for line in log.to_jsonl().splitlines()]
        rows[2]["payload"] = [rows[2]["payload"]]  # seq 3: intact JSON, not a record
        path = tmp_path / "audit.jsonl"

        def write() -> None:
            lines = [json.dumps(row) for row in rows]
            lines.insert(1, "")  # skipped: the seq reported is not the line number
            path.write_text("\n".join(lines) + "\n")

        write()
        records, first_bad, malformed = load_audit_jsonl(str(path))
        assert (len(records), first_bad) == (2, 3)
        assert malformed == "payload is list, not an object"

        rows[1]["tick"] = 99  # seq 2 no longer matches its hash
        write()
        assert load_audit_jsonl(str(path))[1:] == (2, None)

    def test_every_byte_flip_is_detected(self, tmp_path):
        # Exhaustively corrupt one record: every single-byte substitution in
        # line 3 must break verification at or before seq 3.
        log = _filled_log(4)
        path = tmp_path / "audit.jsonl"
        log.write_jsonl(str(path))
        original = path.read_bytes().split(b"\n")
        line = original[2]
        for pos in range(len(line)):
            mutated = bytearray(line)
            mutated[pos] = (mutated[pos] + 1) % 128 or 32
            if bytes(mutated) == line:
                continue
            corrupted = list(original)
            corrupted[2] = bytes(mutated)
            path.write_bytes(b"\n".join(corrupted))
            _, first_bad, _ = load_audit_jsonl(str(path))
            assert first_bad is not None and first_bad <= 3, f"byte {pos} escaped detection"

    def test_mutating_the_appended_dict_changes_nothing(self):
        log = _filled_log(3)
        payload = {"kind": "outcome", "event": "anomaly_flag", "flag": {"tick": 3, "z": [1.0]}}
        log.append(tick=3, actor=Actor.MONITORING_AGENT, payload=payload, policy_version=1)
        text = log.to_jsonl()
        payload["event"] = "forged"
        payload["flag"]["z"].append(99.0)
        assert verify_chain(log.records) is None
        assert log.to_jsonl() == text
        assert log.records[-1].payload["flag"] == {"tick": 3, "z": [1.0]}

    def test_mutating_a_payload_read_back_changes_nothing(self):
        log = _filled_log(3)
        text = log.to_jsonl()
        read = log.records[1].payload
        read["index"] = 999
        read.clear()
        assert verify_chain(log.records) is None
        assert log.to_jsonl() == text
        assert log.records[1].payload == _payload(1)

    def test_writing_and_verifying_run_no_json_encoder(self, monkeypatch):
        log = AuditLog()
        # Strings that look like the keys the writer splices around.
        tricky = {"kind": "outcome", "note": ',"seq":1,"payload":{}', "unicode": "é ✓ \"q\""}
        for i in range(4):
            log.append(tick=i, actor=Actor.SCHEMA_AGENT, payload={**tricky, "i": i}, policy_version=2)

        def refuse(value):
            raise AssertionError("canonical_json called after the last append")

        monkeypatch.setattr(audit_module, "canonical_json", refuse)
        text = log.to_jsonl()
        assert verify_chain(log.records) is None
        for line in text.splitlines():
            row = json.loads(line)
            assert line == json.dumps(row, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
            assert row["hash"] == oracles.oracle_record_hash(row)
        assert oracles.oracle_first_bad_seq([json.loads(line) for line in text.splitlines()]) is None
