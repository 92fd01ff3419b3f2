"""Hash-chained, append-only audit log.

Each record's hash is SHA-256 over the previous record's hash bytes
concatenated with the canonical JSON encoding of the record's other fields
(sorted keys, no insignificant whitespace). The first record chains from 32
zero bytes. Any byte-level mutation of a persisted log is therefore
detectable, and verification reports the first sequence number whose link
fails. A loaded record's ``seq``, ``tick`` and ``policy_version`` must be
JSON integers, so retyping one (``1`` to ``true``, ``1.0`` or ``"1"``)
is rejected rather than coerced back to the hashed value. A record is
serialized once, when it is made: that text is what is hashed, written
and read back.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from pipegov.core.actions import Actor

GENESIS_PREV_HASH = "0" * 64


class AuditError(ValueError):
    pass


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


PAYLOAD_KINDS = ("proposal", "decision", "outcome", "policy_change")


@dataclass(frozen=True)
class AuditRecord:
    """A sealed record: ``body_json``, the hashed fields' canonical JSON, is
    written once, and ``payload`` reads a fresh copy back from it."""

    seq: int
    tick: int
    actor: Actor
    policy_version: int
    prev_hash: str
    hash: str
    body_json: str

    @property
    def payload(self) -> dict:
        return json.loads(self.body_json)["payload"]

    def to_json_line(self) -> str:
        # Sorted, the line's keys are actor, hash, payload, policy_version,
        # prev_hash, seq, tick. The links need no escaping: append makes hex
        # digests, and a loaded record with other links fails verify_chain.
        body = self.body_json
        cut = body.index(',"payload":')
        tail = body.rindex(',"seq":')
        return (
            f'{body[:cut]},"hash":"{self.hash}"{body[cut:tail]}'
            f',"prev_hash":"{self.prev_hash}"{body[tail:]}'
        )


def _body_json(seq: int, tick: int, actor: Actor, payload: dict, policy_version: int) -> str:
    return canonical_json(
        dict(seq=seq, tick=tick, actor=actor.value, payload=payload, policy_version=policy_version)
    )


def _link(prev_hash: str, body_json: str) -> str:
    return hashlib.sha256(bytes.fromhex(prev_hash) + body_json.encode("utf-8")).hexdigest()


@dataclass
class AuditLog:
    records: list[AuditRecord] = field(default_factory=list)

    def append(self, tick: int, actor: Actor, payload: dict, policy_version: int) -> AuditRecord:
        kind = payload.get("kind")
        if kind not in PAYLOAD_KINDS:
            raise AuditError(f"payload kind must be one of {PAYLOAD_KINDS}, got {kind!r}")
        prev_hash = self.records[-1].hash if self.records else GENESIS_PREV_HASH
        seq = len(self.records) + 1
        body = _body_json(seq, tick, actor, payload, policy_version)
        hash_ = _link(prev_hash, body)
        record = AuditRecord(seq, tick, actor, policy_version, prev_hash, hash_, body)
        self.records.append(record)
        return record

    def to_jsonl(self) -> str:
        return "".join(r.to_json_line() + "\n" for r in self.records)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def verify_chain(records: Iterable[AuditRecord]) -> int | None:
    """Return the first bad sequence number, or None when the chain holds.

    Checks, per record: contiguous seq numbering from 1, the prev_hash link
    against the previous record's stored hash (genesis for the first), and
    the record's own hash recomputed from its fields.
    """

    prev_hash = GENESIS_PREV_HASH
    expected_seq = 1
    for record in records:
        if record.seq != expected_seq:
            return expected_seq
        if record.prev_hash != prev_hash:
            return record.seq
        # prev_hash is the genesis hash or a hash verified above: valid hex.
        if _link(record.prev_hash, record.body_json) != record.hash:
            return record.seq
        prev_hash = record.hash
        expected_seq += 1
    return None


def record_from_dict(raw: dict) -> AuditRecord:
    try:
        payload = raw["payload"]
        if not isinstance(payload, dict):
            raise TypeError(f"payload is {type(payload).__name__}, not an object")
        for key in ("seq", "tick", "policy_version"):
            if type(raw[key]) is not int:
                raise TypeError(f"{key} is {type(raw[key]).__name__}, not an integer")
        seq, tick, actor = raw["seq"], raw["tick"], Actor(raw["actor"])
        version, prev_hash = raw["policy_version"], str(raw["prev_hash"])
        body = _body_json(seq, tick, actor, payload, version)
        return AuditRecord(seq, tick, actor, version, prev_hash, str(raw["hash"]), body)
    except KeyError as exc:
        raise AuditError(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise AuditError(str(exc)) from exc


def load_audit_jsonl(path: str) -> tuple[list[AuditRecord], int | None, str | None]:
    """Load a persisted log and verify it.

    Returns (records, first_bad_seq, malformed). Both corruption modes
    count: a line that fails to parse as a record stops the load and
    reports the seq it should have had (one past the records read; blank
    lines do not count), and the parsed prefix is always chain-verified,
    so a mutation that still parses is reported at its sequence number too.
    The earlier of the two wins. ``malformed`` is the reason when that
    line is intact JSON but not a valid record, and None when the chain
    breaks there (a hash, link or seq mismatch, or a line that is not
    JSON). first_bad_seq is None only for a fully intact log.
    """

    records: list[AuditRecord] = []
    parse_bad: int | None = None
    malformed: str | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except json.JSONDecodeError:
                parse_bad = len(records) + 1
                break
            except AuditError as exc:
                parse_bad, malformed = len(records) + 1, str(exc)
                break
    chain_bad = verify_chain(records)
    if chain_bad is not None and (parse_bad is None or chain_bad < parse_bad):
        return records, chain_bad, None
    return records, parse_bad, malformed
