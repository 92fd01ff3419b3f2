"""Hash-chained, append-only audit log.

Each record's hash is SHA-256 over the previous record's hash bytes
concatenated with the canonical JSON encoding of the record's other fields
(sorted keys, no insignificant whitespace). The first record chains from 32
zero bytes. Any byte-level mutation of a persisted log is therefore
detectable, and verification reports the first sequence number whose link
fails.
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
    seq: int
    tick: int
    actor: Actor
    payload: dict
    policy_version: int
    prev_hash: str
    hash: str

    def body(self) -> dict:
        """The hashed fields: everything except the chain links."""

        return {
            "seq": self.seq,
            "tick": self.tick,
            "actor": self.actor.value,
            "payload": self.payload,
            "policy_version": self.policy_version,
        }

    def to_dict(self) -> dict:
        d = self.body()
        d["prev_hash"] = self.prev_hash
        d["hash"] = self.hash
        return d

    def to_json_line(self) -> str:
        return canonical_json(self.to_dict())


def compute_hash(prev_hash: str, body: dict) -> str:
    try:
        prev = bytes.fromhex(prev_hash)
    except ValueError as exc:
        raise AuditError(f"prev_hash is not hex: {prev_hash!r}") from exc
    if len(prev) != 32:
        raise AuditError(f"prev_hash must be 32 bytes, got {len(prev)}")
    return hashlib.sha256(prev + canonical_json(body).encode("utf-8")).hexdigest()


@dataclass
class AuditLog:
    records: list[AuditRecord] = field(default_factory=list)

    def append(self, tick: int, actor: Actor, payload: dict, policy_version: int) -> AuditRecord:
        kind = payload.get("kind")
        if kind not in PAYLOAD_KINDS:
            raise AuditError(f"payload kind must be one of {PAYLOAD_KINDS}, got {kind!r}")
        prev_hash = self.records[-1].hash if self.records else GENESIS_PREV_HASH
        seq = len(self.records) + 1
        body = {
            "seq": seq,
            "tick": tick,
            "actor": actor.value,
            "payload": payload,
            "policy_version": policy_version,
        }
        record = AuditRecord(
            seq=seq,
            tick=tick,
            actor=actor,
            payload=payload,
            policy_version=policy_version,
            prev_hash=prev_hash,
            hash=compute_hash(prev_hash, body),
        )
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
        if compute_hash(record.prev_hash, record.body()) != record.hash:
            return record.seq
        prev_hash = record.hash
        expected_seq += 1
    return None


def record_from_dict(raw: dict) -> AuditRecord:
    try:
        payload = raw["payload"]
        if not isinstance(payload, dict):
            raise TypeError(f"payload is {type(payload).__name__}, not an object")
        return AuditRecord(
            seq=int(raw["seq"]),
            tick=int(raw["tick"]),
            actor=Actor(raw["actor"]),
            payload=payload,
            policy_version=int(raw["policy_version"]),
            prev_hash=str(raw["prev_hash"]),
            hash=str(raw["hash"]),
        )
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
