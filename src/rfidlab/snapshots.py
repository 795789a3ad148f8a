"""Reader-database snapshots: versioned JSON documents, bit-exact round-trips.

FWCFP snapshots redact the master permutation key unless explicitly asked
to include it; a redacted snapshot can only be loaded by supplying the key
out of band. LWJX snapshots carry the full per-tag records including the
old/new epochs and the M counter.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .bits import BitString
from .crypto import PermKey
from .fwcfp import FwcfpParams, FwcfpReaderDb
from .lwjx import LwjxParams, LwjxReaderDb, LwjxReaderRecord
from .session import params_from_dict

SCHEMA_VERSION = 1


class SnapshotError(ValueError):
    pass


@contextmanager
def _malformed(where: str):
    """Turn a malformed field met while loading into a SnapshotError."""
    try:
        yield
    except SnapshotError:
        raise
    except KeyError as exc:
        raise SnapshotError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"{where}: {exc}") from None


def _render_opt(value: BitString | None):
    return None if value is None else value.render()


def _parse_opt(value):
    return None if value is None else BitString.parse(value)


def fwcfp_db_to_doc(db: FwcfpReaderDb, include_master_key: bool = False) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "protocol": "fwcfp",
        "params": db.params.to_dict(),
        "registry": [
            {"idt": idt.render(), "k": k.render()} for idt, k in db.registry.items()
        ],
    }
    if include_master_key:
        doc["master_key"] = db.ks.key.hex()
    return doc


def fwcfp_db_from_doc(doc: dict, master_key: bytes | None = None) -> FwcfpReaderDb:
    _validate(doc, "fwcfp")
    with _malformed("fwcfp snapshot"):
        params = params_from_dict(FwcfpParams, doc["params"])
        if "master_key" in doc:
            key = bytes.fromhex(doc["master_key"])
        elif master_key is not None:
            key = master_key
        else:
            raise SnapshotError(
                "snapshot redacts the master key; pass it explicitly to load"
            )
        db = FwcfpReaderDb(params, PermKey(key, params.alias_bits))
        entries = list(doc["registry"])
    for i, entry in enumerate(entries):
        with _malformed(f"registry entry {i}"):
            db.register(BitString.parse(entry["idt"]), BitString.parse(entry["k"]))
    return db


def lwjx_db_to_doc(db: LwjxReaderDb) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "protocol": "lwjx",
        "params": db.params.to_dict(),
        "records": [
            {
                "id": rec.id.render(),
                "h_id_new": rec.h_id_new.render(),
                "h_id_old": _render_opt(rec.h_id_old),
                "k_new": rec.k_new.render(),
                "k_old": _render_opt(rec.k_old),
                "m": rec.m,
            }
            for rec in db.records
        ],
    }


def lwjx_db_from_doc(doc: dict) -> LwjxReaderDb:
    _validate(doc, "lwjx")
    with _malformed("lwjx snapshot"):
        db = LwjxReaderDb(params_from_dict(LwjxParams, doc["params"]))
        entries = list(doc["records"])
    for i, entry in enumerate(entries):
        with _malformed(f"record {i}"):
            db.add_record(
                LwjxReaderRecord(
                    id=BitString.parse(entry["id"]),
                    h_id_new=BitString.parse(entry["h_id_new"]),
                    h_id_old=_parse_opt(entry["h_id_old"]),
                    k_new=BitString.parse(entry["k_new"]),
                    k_old=_parse_opt(entry["k_old"]),
                    m=entry["m"],
                )
            )
    return db


def _validate(doc: dict, protocol: str):
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SnapshotError("not a snapshot document")
    if doc["schema"] != SCHEMA_VERSION:
        raise SnapshotError(f"unsupported snapshot schema {doc['schema']!r}")
    if doc.get("protocol") != protocol:
        raise SnapshotError(
            f"snapshot is for {doc.get('protocol')!r}, expected {protocol!r}"
        )


def snapshot_db(db, path, *, include_master_key: bool = False):
    if isinstance(db, FwcfpReaderDb):
        doc = fwcfp_db_to_doc(db, include_master_key)
    elif isinstance(db, LwjxReaderDb):
        doc = lwjx_db_to_doc(db)
    else:
        raise SnapshotError(f"cannot snapshot {type(db).__name__}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_db(path, *, master_key: bytes | None = None):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"malformed snapshot: {exc.msg}") from None
    protocol = doc.get("protocol") if isinstance(doc, dict) else None
    if protocol == "fwcfp":
        return fwcfp_db_from_doc(doc, master_key)
    if protocol == "lwjx":
        return lwjx_db_from_doc(doc)
    raise SnapshotError(f"unknown snapshot protocol {protocol!r}")
