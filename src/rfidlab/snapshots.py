"""Reader-database snapshots: versioned JSON documents, bit-exact round-trips.

FWCFP snapshots redact the master permutation key unless explicitly asked
to include it; a redacted snapshot can only be loaded by supplying the key
out of band, and one that carries its key takes no other. LWJX snapshots
have no master key, to write, read or be given; they carry the full
per-tag records including the old/new epochs and the M counter. Params
are built by the params class in the protocol's ``game.PROTOCOLS`` table.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .bits import BitString
from .crypto import PermKey, truncated_hash
from .fwcfp import FwcfpReaderDb
from .game import PROTOCOLS
from .lwjx import LwjxReaderDb, LwjxReaderRecord
from .session import params_from_dict

SCHEMA_VERSION = 1
_ONLY_FWCFP = "only FWCFP snapshots have a master key"


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
    p = db.params
    doc = {
        "schema": SCHEMA_VERSION,
        "protocol": "fwcfp",
        "params": p.to_dict(),
        "registry": [
            {"idt": BitString(p.id_bits, idt).render(), "k": k.render()}
            for idt, k in db.registry.items()
        ],
    }
    if include_master_key:
        doc["master_key"] = db.ks.key.hex()
    return doc


def fwcfp_db_from_doc(doc: dict, master_key: bytes | None = None) -> FwcfpReaderDb:
    params, key = _load_head(doc, "fwcfp", "registry", master_key)
    with _malformed("fwcfp snapshot"):
        db = FwcfpReaderDb(params, PermKey(key, params.alias_bits))
    for i, entry in enumerate(doc["registry"]):
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


def lwjx_db_from_doc(doc: dict, master_key: bytes | None = None) -> LwjxReaderDb:
    """Build the reader a snapshot describes; each record's h_id_new must be H(id).

    h_id_old is not checked: it hashes the old identifier, which G, being
    one-way, does not give back from the current one.
    """
    params, _ = _load_head(doc, "lwjx", "records", master_key)
    db = LwjxReaderDb(params)
    h = params.h
    for i, entry in enumerate(doc["records"]):
        with _malformed(f"record {i}"):
            rec = LwjxReaderRecord(
                id=BitString.parse(entry["id"]),
                h_id_new=BitString.parse(entry["h_id_new"]),
                h_id_old=_parse_opt(entry["h_id_old"]),
                k_new=BitString.parse(entry["k_new"]),
                k_old=_parse_opt(entry["k_old"]),
                m=entry["m"],
            )
            db.add_record(rec)  # checks the widths first
            if rec.h_id_new.value != truncated_hash(h, rec.id.width, rec.id.value):
                raise ValueError(f"h_id_new {rec.h_id_new.render()} is not H(id)")
    return db


def _load_head(doc: dict, protocol: str, entries: str, master_key: bytes | None):
    """The params and master key to load with, once the schema, protocol and entries hold.

    The key is the document's own or, for a redacted FWCFP document, the
    one passed; it is None for LWJX.
    """
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SnapshotError("not a snapshot document")
    schema = doc["schema"]
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SnapshotError(f"unsupported snapshot schema {schema!r}")
    if doc.get("protocol") != protocol:
        raise SnapshotError(
            f"snapshot is for {doc.get('protocol')!r}, expected {protocol!r}"
        )
    if type(doc.get(entries)) is not list:
        raise SnapshotError(f"snapshot {entries} must be an array")
    with _malformed(f"{protocol} snapshot"):
        params = params_from_dict(PROTOCOLS[protocol].params, doc["params"])
    if "master_key" in doc:
        if master_key is not None:
            raise SnapshotError("snapshot carries its master key; pass no other")
        with _malformed(f"{protocol} snapshot"):
            master_key = bytes.fromhex(doc["master_key"])
    if protocol != "fwcfp" and master_key is not None:
        raise SnapshotError(_ONLY_FWCFP)
    if protocol == "fwcfp" and master_key is None:
        raise SnapshotError("snapshot redacts the master key; pass it explicitly to load")
    return params, master_key


def db_to_doc(db, *, include_master_key: bool = False) -> dict:
    """The snapshot document of either protocol's reader; only FWCFP's has a master key."""
    if isinstance(db, FwcfpReaderDb):
        return fwcfp_db_to_doc(db, include_master_key)
    if include_master_key:
        raise SnapshotError(_ONLY_FWCFP)
    if isinstance(db, LwjxReaderDb):
        return lwjx_db_to_doc(db)
    raise SnapshotError(f"cannot snapshot {type(db).__name__}")


def snapshot_db(db, path, *, include_master_key: bool = False):
    doc = db_to_doc(db, include_master_key=include_master_key)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_doc(path):
    """Parse a snapshot file; text that is not UTF-8 JSON is a SnapshotError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"malformed snapshot: {exc.msg}") from None
        except UnicodeDecodeError:
            raise SnapshotError("malformed snapshot: not UTF-8 text") from None
        except RecursionError:
            raise SnapshotError("malformed snapshot: nested too deeply") from None
        except ValueError:
            # the only other ValueError of a parse: an integer literal over
            # the interpreter's digit limit
            raise SnapshotError("malformed snapshot: integer too long") from None


def db_from_doc(doc, *, master_key: bytes | None = None):
    """Build the reader a parsed snapshot document describes."""
    protocol = doc.get("protocol") if isinstance(doc, dict) else None
    if protocol == "fwcfp":
        return fwcfp_db_from_doc(doc, master_key)
    if protocol == "lwjx":
        return lwjx_db_from_doc(doc, master_key)
    raise SnapshotError(f"unknown snapshot protocol {protocol!r}")


def load_db(path, *, master_key: bytes | None = None):
    return db_from_doc(read_doc(path), master_key=master_key)
