"""Wire formats of the KV service.

Two encodings share these constants:

* the socket protocol — length-prefixed request/response frames over a
  SHRIMP stream socket, plus a streamed record format for SCAN, whose
  records a shard stages into sends of at most ``SCAN_SEND_BYTES``; and
* the replication records the shard servers exchange over NX.

The SHRIMP RPC transport needs no framing of its own (the IDL in
``server.py`` is the contract), but reuses the status codes.

All integers are little-endian, matching the rest of the simulated
machine.  Bounds are part of the protocol: keys are at most
``KEY_BOUND`` bytes, values at most ``VALUE_BOUND`` — small enough
that an RPC argument area stays a couple of pages and a replication
record always fits one NX small-message slot.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

__all__ = [
    "KEY_BOUND", "VALUE_BOUND",
    "OP_GET", "OP_PUT", "OP_DELETE", "OP_SCAN", "OP_QUIT",
    "ST_OK", "ST_MISS", "ST_ERROR", "ST_REJECTED",
    "REQ_HEADER", "RESP_HEADER", "SCAN_RECORD", "SCAN_END", "SCAN_REJECT",
    "SCAN_SEND_BYTES",
    "REPL_DATA", "REPL_STOP", "REPL_VDATA", "REPL_RECORD", "REPL_VRECORD",
    "VGET_BOUND",
    "MULTI_GET_MAX", "MG_REQ_BOUND", "MG_RESP_BOUND",
    "encode_request", "encode_response",
    "encode_scan_record", "scan_end_record", "scan_reject_record",
    "parse_scan_records",
    "encode_repl_record", "decode_repl_record",
    "encode_vrepl_record", "decode_vrepl_record",
    "encode_multi_get_request", "decode_multi_get_request",
    "encode_multi_get_response", "decode_multi_get_response",
]

KEY_BOUND = 64       # bytes; "k%06d"-style workload keys use 7
VALUE_BOUND = 1024   # bytes per value

# Batched reads: one multi_get RPC carries up to MULTI_GET_MAX keys and
# returns per-key (status, value) entries.  The bounds size the batch
# IDL's opaque slots — the v2 binding's buffer grows to fit the worst
# case, which is why batching is a separate interface version rather
# than a new procedure on v1 (v1 layouts must stay bit-identical).
MULTI_GET_MAX = 8
_MG_COUNT = struct.Struct("<H")          # number of keys / entries
_MG_KEY = struct.Struct("<H")            # key_len
_MG_ENTRY = struct.Struct("<BH")         # status, value_len
MG_REQ_BOUND = _MG_COUNT.size + MULTI_GET_MAX * (_MG_KEY.size + KEY_BOUND)
MG_RESP_BOUND = _MG_COUNT.size + MULTI_GET_MAX * (_MG_ENTRY.size + VALUE_BOUND)

# Socket request ops.
OP_GET = 1
OP_PUT = 2
OP_DELETE = 3
OP_SCAN = 4   # value_len field carries the record limit
OP_QUIT = 5   # client is done with this connection

# Status codes (shared with the RPC transport's int returns).
ST_OK = 0
ST_MISS = 1
ST_ERROR = 2
ST_REJECTED = 3  # admission control shed the request before serving it
                 # (docs/OVERLOAD.md) — retryable, unlike ST_ERROR

REQ_HEADER = struct.Struct("<BHI")    # op, key_len, value_len (or scan limit)
RESP_HEADER = struct.Struct("<BI")    # status, value_len
SCAN_RECORD = struct.Struct("<HI")    # key_len, value_len
SCAN_END = 0xFFFF                     # key_len sentinel closing a scan stream
SCAN_REJECT = 0xFFFE                  # key_len sentinel: scan shed by admission

# A shard stages a SCAN leg's records, the end sentinel last, into
# sends of at most this many bytes.  Per-message overhead dominates
# small socket messages (Figure 7), so one send per record paid it once
# per record.  The bound keeps every send below the size where
# DU-1copy overtakes the service's AU-2copy variant (one way, 2,048 B:
# 212.67 against 214.83 us; from about 3.5 KB DU-1copy is ahead).
SCAN_SEND_BYTES = 2048

# Replication record kinds (first byte of the NX payload).
REPL_DATA = 1    # upsert (value present) or delete (value_len == SCAN_END-free 0 with flag)
REPL_STOP = 2    # sender is done; one per peer at shutdown
REPL_VDATA = 3   # versioned record: REPL_RECORD grown by an (epoch,
                 # writer) dot, applied through the store's LWW guard
                 # (versioned service only — docs/REPLICATION.md)
REPL_RECORD = struct.Struct("<BBHH")  # kind, is_delete, key_len, value_len
REPL_VRECORD = struct.Struct("<BBHHII")  # ... plus epoch, writer

# A versioned GET reply: status byte, 8-byte version dot, value bytes.
VGET_BOUND = 1 + 8 + VALUE_BOUND


def encode_request(op: int, key: str, value: bytes = b"",
                   scan_limit: int = 0) -> bytes:
    """One socket request frame (header + key + value)."""
    kb = key.encode()
    if len(kb) > KEY_BOUND:
        raise ValueError("key exceeds %d bytes" % KEY_BOUND)
    if len(value) > VALUE_BOUND:
        raise ValueError("value exceeds %d bytes" % VALUE_BOUND)
    third = scan_limit if op == OP_SCAN else len(value)
    return REQ_HEADER.pack(op, len(kb), third) + kb + value


def encode_response(status: int, value: bytes = b"") -> bytes:
    """One socket response frame."""
    return RESP_HEADER.pack(status, len(value)) + value


def encode_scan_record(key: str, value: bytes) -> bytes:
    """One streamed SCAN record."""
    kb = key.encode()
    return SCAN_RECORD.pack(len(kb), len(value)) + kb + value


def scan_end_record() -> bytes:
    """The sentinel record terminating a SCAN stream."""
    return SCAN_RECORD.pack(SCAN_END, 0)


def scan_reject_record() -> bytes:
    """The sentinel record closing a SCAN the server shed (admission)."""
    return SCAN_RECORD.pack(SCAN_REJECT, 0)


def parse_scan_records(data: bytes) -> Tuple[List[Tuple[str, bytes]],
                                              Optional[int], int]:
    """The complete SCAN records at the front of ``data``.

    Returns ``(records, sentinel, used)``: the ``(key, value)`` pair of
    every whole record, the sentinel that closed the stream
    (``SCAN_END`` or ``SCAN_REJECT``; None while it goes on) and the
    bytes those took, sentinel included.  Bytes past ``used`` are the
    front of a record the next read completes.
    """
    records: List[Tuple[str, bytes]] = []
    used = 0
    while len(data) - used >= SCAN_RECORD.size:
        key_len, value_len = SCAN_RECORD.unpack_from(data, used)
        if key_len in (SCAN_END, SCAN_REJECT):
            return records, key_len, used + SCAN_RECORD.size
        key_at = used + SCAN_RECORD.size
        end = key_at + key_len + value_len
        if end > len(data):
            break
        records.append((bytes(data[key_at:key_at + key_len]).decode(),
                        bytes(data[key_at + key_len:end])))
        used = end
    return records, None, used


def encode_multi_get_request(keys: List[str]) -> bytes:
    """The packed key list of one multi_get call."""
    if len(keys) > MULTI_GET_MAX:
        raise ValueError("multi_get carries at most %d keys" % MULTI_GET_MAX)
    parts = [_MG_COUNT.pack(len(keys))]
    for key in keys:
        kb = key.encode()
        if len(kb) > KEY_BOUND:
            raise ValueError("key exceeds %d bytes" % KEY_BOUND)
        parts.append(_MG_KEY.pack(len(kb)) + kb)
    return b"".join(parts)


def decode_multi_get_request(blob: bytes) -> List[str]:
    """The key list from a multi_get request blob."""
    (count,) = _MG_COUNT.unpack_from(blob)
    off = _MG_COUNT.size
    keys = []
    for _ in range(count):
        (klen,) = _MG_KEY.unpack_from(blob, off)
        off += _MG_KEY.size
        keys.append(bytes(blob[off:off + klen]).decode())
        off += klen
    return keys


def encode_multi_get_response(entries: List[Tuple[int, Optional[bytes]]]) -> bytes:
    """The packed (status, value-or-None) entries of a multi_get reply."""
    parts = [_MG_COUNT.pack(len(entries))]
    for status, value in entries:
        body = value or b""
        parts.append(_MG_ENTRY.pack(status, len(body)) + body)
    return b"".join(parts)


def decode_multi_get_response(blob: bytes) -> List[Tuple[int, Optional[bytes]]]:
    """Per-key ``(status, value-or-None)`` entries from a reply blob."""
    (count,) = _MG_COUNT.unpack_from(blob)
    off = _MG_COUNT.size
    entries: List[Tuple[int, Optional[bytes]]] = []
    for _ in range(count):
        status, vlen = _MG_ENTRY.unpack_from(blob, off)
        off += _MG_ENTRY.size
        value = bytes(blob[off:off + vlen]) if status == ST_OK else None
        off += vlen
        entries.append((status, value))
    return entries


def encode_repl_record(kind: int, key: str = "",
                       value: Optional[bytes] = None) -> bytes:
    """One NX replication record (fits a small-message slot)."""
    kb = key.encode()
    is_delete = 1 if (kind == REPL_DATA and value is None) else 0
    body = b"" if value is None else value
    return REPL_RECORD.pack(kind, is_delete, len(kb), len(body)) + kb + body


def decode_repl_record(data: bytes) -> Tuple[int, str, Optional[bytes]]:
    """``(kind, key, value-or-None)``; None value means delete."""
    kind, is_delete, klen, vlen = REPL_RECORD.unpack(data[:REPL_RECORD.size])
    off = REPL_RECORD.size
    key = data[off:off + klen].decode()
    value = None if is_delete else data[off + klen:off + klen + vlen]
    if kind == REPL_STOP:
        value = None
    return kind, key, value


def encode_vrepl_record(key: str, version: Tuple[int, int],
                        value: Optional[bytes]) -> bytes:
    """One versioned NX replication record (still one small message)."""
    kb = key.encode()
    body = b"" if value is None else value
    return (REPL_VRECORD.pack(REPL_VDATA, 1 if value is None else 0,
                              len(kb), len(body), version[0], version[1])
            + kb + body)


def decode_vrepl_record(
        data: bytes) -> Tuple[str, Tuple[int, int], Optional[bytes]]:
    """``(key, version, value-or-None)`` from a REPL_VDATA payload."""
    _kind, is_delete, klen, vlen, epoch, writer = REPL_VRECORD.unpack(
        data[:REPL_VRECORD.size])
    off = REPL_VRECORD.size
    key = data[off:off + klen].decode()
    value = None if is_delete else data[off + klen:off + klen + vlen]
    return key, (epoch, writer), value
