"""The run record and its codec: the plain tree, the content hash and the
record file.

:class:`RunRecord` holds everything one run produced.  ``to_dict`` and
``from_dict`` convert it to and from a plain tree of dicts, scalars and
arrays; the content hash covers that tree minus its volatile values; and a
record file (format ``RECORD_FORMAT``) holds exactly the hashed bytes, framed, so
that a reader maps each array in place.  :mod:`report` writes and reads the
files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

import numpy as np

from .attacks import AttackOutcome
from .config import _SCALARS, _at, _inner, _type_hints
from .protocols import ProtocolRun

__all__ = ["RunRecord"]

# The record format: the file's version line and its header's ``format``.
RECORD_FORMAT = "dprsim-record/9"
# Formats of older record files, which are no longer read.
_RETIRED_FORMATS = tuple(f"dprsim-record/{v}" for v in range(1, 9))

# ``X`` of an ``NDArray[X]`` hint -> stored little-endian dtype (bools as bytes, the same on every platform).
_STORED = {np.bool_: "|u1", np.int8: "|i1", np.int64: "<i8", np.float64: "<f8"}
# Stored dtypes of an ``NDArray[np.unsignedinteger]``, a code array that
# keeps its own width: its dataclass checks that width against its table,
# where a cast to one width would wrap a code that does not fit.
_CODE_WIDTHS = ("|u1", "<u2", "<u4")
# Each array of a record file starts at a multiple of this many bytes from the file's start.
_ALIGN = 8
# The record's volatile fields: left out of the hash, stored in the file's trailer.
_VOLATILE = ("wall_time_s",)


@functools.cache
def _field_hints(cls: type) -> dict[str, Any]:
    hints = _type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


@functools.cache
def _scalar(hint: Any) -> Any:
    """The ``X`` of an ``NDArray[X]`` hint; None for any other hint."""
    return typing.get_args(typing.get_args(hint)[1])[0] if typing.get_origin(hint) is np.ndarray else None


def _expect(node: Any, kinds: tuple[type, ...], what: str, path: str) -> None:
    if not isinstance(node, kinds) or (isinstance(node, bool) and bool not in kinds):
        raise ValueError(f"{path}: expected {what}, got {type(node).__name__}")


def _tree(value: Any, hint: Any) -> Any:
    """Plain tree of a record value, led by its type hint: dataclasses become
    field mappings, arrays become contiguous arrays of their hint's stored
    dtype, everything else stays as it is."""
    if value is None:
        return None
    hint = _inner(hint)
    if is_dataclass(hint):
        return {name: _tree(getattr(value, name), t) for name, t in _field_hints(hint).items()}
    scalar = _scalar(hint)
    if scalar is np.unsignedinteger:
        return np.ascontiguousarray(value).astype(value.dtype.newbyteorder("<"), copy=False)
    if scalar is not None:
        arr = np.ascontiguousarray(value, dtype=scalar)
        return arr.view(np.uint8) if scalar is np.bool_ else arr.astype(_STORED[scalar], copy=False)
    if typing.get_origin(hint) is dict:
        return {k: _tree(v, typing.get_args(hint)[1]) for k, v in value.items()}
    return value


def _untree(node: Any, hint: Any, path: str) -> Any:
    """Inverse of ``_tree``, checking each node against its hint (an array: its
    stored dtype, one dimension) and each dataclass against its invariants;
    errors name the field.  Arrays are not copied: ``|u1`` is viewed as bool."""
    inner = _inner(hint)
    if node is None and inner is not hint:
        return None
    if is_dataclass(inner):
        _expect(node, (dict,), "a mapping", path)
        hints = _field_hints(inner)
        missing, unknown = [name for name in hints if name not in node], sorted(node.keys() - hints.keys())
        if missing or unknown:
            raise ValueError(f"{'missing' if missing else 'unknown'} field {_at(path, (missing or unknown)[0])!r}")
        values = {name: _untree(node[name], t, _at(path, name)) for name, t in hints.items()}
        try:
            return inner(**values)
        except ValueError as exc:
            raise ValueError(_at(path, str(exc))) from exc
    scalar = _scalar(inner)
    if scalar is not None:
        _expect(node, (np.ndarray,), "an array", path)
        stored = _CODE_WIDTHS if scalar is np.unsignedinteger else (_STORED[scalar],)
        if node.dtype.str not in stored or node.ndim != 1:
            raise ValueError(f"{path}: unsupported array dtype {node.dtype.str!r} or shape {list(node.shape)}")
        if scalar is np.bool_ and node.size and node.max() > 1:
            raise ValueError(f"{path}: byte {node.max()} is not a boolean (0 or 1)")
        if scalar is np.unsignedinteger:
            return node.astype(node.dtype.newbyteorder("="), copy=False)
        return node.view(np.bool_) if scalar is np.bool_ else node.astype(scalar, copy=False)
    if typing.get_origin(inner) is dict:
        _expect(node, (dict,), "a mapping", path)
        return {k: _untree(v, typing.get_args(inner)[1], _at(path, k)) for k, v in node.items()}
    if inner is not Any:
        _expect(node, _SCALARS[inner][0], inner.__name__, path)
    return node


def _header(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace each array of a tree by its dtype and shape; append the arrays
    to ``arrays`` in sorted-key order."""
    if isinstance(node, np.ndarray):
        arrays.append(node)
        return {"dtype": node.dtype.str, "shape": list(node.shape)}
    if isinstance(node, dict):
        return {k: _header(node[k], arrays) for k in sorted(node)}
    return node


def _map_arrays(node: Any, data: np.ndarray, offset: int, path: str) -> tuple[Any, int]:
    """Inverse of ``_header`` over a record file's bytes ``data``: each
    ``{"dtype", "shape"}`` leaf becomes a view of ``data`` at the first
    aligned offset from ``offset`` on, in sorted-key order, after padding
    that must be zero; returns the tree and the offset past its last array."""
    if isinstance(node, dict) and node.keys() == {"dtype", "shape"}:
        dtype, shape = node["dtype"], node["shape"]
        if not isinstance(dtype, str) or dtype not in (*_STORED.values(), *_CODE_WIDTHS):
            raise ValueError(f"{path}: unsupported array dtype {dtype!r}")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: expected a list of sizes as shape, got {shape!r}")
        start = offset + -offset % _ALIGN
        end = start + math.prod(shape) * np.dtype(dtype).itemsize
        if end > data.shape[0]:
            raise ValueError(f"{path}: array bytes end at byte {end}, past the end of the file ({data.shape[0]} bytes)")
        if data[offset:start].any():
            raise ValueError(f"{path}: nonzero padding before the array (arrays start at multiples of {_ALIGN} bytes)")
        return data[start:end].view(dtype).reshape(shape), end
    if isinstance(node, dict):
        out = {}
        for key in sorted(node):
            out[key], offset = _map_arrays(node[key], data, offset, _at(path, key))
        return out, offset
    return node, offset


def _canonical(header: dict[str, Any]) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")


@dataclass(eq=False)
class RunRecord:
    """Everything one run produced: the config snapshot, Bob's records and
    sifting outcome, the attack outcome when present, and the wall time.

    Each run value is stored once.  Bob's key is ``protocol_run.sifted_bob``
    only; no detector trace keeps its photocurrent, which its intensity and
    the config's blinding settings derive (``DetectorTrace.photocurrent``,
    under a blinding attack for Bob's traces, else the intensity); key bits
    (``sifted_alice``, ``sifted_bob``, ``eve_key``) are booleans.  Alice's
    material is ``protocol_run.alice_codes``: DPS phase bits, or COW symbol
    codes 0, 1 and 2 for ``0``, ``1`` and ``d``.

    A detector's intensity is coded: the sorted distinct intensities of its
    line (``levels``) and one code per slot (``level_codes``), one byte wide
    up to 256 levels, two up to 65536, else four.

    ``to_dict`` gives the record as a plain tree in which every array is
    little-endian (``|i1`` for Alice's codes and the readings, ``<i8`` for
    slots, ``<f8`` for intensity levels, ``|u1``, ``<u2``
    or ``<u4`` for level codes, ``|u1`` for booleans: clicks, modes and key
    bits); ``from_dict`` checks and inverts it, each code against its table.  The
    content hash is SHA-256 over the canonical header (that tree with sorted
    keys, compact, each array as ``{"dtype", "shape"}``, no wall time)
    followed by the raw bytes of each array in header key order; the wall
    time, the only non-reproducible field, is left out.

    A record file (``RECORD_FORMAT``, also the header's ``format``) holds
    exactly those hashed bytes between a version line and a trailer, each
    array zero-padded to start at a multiple of 8 bytes from the file's
    start::

        <RECORD_FORMAT>
        <canonical header>
        <zero padding, raw array bytes; in header key order>{"wall_time_s": <seconds>}

    so SHA-256 over the file minus its version line, the header's newline,
    the padding and the trailer is ``content_hash()``.  The trailer is one
    JSON object of the volatile values, with exactly these keys.  Run
    directories still call the file ``record.json``, although only its header
    and trailer are JSON, so that tools that open a run's record by that name
    keep working.
    """

    config: dict[str, Any]
    protocol_run: ProtocolRun
    attack: AttackOutcome | None
    wall_time_s: float

    def to_dict(self) -> dict[str, Any]:
        """The plain tree; its arrays share memory with the record's where
        the stored dtype is the in-memory one."""
        tree = _tree(self, RunRecord)
        tree["format"] = RECORD_FORMAT
        return tree

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        """The record of a plain tree, checked field by field; it keeps the
        tree's arrays where no conversion is needed."""
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != RECORD_FORMAT:
            raise ValueError(f"unsupported record format {fmt!r}")
        return _untree({k: v for k, v in d.items() if k != "format"}, cls, "")

    def _hashed(self) -> tuple[bytes, list[np.ndarray]]:
        """The canonical header and the arrays hashed after it."""
        tree = self.to_dict()
        for key in _VOLATILE:
            del tree[key]
        arrays: list[np.ndarray] = []
        return _canonical(_header(tree, arrays)), arrays

    def canonical_json(self) -> str:
        return self._hashed()[0].decode("ascii")

    def content_hash(self) -> str:
        header, arrays = self._hashed()
        digest = hashlib.sha256(header)
        for arr in arrays:
            digest.update(arr)
        return digest.hexdigest()

    @property
    def any_alarm(self) -> bool:
        return self.attack is not None and self.attack.any_alarm


def _record_chunks(record: RunRecord) -> list[Any]:
    """The byte strings of a record file, in order (see ``RunRecord``)."""
    header, arrays = record._hashed()
    chunks: list[Any] = [f"{RECORD_FORMAT}\n".encode("ascii"), header, b"\n"]
    offset = sum(map(len, chunks))
    for arr in arrays:
        chunks += [bytes(-offset % _ALIGN), arr]
        offset += -offset % _ALIGN + arr.nbytes
    trailer = json.dumps({key: getattr(record, key) for key in _VOLATILE}) + "\n"
    return [*chunks, trailer.encode("ascii")]


def _version_error(buf: Any, end: int) -> str:
    version = buf[:end].decode("ascii", "replace") if end >= 0 else None
    fmt = version
    if buf[:1] == b"{":  # /1 and /2 record files are one JSON document
        try:
            fmt = json.loads(buf[:]).get("format")
        except (ValueError, AttributeError):
            fmt = None
    if fmt in _RETIRED_FORMATS:
        return f"a {fmt} file, which is no longer read; regenerate it by re-running its scenario"
    if version is None:
        return f"missing version line {RECORD_FORMAT!r}"
    return f"unsupported record version {version!r}"


def _record_from_bytes(buf: Any) -> RunRecord:
    """Decode a record file held in ``buf``, a writable buffer with ``find`` (an
    mmap or a bytearray); its arrays are views into ``buf``, aligned where it is."""
    version_end = buf.find(b"\n", 0, 64)
    if version_end < 0 or buf[:version_end] != RECORD_FORMAT.encode("ascii"):
        raise ValueError(_version_error(buf, version_end))
    header_end = buf.find(b"\n", version_end + 1)
    if header_end < 0:
        raise ValueError("missing header line")
    text = buf[version_end + 1 : header_end]
    try:
        header = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != RECORD_FORMAT:
        raise ValueError(f"the header must be a JSON object of format {RECORD_FORMAT!r}")
    # The header is hashed as stored, so it must be the canonical text.
    if _canonical(header) != text or not header.keys().isdisjoint(_VOLATILE):
        raise ValueError("the header is not canonical (sorted keys, compact JSON, no wall_time_s)")
    start = header_end + 1
    tree, end = _map_arrays(header, np.frombuffer(buf, dtype=np.uint8), start, "")

    line, newline, extra = buf[end:].partition(b"\n")
    try:
        trailer = json.loads(line)
    except ValueError:
        trailer = None
    if not (newline and not extra and isinstance(trailer, dict)):
        found = buf.find(b'{"wall_time_s"', start)
        if found >= 0 and found != end:
            raise ValueError(f"array bytes: the header's shapes take {end - start}, the file holds {found - start}")
        if not line and not newline:
            raise ValueError("missing trailer")
        if newline and extra:
            raise ValueError(f"{len(extra)} extra bytes after the trailer")
        raise ValueError(f"malformed trailer {line[:80]!r}; expected {{\"wall_time_s\": <seconds>}}")
    missing, unknown = [k for k in _VOLATILE if k not in trailer], sorted(trailer.keys() - set(_VOLATILE))
    if missing or unknown:
        raise ValueError(f"{'missing' if missing else 'unknown'} trailer field {(missing or unknown)[0]!r}")
    tree.update(trailer)
    return RunRecord.from_dict(tree)
