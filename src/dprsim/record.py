"""The run record and its codec: the plain tree, the content hash and the
record file.

:class:`RunRecord` holds everything one run produced.  ``to_dict`` and
``from_dict`` convert it to and from a plain tree of dicts, scalars and
arrays; the content hash covers that tree minus its volatile values, each
array by its own SHA-256 digest; and a record file (format ``RECORD_FORMAT``)
holds the header and the array bytes that those digests cover, framed, so
that a reader maps each array in place.  :mod:`report` writes and reads the
files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
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
# Array bytes from which a helper thread hashes about half of a record's
# arrays.  Starting and joining one took about 90 us (2 CPUs, Python 3.11),
# the time SHA-256 takes over 110 kB: the split broke even at about 400 kB
# of arrays and saved 30% of the hash at 1 MB.
_SPLIT_BYTES = 1 << 20


@functools.cache
def _walk(hint: Any) -> tuple[str, bool, Any]:
    """How the codec walks a value of type ``hint``: its kind, whether it may be None and what
    the kind needs: a dataclass (``"record"``) its class and field hints, in field order and
    sorted; an ``"array"`` the ``X`` of its ``NDArray[X]``; a ``"map"`` its value hint; a
    ``"scalar"`` its type.  A mapping of ``Any`` (the config) is ``"plain"``: no array."""
    inner = _inner(hint)
    origin, args = typing.get_origin(inner), typing.get_args(inner)
    if is_dataclass(inner):
        hints = {f.name: _type_hints(inner)[f.name] for f in fields(inner)}
        return "record", inner is not hint, (inner, hints, sorted(hints.items()))
    if origin is np.ndarray:
        return "array", inner is not hint, typing.get_args(args[1])[0]
    if origin is dict:
        return ("plain" if args[1] is Any else "map"), inner is not hint, args[1]
    return "scalar", inner is not hint, inner


def _expect(node: Any, kinds: tuple[type, ...], what: str, path: str) -> None:
    if not isinstance(node, kinds) or (isinstance(node, bool) and bool not in kinds):
        raise ValueError(f"{path}: expected {what}, got {type(node).__name__}")


def _encode(value: Any, hint: Any, arrays: list[np.ndarray] | None) -> Any:
    """The plain tree of a record value, led by its type hint: dataclasses
    become field mappings, arrays contiguous arrays of their stored dtype.
    With ``arrays`` given, the canonical header instead: its keys sorted,
    each array appended to ``arrays`` and standing as its ``{"dtype", "shape"}``."""
    kind, _, arg = _walk(hint)
    if value is None or kind == "scalar":
        return value
    if kind == "record":
        items = arg[1].items() if arrays is None else arg[2]
        return {name: _encode(getattr(value, name), t, arrays) for name, t in items}
    if kind in ("map", "plain"):  # the config is copied, each of its values kept as it is
        return {k: _encode(value[k], arg, arrays) for k in (value if arrays is None else sorted(value))}
    if arg is np.unsignedinteger:
        arr = np.ascontiguousarray(value).astype(value.dtype.newbyteorder("<"), copy=False)
    else:
        arr = np.ascontiguousarray(value, dtype=arg)
        arr = arr.view(np.uint8) if arg is np.bool_ else arr.astype(_STORED[arg], copy=False)
    if arrays is None:
        return arr
    arrays.append(arr)
    return {"dtype": arr.dtype.str, "shape": list(arr.shape)}


def _decode(node: Any, hint: Any, data: np.ndarray | None, offset: int, path: str) -> tuple[Any, int]:
    """Inverse of ``_encode``: the value and the offset past its last array.  Each node is
    checked against its hint (an array: its stored dtype, one dimension) and each dataclass
    against its invariants; errors name the field.  Arrays are not copied: ``|u1`` is viewed
    as bool.  With ``data`` given, a record file's bytes, ``node`` is a header in sorted key
    order: each ``{"dtype", "shape"}`` becomes a view of ``data`` at the first aligned offset
    from ``offset`` on, after padding that must be zero.  The hint ``Any`` frames alone."""
    if data is not None and isinstance(node, dict) and node.keys() == {"dtype", "shape"}:
        dtype, shape = node["dtype"], node["shape"]
        if not isinstance(dtype, str) or dtype not in (*_STORED.values(), *_CODE_WIDTHS):
            raise ValueError(f"{path}: unsupported array dtype {dtype!r}")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: expected a list of sizes as shape, got {shape!r}")
        start = offset + -offset % _ALIGN
        end = start + math.prod(shape) * np.dtype(dtype).itemsize
        if end > data.shape[0]:
            raise ValueError(f"{path}: array bytes end at byte {end}, past the end of the file ({data.shape[0]} bytes)")
        if data[offset:start].tobytes() != bytes(start - offset):
            raise ValueError(f"{path}: nonzero padding before the array (arrays start at multiples of {_ALIGN} bytes)")
        node, offset = data[start:end].view(dtype).reshape(shape), end
    kind, optional, arg = _walk(hint)
    if node is None and optional:
        return None, offset
    if kind in ("record", "map", "plain"):
        _expect(node, (dict,), "a mapping", path)
    if kind == "record" and node.keys() != arg[1].keys():
        missing, unknown = [name for name in arg[1] if name not in node], sorted(node.keys() - arg[1].keys())
        raise ValueError(f"{'missing' if missing else 'unknown'} field {_at(path, (missing or unknown)[0])!r}")
    if kind in ("record", "map"):
        out = {}
        for key, child in node.items():
            out[key], offset = _decode(child, arg[1][key] if kind == "record" else arg, data, offset, _at(path, key))
        if kind == "map":
            return out, offset
        try:
            return arg[0](**out), offset
        except ValueError as exc:
            raise ValueError(_at(path, str(exc))) from exc
    if kind == "array":
        _expect(node, (np.ndarray,), "an array", path)
        stored = _CODE_WIDTHS if arg is np.unsignedinteger else (_STORED[arg],)
        if node.dtype.str not in stored or node.ndim != 1:
            raise ValueError(f"{path}: unsupported array dtype {node.dtype.str!r} or shape {list(node.shape)}")
        if arg is np.bool_ and node.size and node.max() > 1:
            raise ValueError(f"{path}: byte {node.max()} is not a boolean (0 or 1)")
        if arg is np.unsignedinteger:
            return node.astype(node.dtype.newbyteorder("="), copy=False), offset
        return (node.view(np.bool_) if arg is np.bool_ else node.astype(arg, copy=False)), offset
    if kind == "scalar" and arg is Any:
        for key, child in node.items() if isinstance(node, dict) else ():
            offset = _decode(child, Any, data, offset, _at(path, key))[1]
    elif kind == "scalar":
        _expect(node, _SCALARS[arg][0], arg.__name__, path)
    return (dict(node) if kind == "plain" else node), offset


def _canonical(header: dict[str, Any]) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")


def _shares(arrays: list[np.ndarray]) -> tuple[list[int], list[int]]:
    """The indices of ``arrays`` that a helper thread hashes and those that
    the calling thread hashes: all on the caller below ``_SPLIT_BYTES`` in
    all or with one CPU, else about half the bytes each, dealt largest
    first to the lighter side."""
    sizes = [arr.nbytes for arr in arrays]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if sum(sizes) < _SPLIT_BYTES or cpus < 2:
        return [], list(range(len(sizes)))
    shares: tuple[list[int], list[int]] = ([], [])
    loads = [0, 0]
    for i in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        side = int(loads[1] < loads[0])
        loads[side] += sizes[i]
        shares[side].append(i)
    return shares


def _content_hash(header: dict[str, Any], arrays: list[np.ndarray]) -> str:
    """SHA-256 over the canonical ``header``, then over the SHA-256 digest
    of each of ``arrays`` in order.  hashlib lets go of the GIL over large
    buffers, so a helper thread hashes its share (``_shares``) while this
    one dumps the header and hashes the rest; which thread hashes an array
    changes no byte of the result.  An error on the helper is raised here."""
    digests, errors = [b""] * len(arrays), []

    def hash_each(indices: list[int]) -> None:
        try:
            for i in indices:
                digests[i] = hashlib.sha256(arrays[i]).digest()
        except BaseException as exc:
            errors.append(exc)

    theirs, mine = _shares(arrays)
    helper = threading.Thread(target=hash_each, args=(theirs,)) if theirs else None
    if helper is not None:
        helper.start()
    try:
        text = _canonical(header)
        hash_each(mine)
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return hashlib.sha256(text + b"".join(digests)).hexdigest()


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
    followed by the 32-byte SHA-256 digest of each array's raw bytes, in
    header key order; the wall time, the only non-reproducible field, is left
    out.  Past about 1 MB of arrays, on two CPUs or more, a helper thread
    computes about half of those digests; the hash is the same either way.

    A record file (``RECORD_FORMAT``, also the header's ``format``) holds the
    canonical header and the raw array bytes between a version line and a
    trailer, each array zero-padded to start at a multiple of 8 bytes from
    the file's start::

        <RECORD_FORMAT>
        <canonical header>
        <zero padding, raw array bytes; in header key order>{"wall_time_s": <seconds>}

    so SHA-256 over the header line, then over the digest of each array's
    span of the file, is ``content_hash()``.  The trailer is one
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
        tree = _encode(self, RunRecord, None)
        tree["format"] = RECORD_FORMAT
        return tree

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunRecord":
        """The record of a plain tree, checked field by field; it keeps the
        tree's arrays where no conversion is needed."""
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != RECORD_FORMAT:
            raise ValueError(f"unsupported record format {fmt!r}")
        return _decode({k: v for k, v in d.items() if k != "format"}, cls, None, 0, "")[0]

    def _header(self) -> tuple[dict[str, Any], list[np.ndarray]]:
        """The header tree, not yet dumped, and its arrays in key order."""
        arrays: list[np.ndarray] = []
        header = {k: v for k, v in _encode(self, RunRecord, arrays).items() if k not in _VOLATILE}
        return {**header, "format": RECORD_FORMAT}, arrays

    def _hashed(self) -> tuple[bytes, list[np.ndarray]]:
        """The canonical header and the arrays whose digests are hashed after it."""
        header, arrays = self._header()
        return _canonical(header), arrays

    def canonical_json(self) -> str:
        return self._hashed()[0].decode("ascii")

    def content_hash(self) -> str:
        return _content_hash(*self._header())

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
    data = np.frombuffer(buf, dtype=np.uint8)
    # The volatile fields wait for the trailer, which the arrays' end locates.
    tree = {**{k: v for k, v in header.items() if k != "format"}, **dict.fromkeys(_VOLATILE, 0.0)}
    try:
        (record, end), error = _decode(tree, RunRecord, data, start, ""), None
    except ValueError as exc:
        # Framing and trailer errors come before a field's: frame the arrays alone, check the trailer, raise.
        (record, end), error = _decode(tree, Any, data, start, ""), exc
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
    if error is not None:
        raise error
    for key in _VOLATILE:
        setattr(record, key, _decode(trailer[key], _type_hints(RunRecord)[key], None, 0, key)[0])
    return record
