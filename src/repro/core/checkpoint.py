"""Checkpoint/resume for long sweeps.

The paper's scan ran 22 hours on 64 machines; a production sweep that
dies at hour 20 cannot afford to start over.  The pipeline periodically
serialises its progress — completed addresses, the partial
:class:`~repro.core.pipeline.ScanReport`, stage-II counters, retry and
circuit-breaker state, and the RNG/clock state of every seeded component
— so a killed run resumes where it stopped and produces a report
bit-identical to an uninterrupted run on the same seed.

The checkpoint file is an **append-only journal**, so the cost of a save
follows what the sweep added since the last one, never how far it has
got.

*Record layout.*  The file opens with one header line naming the format
and its version, then holds one framed record per save::

    repro-checkpoint-journal v4\\n
    <body length> <crc32 of the body> <crc32 of the 17 bytes before it>\\n
    <body: pickle protocol 5 of one dict of plain values>
    ...

The three frame fields are 8 hex digits each.  A body holds dicts,
lists, tuples, strings, numbers, booleans and None only, and is read
back by an unpickler whose ``find_class`` refuses every global: a
journal can name no class or callable to import, so loading one runs
no code but the unpickler's own.  A body whose checksum holds but which
does not decode to a dict of such values was written on purpose, not
torn, and raises :class:`~repro.util.errors.CheckpointCorrupt`.

Version 4 replaced version 3's ``<crc32> <JSON>`` lines with this
framing, and writes each per-host section as flat tuples (see
:func:`~repro.core.serialize.report_rows`).  Nothing reads one version
as another: a file whose header names another version is refused with
:class:`~repro.util.errors.ConfigError` and left untouched.

*Fold rule.*  :meth:`Checkpointer.load` folds the records, oldest
first, into one payload.  Every top-level key of a record is
**cumulative** — the small state that is only meaningful whole
(counters, coverage, metrics, RNG/clock/retry/breaker/transport state,
the open-span stack) — and the last record wins.  The one exception is
the ``"growth"`` key: it maps a dotted path to the entries an
**append-only** section gained since the previous save (findings, open
ports, finished spans, events, completed shard payloads, host records).
Lists are concatenated and dicts updated across records, and the result
is grafted into the folded payload at its path, so drivers restore from
the same shape a whole-state snapshot would have had.

*Torn-tail rule.*  A save is one ``write`` at the end of the file, so a
crash mid-save can only leave a partial *last* record.  A last record
that is incomplete or fails a checksum is dropped on load and the file
is cut back to the end of the last whole record before anything is
appended: a crash *during* a checkpoint leaves the previous one intact.
A bad record with bytes after it cannot be a torn append; it raises
:class:`~repro.util.errors.CheckpointCorrupt`.  The frame line has a
checksum of its own, so a damaged length is refused as such instead of
reading as a record that runs past the end of the file.

Sharded sweeps checkpoint at shard boundaries instead, storing each
completed shard's :meth:`~repro.core.parallel.ShardResult.to_rows`, the
only place a shard's result is encoded (workers hand over objects), so
a sweep killed under one executor resumes under the other.  Every record
carries the sweep's :func:`~repro.core.pipeline.resume_key`.
"""

from __future__ import annotations

import io
import os
import pickle
import zlib
from pathlib import Path

from repro.util.errors import CheckpointCorrupt, ConfigError

FORMAT_VERSION = 4

_HEADER = b"repro-checkpoint-journal v%d\n" % FORMAT_VERSION

#: record key holding the append-only sections (see the fold rule above)
GROWTH = "growth"

#: bytes in a record's frame line: three 8-hex-digit fields and a newline
_FRAME = 27


def _encode_record(payload: dict) -> bytes:
    body = pickle.dumps(payload, protocol=5)
    head = b"%08x %08x" % (len(body), zlib.crc32(body))
    return b"%b %08x\n%b" % (head, zlib.crc32(head), body)


def _frame(line: bytes) -> tuple[int, int] | None:
    """A whole, undamaged frame line's body length and body checksum."""
    try:
        length, checksum, check = (int(field, 16) for field in line.split(b" "))
    except ValueError:
        return None
    if line != b"%08x %08x %08x\n" % (length, checksum, check):
        return None
    return (length, checksum) if zlib.crc32(line[:17]) == check else None


class _PlainValues(pickle.Unpickler):
    """Reads a record body: a global of any name is refused, never imported."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"the record names a global: {module}.{name}")


def _decode_body(body: bytes, where: str) -> dict:
    try:
        record = _PlainValues(io.BytesIO(body)).load()
    except Exception as error:  # any failure to decode is damage
        raise CheckpointCorrupt(f"{where} does not decode: {error!r}") from error
    if not isinstance(record, dict):
        kind = type(record).__name__
        raise CheckpointCorrupt(f"{where} decodes to {kind}, not to a dict")
    return record


def _read_journal(data: bytes) -> tuple[list[dict], int]:
    """The whole records in ``data`` and the offset where they end."""
    if not data.startswith(_HEADER):
        if _HEADER.startswith(data):
            # Empty, or a first save torn inside the header line.
            return [], 0
        raise ConfigError(
            f"not a version-{FORMAT_VERSION} checkpoint journal "
            f"(file starts {data[:len(_HEADER)]!r})"
        )
    records: list[dict] = []
    pos = len(_HEADER)
    while pos < len(data):
        where = f"checkpoint record {len(records) + 1} (byte {pos})"
        frame = _frame(data[pos:pos + _FRAME])
        # A frame line that is not whole and intact ends where it would.
        end = pos + _FRAME + (frame[0] if frame is not None else 0)
        body = data[pos + _FRAME:end]
        if frame is None or len(body) != frame[0] or zlib.crc32(body) != frame[1]:
            if end < len(data):
                raise CheckpointCorrupt(
                    f"{where} is damaged and is not the journal's tail"
                )
            break  # a torn last append: resume from the record before it
        records.append(_decode_body(body, where))
        pos = end
    return records, pos


def _fold(records: list[dict]) -> dict:
    """Fold journal records, oldest first, into one resume payload."""
    folded: dict = {}
    growth: dict[str, list | dict] = {}
    for record in records:
        for path, added in record.pop(GROWTH, {}).items():
            section = growth.get(path)
            if section is None:
                growth[path] = added
            elif isinstance(section, list):
                section.extend(added)
            else:
                section.update(added)
        folded.update(record)
    for path, section in growth.items():
        *parents, leaf = path.split(".")
        target = folded
        for key in parents:
            target = target[key]
        target[leaf] = section
    return folded


class Checkpointer:
    """Persists pipeline progress dictionaries to one journal file.

    The payload layout is owned by the drivers
    (:class:`~repro.core.pipeline.ScanPipeline`, the sharded engine, the
    re-scan engine); this class only handles cadence (``every_batches``),
    the journal's integrity, and format validation.
    """

    def __init__(self, path: str | Path, every_batches: int = 1) -> None:
        if every_batches < 1:
            raise ValueError("every_batches must be at least 1")
        self.path = Path(path)
        self.every_batches = every_batches
        #: byte offset the next record goes at — the end of the last
        #: whole record — or None until the file has been inspected
        self._end: int | None = None

    def due(self, batches_done: int) -> bool:
        """Should a checkpoint be written after batch ``batches_done``?"""
        return batches_done % self.every_batches == 0

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, payload: dict) -> None:
        """Append one record: what the sweep added since the last save."""
        if self._end is None:
            self._recover()
        record = _encode_record(payload)
        if self._end == 0:
            record = _HEADER + record
        with open(self.path, "ab") as journal:
            journal.write(record)
        self._end += len(record)

    def load(self) -> dict | None:
        """The folded payload, or None when no checkpoint exists yet."""
        records = self._recover()
        if not records:
            return None
        try:
            return _fold(records)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CheckpointCorrupt(
                f"checkpoint {self.path} does not fold: {error!r}"
            ) from error

    def clear(self) -> None:
        """Remove the checkpoint (a completed sweep needs no resume)."""
        self.path.unlink(missing_ok=True)
        self._end = 0

    def _recover(self) -> list[dict]:
        """Read every whole record and cut a torn tail off the file."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        records, end = _read_journal(data)
        if end < len(data):
            os.truncate(self.path, end)
        self._end = end
        return records


def check_config_matches(payload: dict, **expected: object) -> None:
    """Refuse to resume saved state taken under a different configuration:
    that would splice two incompatible sweeps and silently corrupt the
    report."""
    for key, value in expected.items():
        stored = payload.get(key)
        if stored != value:
            raise ConfigError(
                f"the saved state was taken with {key}={stored!r}, "
                f"but this sweep uses {key}={value!r}"
            )
