"""The on-disk profile database and the in-memory profile container.

Profiles are organized into non-overlapping *epochs*; within an epoch
the database keeps the samples of each (image, event) combination
(paper section 4.3.3).  Two binary formats are implemented:

* ``raw``      -- fixed 8-byte records (u32 offset, u32 count);
* ``compact``  -- varint-encoded offset deltas and counts, the paper's
  "improved format that can compress existing profiles by approximately
  a factor of three".

``benchmarks/bench_table5_space.py`` measures both.

A segment per commit.  Every mutating call (:meth:`~ProfileDatabase.save`,
``checkpoint``, ``merge_epoch``, ``compact_epochs``, ...) is one
:meth:`ProfileDatabase._apply`: it encodes its profiles in memory and
``_commit`` writes them as **one** immutable, generation-numbered file
``epochNNNN/seg.g<gen>.prof``: the encoded profiles back to back, no
framing bytes.  A manifest record names its profile as ``file`` +
``offset`` + ``length`` and says what it holds (``image``, ``event``,
``epoch``, ``period``, ``total``); there is one record shape and one
read path.  A commit that writes profiles therefore costs two fsyncs
(segment, manifest) however many (image, event) profiles it carries,
and one otherwise; :meth:`ProfileDatabase.io_counts` keeps the exact
counts.

Crash safety (the continuous-profiling promise: the database survives
daemon death and machine restarts):

* the invariant: *every byte a manifest names was fsynced before the
  manifest naming it was renamed into place*.  A segment goes to disk
  by write-to-temp + fsync + atomic rename and is never modified, so a
  torn write can never damage committed data.  (Directory entries are
  not fsynced, now or before: after a power cut a rename may not have
  happened, which reads as a missing file and is quarantined.)
* the profile format (version 3) carries a CRC32 trailer over the
  whole blob, checked on every read, so corruption is detected rather
  than decoded into garbage.  The manifest keeps no second CRC of the
  same bytes -- the CRC-32 of bytes that end in their own CRC-32 is
  the constant 0x2144DF1C, so it could only fail when the trailer
  does -- and every read instead checks what only the manifest can
  vouch for: the blob at the record's slice decodes to the ``image``,
  ``event`` and ``epoch`` the record names, so an intact profile under
  the wrong record is quarantined, not served;
* a single ``MANIFEST.json``, itself committed by atomic rename, is
  the linearization point: a crash at any instant leaves either the
  old or the new manifest, each referencing only complete segments;
* the manifest checks itself: its first field, ``CRC``, is the CRC-32
  of the canonical encoding of the rest, so a manifest damaged at rest
  that still parses (a flipped bit in a key, a count, a slice) is a
  damaged manifest like one that does not, never served as committed;
* a corrupt or missing record is *quarantined* on load -- its bytes
  copied aside (the segment is left alone: other live records may name
  it, and GC removes it once none does), its manifest-declared sample
  total recorded as accounted loss -- and iteration (:meth:`profiles`,
  :meth:`epochs`, :meth:`load_all`) keeps going;
* a damaged manifest is rebuilt by walking the segments it committed
  blob by blob -- each blob is self-delimiting (header count, then
  trailer) -- resynchronising after a damaged span on the next ``DCPI``
  magic that parses and checksums (highest generation per key wins);
  only when no manifest ever existed are generation files treated as
  uncommitted crash orphans;
* decode failures raise the typed :class:`CorruptProfileError`
  (a ``ValueError``) instead of raw struct/varint errors.

The price of sharing a file: a bit flip still costs exactly the
profile it lands in, but an at-rest *truncation* now costs the tail of
one commit's segment rather than one (image, event), and a segment
stays on disk -- superseded slices included -- until its last record
is superseded (``checkpoint``, ``compact_epochs`` and ``drop_epoch``
replace an epoch whole, so that is bounded by the epoch).

A commit costs the delta, not the store.  The manifest is serialised
compactly by the C JSON encoder (``sort_keys``, no indent -- the
canonical encoding its ``CRC`` field is taken over), and garbage
collection is *by difference*: a commit unlinks exactly the files the
handle's previous committed manifest referenced and the new one does
not.  The full directory sweep (:meth:`ProfileDatabase._gc`) runs only
where orphans can exist that the difference cannot name -- a handle's
first commit (another process's crash leftovers, ``.tmp`` files) and
the first commit after one of its own commits failed.

Staleness protocol (several handles, one directory).  A handle caches
the manifest it loaded or last committed.  Every commit, by any
handle, first rewrites the small ``COMMIT.seq`` sidecar -- the
previous sequence number plus one and the CRC32 of the manifest about
to be published -- and only then renames the manifest into place.
:meth:`ProfileDatabase.is_current` compares the sidecar on disk with
the mark the handle recorded when it loaded (read *before* the
manifest) or committed, so a handle holding the writers' lock
(:mod:`repro.fleet.store`) reloads exactly when somebody else has
committed since.  The sidecar coordinates *live* handles only, so it
is never fsynced: after a power cut every handle is new and reloads
anyway.  A process crash between sidecar and rename leaves a mark
nobody recorded -- other handles reload needlessly, nothing is
missed; a torn or deleted sidecar reads as "changed"; and the CRC
keeps a restarted sequence from ever repeating an old mark.
"""

import json
import os
import struct
import zlib

from repro.cpu.events import EventType
from repro.faults.injector import NULL_INJECTOR

MAGIC = b"DCPI"
VERSION = 3
FORMAT_RAW = 0
FORMAT_COMPACT = 1

MANIFEST_NAME = "MANIFEST.json"
#: Commit-sequence sidecar: "<sequence> <crc32 of the manifest>" at a
#: fixed width, overwritten before every manifest rename (see the
#: module docstring).
COMMIT_MARK_NAME = "COMMIT.seq"
JOURNAL_NAME = "drain.wal"
QUARANTINE_DIR = "quarantine"


class CorruptProfileError(ValueError):
    """A stored profile failed validation (bad magic, checksum, codec,
    or a manifest record that does not describe it)."""


#: One raw record: u32 offset, u32 count.
_RAW_RECORD = struct.Struct("<II")


def encode_profile(counts, image_name, event, period,
                   fmt=FORMAT_COMPACT, epoch=0):
    """Serialize a {offset: count} map; return bytes.

    Version 3 appends a CRC32 trailer over the whole body so torn and
    bit-flipped files are detected on decode.  A compact record is two
    LEB128 varints (offset delta, count), low seven bits first.
    """
    name_bytes = image_name.encode("utf-8")
    event_bytes = str(event).encode("utf-8")
    out = bytearray(MAGIC)
    out += struct.pack("<HBH", VERSION, fmt, epoch)
    out += struct.pack("<H", len(name_bytes))
    out += name_bytes
    out += struct.pack("<H", len(event_bytes))
    out += event_bytes
    out += struct.pack("<II", int(period), len(counts))
    if fmt == FORMAT_RAW:
        pack = _RAW_RECORD.pack
        for offset in sorted(counts):
            out += pack(offset, counts[offset])
    else:
        append = out.append
        last = 0
        for offset in sorted(counts):
            value = offset - last
            last = offset
            while value > 0x7F:
                append(value & 0x7F | 0x80)
                value >>= 7
            append(value)
            value = counts[offset]
            while value > 0x7F:
                append(value & 0x7F | 0x80)
                value >>= 7
            append(value)
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


def _parse_blob(data, start=0, salvage=False):
    """Walk the profile that starts at ``data[start]``; return
    ``((counts, image_name, event, period, epoch), end)``.

    The one reader of the blob layout.  A blob is self-delimiting --
    the header gives the record count, the records give their own
    lengths, the 4-byte trailer follows -- so a segment needs no
    framing to be walked, and the trailer is checked over exactly the
    bytes walked.  Any failure -- bad magic, unknown version,
    truncation, checksum mismatch, codec error -- raises
    :class:`CorruptProfileError`, never a raw struct/varint exception.

    With *salvage* nothing raises: the walk stops at the first thing
    it cannot decode -- an unknown version (one flipped bit) is not
    one -- and returns what it read up to there, no counts when even
    the header is gone.  A manifest rebuild has no declared total to
    account a damaged span with; the sum of these is its stand-in.
    """
    counts = {}
    image_name = event = None
    period = epoch = 0
    pos = start
    try:
        if data[pos:pos + 4] != MAGIC:
            raise CorruptProfileError("not a DCPI profile")
        version, fmt, epoch = struct.unpack_from("<HBH", data, pos + 4)
        if version != VERSION and not salvage:
            raise CorruptProfileError(
                "unsupported profile version %d" % version)
        pos += 9
        names = []
        for _ in range(2):                      # image name, event
            (size,) = struct.unpack_from("<H", data, pos)
            names.append(data[pos + 2:pos + 2 + size].decode("utf-8"))
            pos += 2 + size
        image_name, event = names[0], EventType(names[1])
        period, n = struct.unpack_from("<II", data, pos)
        pos += 8
        if fmt == FORMAT_RAW:
            unpack = _RAW_RECORD.unpack_from
            for _ in range(n):
                offset, count = unpack(data, pos)
                counts[offset] = count
                pos += 8
        else:
            # Two varints per record, read inline; an IndexError is a
            # truncated blob.
            offset = 0
            for _ in range(n):
                byte = data[pos]
                pos += 1
                value = byte & 0x7F
                shift = 7
                while byte & 0x80:
                    byte = data[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    shift += 7
                offset += value
                byte = data[pos]
                pos += 1
                value = byte & 0x7F
                shift = 7
                while byte & 0x80:
                    byte = data[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    shift += 7
                counts[offset] = value
        (crc,) = struct.unpack_from("<I", data, pos)
        if zlib.crc32(data[start:pos]) != crc:
            raise CorruptProfileError("profile checksum mismatch")
        pos += 4
    except CorruptProfileError:
        if not salvage:
            raise
    except (struct.error, IndexError, ValueError, OverflowError,
            MemoryError) as exc:
        if not salvage:
            raise CorruptProfileError("corrupt profile: %s" % exc) from exc
    return (counts, image_name, event, period, epoch), pos


def decode_profile(data):
    """Inverse of :func:`encode_profile`: *data* is one whole blob.

    Returns (counts, image_name, event, period, epoch); raises
    :class:`CorruptProfileError` (a ``ValueError``) for anything
    :func:`_parse_blob` rejects and for bytes after the trailer.
    """
    decoded, end = _parse_blob(data)
    if end != len(data):
        raise CorruptProfileError(
            "%d bytes after the profile trailer" % (len(data) - end))
    return decoded


def _walk_segment(data):
    """Yield ``(start, end, decoded, error)`` for each span of *data*.

    Intact blobs come back decoded with ``error`` None.  After a blob
    that fails, the walk resynchronises on the next ``DCPI`` magic that
    parses and checksums, and the bytes in between are one damaged
    span (``decoded`` None, ``error`` the first failure).
    """
    start = 0
    while start < len(data):
        try:
            decoded, end = _parse_blob(data, start)
            error = None
        except CorruptProfileError as exc:
            decoded, end, error = None, start, exc
            while end < len(data):
                end = data.find(MAGIC, end + 1)
                if end < 0:
                    end = len(data)
                    break
                try:
                    _parse_blob(data, end)
                    break
                except CorruptProfileError:
                    continue
        yield start, end, decoded, error
        start = end


def _record(counts, image_name, event, period, epoch, **where):
    """The one shape of a manifest record: what the profile is, and
    *where* its bytes are (``file`` + ``offset`` + ``length``, which
    ``_commit`` fills in for a staged profile)."""
    return dict(where, image=image_name, event=str(event), epoch=epoch,
                period=int(period), total=sum(counts.values()))


#: The record fields a read relies on, with their types.
_RECORD_TYPES = {"file": str, "offset": int, "length": int,
                 "image": str, "event": str, "epoch": int}


def _malformed(record):
    """The first :data:`_RECORD_TYPES` field *record* lacks or holds
    with the wrong type, or None."""
    return next((name for name, kind in _RECORD_TYPES.items()
                 if not isinstance(record.get(name), kind)), None)


def _canonical(manifest):
    """The one encoding of a manifest: what ``_commit`` writes after
    the ``CRC`` field, and what that field is the CRC-32 of."""
    return json.dumps(manifest, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def _atomic_write(path, data):
    """Write bytes *data* to *path*: temp file, fsync, atomic rename."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class ProfileDatabase:
    """Directory-backed profile storage with epochs and merging.

    All mutations are shadow-paging: the commit's profiles are written
    first, as one new generation-numbered segment, then a single
    atomic manifest rename commits them and the files it stopped
    referencing are garbage-collected.  A crash at any point leaves
    the previous committed state intact.
    """

    def __init__(self, root, fmt=FORMAT_COMPACT, faults=None):
        self.root = os.fspath(root)
        self.fmt = fmt
        self.faults = faults or NULL_INJECTOR
        #: Human-readable notes about salvage decisions (rebuilt
        #: manifest, quarantined files); consumers surface these.
        self.warnings = []
        os.makedirs(self.root, exist_ok=True)
        self._manifest = None
        #: ``COMMIT.seq`` content the cached manifest corresponds to.
        self._mark = None
        #: Files referenced by the last manifest this handle committed;
        #: None before its first commit and after a failed one, when
        #: only the full sweep can find what must go.
        self._committed_files = None
        self._io = dict.fromkeys(("files_written", "segment_bytes",
                                  "manifest_bytes", "unlinks"), 0)

    # -- manifest ----------------------------------------------------------

    def _manifest_path(self):
        return os.path.join(self.root, MANIFEST_NAME)

    def _read_mark(self):
        """The commit sidecar's bytes; None when there is none."""
        try:
            with open(os.path.join(self.root, COMMIT_MARK_NAME),
                      "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def _advance_mark(self, payload):
        """Rewrite the sidecar for a commit of *payload*; return it.

        Not fsynced and not renamed into place: the mark only has to
        *differ* from what any live handle recorded, and a torn one
        does.  The sequence restarts at 1 after such damage; the CRC
        keeps the new marks distinct from the old.  Fixed width, so
        overwriting in place needs no truncate (a journalled metadata
        operation that would cost more than the rest of the commit's
        bookkeeping together).
        """
        head = (self._read_mark() or b"").split()[:1]
        sequence = int(head[0]) + 1 if head and head[0].isdigit() else 1
        mark = b"%020d %08x" % (sequence, zlib.crc32(payload))
        fd = os.open(os.path.join(self.root, COMMIT_MARK_NAME),
                     os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, mark)
        finally:
            os.close(fd)
        return mark

    def is_current(self):
        """True when no handle has committed since this one loaded or
        last committed its manifest.

        Only meaningful while the caller excludes concurrent
        committers (the fleet shard's ingest lock): a commit in flight
        has rewritten the sidecar but not yet the manifest.
        """
        return (self._manifest is not None
                and self._read_mark() == self._mark)

    def _load_manifest(self):
        if self._manifest is not None:
            return self._manifest
        # Mark before manifest: a commit landing in between leaves an
        # old mark beside a new manifest -- a needless reload later,
        # never a missed one.
        self._mark = self._read_mark()
        path = self._manifest_path()
        damaged = False
        if os.path.exists(path):
            try:
                with open(path) as handle:
                    manifest = json.load(handle)
                # Parsing is not enough: one flipped bit can leave
                # valid JSON that names another key, slice or total.
                if (isinstance(manifest, dict)
                        and manifest.pop("CRC", None)
                        == zlib.crc32(_canonical(manifest))):
                    self._manifest = manifest
                    return manifest
                reason = "fails its self-check"
            except (json.JSONDecodeError, OSError, UnicodeDecodeError):
                reason = "unreadable"
            damaged = True
            self.warnings.append(
                "manifest %s; rebuilt from profile files" % reason)
        self._manifest = self._scan(adopt_generations=damaged)
        return self._manifest

    def _scan(self, adopt_generations=False):
        """Rebuild a manifest by decoding the profile files on disk.

        The fallback for pre-manifest databases and for a destroyed
        manifest.  Every file is walked as a segment, blob by blob
        (:func:`_walk_segment`; a legacy file is a segment of one); a
        damaged span is quarantined with a best-effort salvaged total
        so its loss is still accounted.

        Generation-suffixed files (``*.g<N>.prof``) are only ever
        written by manifest-era code, so their meaning depends on *why*
        there is no manifest to read:

        * Manifest absent (``adopt_generations=False``): a crash landed
          between writing the segment and the manifest rename.  Those
          are uncommitted orphans -- their samples live in the drain
          journal for replay -- so adopting them here would
          double-count.  They are skipped (the next commit's GC removes
          them), but still advance the generation counter so new writes
          never collide with leftovers.

        * Manifest present but unreadable (``adopt_generations=True``):
          at-rest damage to the manifest itself, after which *every*
          committed file is generation-suffixed.  Skipping them would
          hand intact, CRC-valid profiles to the next commit's GC --
          silent total loss -- so they are adopted instead, the highest
          generation per (epoch, image, event) winning exactly as the
          lost manifest's newest-write-wins commits did.
        """
        manifest = {"version": 1, "generation": 0, "records": {},
                    "checkpoint": None, "quarantined": []}
        adopted_gens = {}
        for rel in self._epoch_files():
            gen = _parse_generation(rel)
            if gen > manifest["generation"]:
                manifest["generation"] = gen
            if gen and not adopt_generations:
                continue
            with open(os.path.join(self.root, rel), "rb") as handle:
                data = handle.read()
            for start, end, decoded, error in _walk_segment(data):
                if error is not None:
                    blob = data[start:end]
                    (salvaged, *_), _ = _parse_blob(blob, salvage=True)
                    self._set_aside(rel, start, blob)
                    manifest["quarantined"].append({
                        "key": rel, "file": rel, "offset": start,
                        "declared_total": sum(salvaged.values()),
                        "reason": str(error)})
                    self.warnings.append(
                        "quarantined %s@%d during rebuild (%s)"
                        % (rel, start, error))
                    continue
                _, image_name, event, _, epoch = decoded
                key = self._key(epoch, image_name, event)
                if gen < adopted_gens.get(key, -1):
                    continue
                adopted_gens[key] = gen
                manifest["records"][key] = _record(
                    *decoded, file=rel, offset=start, length=end - start)
        return manifest

    def _epoch_files(self, suffixes=(".prof",)):
        """Yield, in sorted order, the root-relative path of every
        ``epoch*/`` file whose name ends in one of *suffixes*."""
        for name in sorted(os.listdir(self.root)):
            epoch_dir = os.path.join(self.root, name)
            if name.startswith("epoch") and os.path.isdir(epoch_dir):
                for fname in sorted(os.listdir(epoch_dir)):
                    if fname.endswith(suffixes):
                        yield os.path.join(name, fname)

    def _commit(self, manifest, staged=()):
        """Write *staged* as one segment, atomically publish
        *manifest*, then GC what it dropped.

        *staged* -- the ``(record, bytes)`` pairs of :meth:`_stage` --
        goes to disk back to back as one immutable generation file and
        each record learns its ``file`` / ``offset`` / ``length``.
        Then the sidecar is rewritten (every other handle's cached
        view is now stale, whether or not the rename follows), the
        manifest rename is the commit point, and only after it are the
        files the previous manifest referenced and this one does not
        unlinked.  If the commit dies (an injected crash between the
        segment and the rename), the cached manifest is invalidated so
        the next access reloads the last *committed* state -- staged
        in-memory mutations must not survive a failed commit -- and
        the next commit sweeps the orphans.
        """
        try:
            if staged:
                manifest["generation"] += 1
                epoch_name = "epoch%04d" % staged[0][0]["epoch"]
                os.makedirs(os.path.join(self.root, epoch_name),
                            exist_ok=True)
                rel = os.path.join(
                    epoch_name, "seg.g%d.prof" % manifest["generation"])
                offset = 0
                for record, payload in staged:
                    record.update(file=rel, offset=offset,
                                  length=len(payload))
                    offset += len(payload)
                self._write("segment_bytes", os.path.join(self.root, rel),
                            b"".join(payload for _, payload in staged))
            referenced = {record["file"]
                          for record in manifest["records"].values()}
            self.faults.check("db.checkpoint")
            # "CRC" sorts first, so splicing it in front *is* the
            # canonical encoding with the field: one encode per commit.
            body = _canonical(manifest)
            payload = b'{"CRC":%d,' % zlib.crc32(body) + body[1:]
            mark = self._advance_mark(payload)
            self._write("manifest_bytes", self._manifest_path(), payload)
        except BaseException:
            self._manifest = None
            self._committed_files = None
            raise
        self._manifest = manifest
        self._mark = mark
        if self._committed_files is None:
            self._gc(referenced)
        else:
            for rel in sorted(self._committed_files - referenced):
                self._unlink(os.path.join(self.root, rel))
        self._committed_files = referenced

    def _write(self, kind, path, data):
        """:func:`_atomic_write`, counted (see :meth:`io_counts`)."""
        _atomic_write(path, data)
        self._io["files_written"] += 1
        self._io[kind] += len(data)

    def io_counts(self):
        """Exact I/O this handle has done to commit: ``files_written``
        (segments + manifests), ``fsyncs`` (one per file written: temp
        + fsync + rename), ``segment_bytes``, ``manifest_bytes``,
        ``unlinks``."""
        return dict(self._io, fsyncs=self._io["files_written"])

    def _unlink(self, path):
        try:
            os.unlink(path)
        # GC is best-effort: a file another handle already collected
        # is gone, and one held open by a racing reader goes with the
        # next sweep.
        except OSError:  # dcpicheck: ignore[swallowed-exception]
            return
        self._io["unlinks"] += 1

    def _gc(self, referenced):
        """Sweep every epoch directory for files not in *referenced*
        (stale generations, crash orphans, ``.tmp`` leftovers)."""
        for rel in self._epoch_files((".prof", ".tmp")):
            if rel not in referenced:
                self._unlink(os.path.join(self.root, rel))

    @staticmethod
    def _key(epoch, image_name, event):
        return "%04d/%s@%s" % (epoch, image_name, event)

    # -- quarantine --------------------------------------------------------

    def _set_aside(self, rel, offset, data):
        """Keep a copy of damaged bytes under ``quarantine/``.

        A copy, never a move: other live records may name the same
        segment.  GC unlinks the segment once no record does.
        """
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        dst = os.path.join(
            qdir, "%s@%s" % (rel.replace(os.sep, "_"), offset))
        try:
            with open(dst, "wb") as handle:
                handle.write(data)
        # Quarantine is advisory: the record is already dropped from
        # the live set, so a failed copy only loses the evidence.
        except OSError:  # dcpicheck: ignore[swallowed-exception]
            pass

    def _quarantine(self, manifest, key, record, reason):
        """Pull *record* out of the live set; account its samples."""
        rel = str(record.get("file"))
        try:
            damaged = self._record_bytes(record, {})
        # The file is gone, or the record does not say where its bytes
        # are: an empty marker.
        except (OSError, KeyError, TypeError):
            damaged = b""
        self._set_aside(rel, record.get("offset", 0), damaged)
        manifest["records"].pop(key, None)
        manifest["quarantined"].append({
            "key": key,
            "file": rel,
            "declared_total": record.get("total", 0),
            "reason": reason,
        })
        self.warnings.append("quarantined %s (%s)" % (rel, reason))

    def quarantined(self):
        """Quarantine ledger entries (key, file, declared_total, reason)."""
        return list(self._load_manifest()["quarantined"])

    def quarantined_samples(self):
        """Samples lost to quarantined files (manifest-declared totals)."""
        return sum(entry.get("declared_total") or 0
                   for entry in self._load_manifest()["quarantined"])

    # -- write path --------------------------------------------------------

    def _stage(self, staged, image_name, event, counts, period, epoch):
        """Encode one profile onto *staged*; return its record.

        :meth:`_commit` writes the staged bytes and completes the
        record with where they landed.
        """
        data = encode_profile(counts, image_name, str(event), period,
                              self.fmt, epoch)
        record = _record(counts, image_name, event, period, epoch)
        staged.append((record,
                       self.faults.corrupt_bytes("db.write", data)))
        return record

    def _apply(self, epoch, profiles, periods, merge=False, drop=(),
               checkpoint=None, ctx=None, fleet=None):
        """The one mutation, under one :meth:`_commit`: forget the
        records of the epochs in *drop*, stage *profiles*
        (``{image: {event: {offset: count}}}``) at *epoch* -- added to
        what is stored there (*merge*) or in its place -- and set each
        manifest side blob that is not None.  The profiles are written
        first, as one segment; the single manifest rename is the
        commit point, so all of it becomes durable together or not at
        all.  A merged record keeps the larger of the stored and the
        incoming period, like :func:`repro.collect.parallel.
        merge_profiles`, so the order of merges cannot change it.
        """
        manifest = self._load_manifest()
        records = manifest["records"]
        staged, new_records, segments = [], {}, {}
        for image_name in sorted(profiles):
            by_event = profiles[image_name]
            for event in sorted(by_event, key=str):
                counts = by_event[event]
                period = periods.get(event, 1)
                key = self._key(epoch, image_name, str(event))
                record = records.get(key) if merge else None
                if record is not None:
                    counts = dict(counts)
                    try:
                        stored, _, _, stored_period, _ = self._read_record(
                            record, segments)
                    except CorruptProfileError as exc:
                        self._quarantine(manifest, key, record, str(exc))
                    else:
                        for offset, count in stored.items():
                            counts[offset] = counts.get(offset, 0) + count
                        period = max(period, stored_period)
                new_records[key] = self._stage(
                    staged, image_name, event, counts, period, epoch)
        prefixes = tuple("%04d/" % dropped for dropped in drop)
        for key in [key for key in records if key.startswith(prefixes)]:
            del records[key]
        records.update(new_records)
        for name, blob in (("checkpoint", checkpoint), ("ctx", ctx),
                           ("fleet", fleet)):
            if blob is not None:
                manifest[name] = blob
        self._commit(manifest, staged)

    def save(self, image_name, event, counts, period, epoch=0):
        """Merge *counts* into the stored profile for (image, event)."""
        self._apply(epoch, {image_name: {event: counts}}, {event: period},
                    merge=True)

    def checkpoint(self, profiles, periods, epoch, meta=None, ctx=None):
        """Atomically replace *epoch*'s stored state with *profiles*.

        *profiles* is ``{image name: {event: {offset: count}}}`` (the
        daemon's cumulative in-memory state for the epoch), *periods*
        maps event -> sampling period, and *meta* -- stored under the
        manifest's ``checkpoint`` key -- carries the daemon's recovery
        watermarks.  *ctx* (stored under the manifest's ``ctx`` key,
        like the fleet ledger) carries the request-context ledger;
        None -- the only value when the context dimension is off --
        leaves the manifest untouched, keeping ctx-less databases
        byte-identical to pre-context output.  A crash anywhere leaves
        the previous checkpoint intact and re-running is idempotent
        (it replaces, never adds).
        """
        self._apply(epoch, profiles, periods, drop=(epoch,),
                    checkpoint=None if meta is None else dict(meta),
                    ctx=ctx)

    def update_checkpoint(self, meta):
        """Commit new checkpoint *meta* without touching profiles."""
        self._apply(0, {}, {}, checkpoint=dict(meta))

    def merge_epoch(self, profiles, periods, epoch, meta=None):
        """Merge a delta's ``{image: {event: {offset: count}}}`` into
        *epoch* under a single manifest commit.

        The whole delta plus the optional *meta* blob -- committed
        under the manifest's ``fleet`` key -- becomes durable
        atomically.  The fleet store rides on this: recording an
        applied delta id in the same commit as its samples is what
        makes duplicate delivery idempotent even across a crash
        between merge and ledger write.
        """
        self._apply(epoch, profiles, periods, merge=True, fleet=meta)

    def drop_epoch(self, epoch, meta=None):
        """Remove every committed profile of *epoch* in one commit.

        Used by the fleet store's retention compaction after an old
        epoch's samples have been merge-downsampled into a coarser
        window.  *meta* (committed atomically with the drop, like
        :meth:`merge_epoch`) lets the caller record where the samples
        went so nothing is lost silently.
        """
        self._apply(epoch, {}, {}, drop=(epoch,), fleet=meta)

    def compact_epochs(self, source_epochs, profiles, periods,
                       target_epoch, meta=None):
        """Replace *source_epochs* with *profiles* stored at
        *target_epoch*, all under one manifest commit.

        The retention path of the fleet store uses this to
        merge-downsample a window of old epochs: the compacted segment
        is written first, then a single atomic manifest rename both
        publishes it and drops every source-epoch record, so a crash
        at any instant leaves either the original epochs or the
        compacted window -- never both (double counting) and never
        neither (silent loss).
        """
        self._apply(target_epoch, profiles, periods,
                    drop={*source_epochs, target_epoch}, fleet=meta)

    def get_meta(self, name="fleet"):
        """The last committed side blob *name* (see :meth:`_apply`).

        Returns None for databases that never committed one, and for
        manifests rebuilt from a destroyed ``MANIFEST.json`` (the scan
        can recover profiles from their files, but side-channel
        metadata only ever lived in the manifest).
        """
        meta = self._load_manifest().get(name)
        return json.loads(json.dumps(meta)) if meta is not None else None

    def checkpoint_meta(self):
        """The last committed checkpoint metadata, or None."""
        meta = self._load_manifest().get("checkpoint")
        return dict(meta) if meta else None

    # -- read path ---------------------------------------------------------

    def _record_bytes(self, record, segments):
        """The slice of its segment that *record* names.

        *segments* (``{file: bytes}``, owned by the caller) lets one
        scan read each segment once however many records share it.
        """
        rel = record["file"]
        data = segments.get(rel)
        if data is None:
            with open(os.path.join(self.root, rel), "rb") as handle:
                data = segments[rel] = handle.read()
        return data[record["offset"]:record["offset"] + record["length"]]

    def _read_record(self, record, segments):
        """Decode the profile *record* names; raise
        :class:`CorruptProfileError`.

        The blob's own trailer vouches for its bytes, the record for
        which blob belongs at that slice (``image``, ``event``,
        ``epoch``); a record that lacks a field or holds one of the
        wrong type fails the same way as damaged bytes.
        """
        field = _malformed(record)
        if field is not None:
            raise CorruptProfileError(
                "malformed manifest record: bad %r" % field)
        try:
            decoded = decode_profile(self._record_bytes(record, segments))
        except FileNotFoundError as exc:
            raise CorruptProfileError("profile file missing") from exc
        _, image_name, event, _, epoch = decoded
        if (image_name, str(event), epoch) != (
                record["image"], record["event"], record["epoch"]):
            raise CorruptProfileError(
                "slice holds %s@%s of epoch %d, not the profile its "
                "record names" % (image_name, event, epoch))
        return decoded

    def load(self, image_name, event, epoch=0):
        """Return ({offset: count}, period) for (image, event).

        Raises ``FileNotFoundError`` if no such profile is committed,
        :class:`CorruptProfileError` (after quarantining the file) if
        the committed bytes fail validation.
        """
        manifest = self._load_manifest()
        key = self._key(epoch, image_name, str(event))
        record = manifest["records"].get(key)
        if record is None:
            raise FileNotFoundError(
                "no profile for (%s, %s) in epoch %d"
                % (image_name, event, epoch))
        try:
            counts, _, _, period, _ = self._read_record(record, {})
        except CorruptProfileError:
            self._quarantine(manifest, key, record,
                             "corrupt on load")
            self._commit(manifest)
            raise
        return counts, period

    def load_all(self, epoch=0):
        """Yield (image_name, event, counts, period) for *epoch*.

        Robust iteration: corrupt records are quarantined (their loss
        accounted) and skipped rather than aborting the scan.  Each
        segment is read once.
        """
        manifest = self._load_manifest()
        dirty = False
        segments = {}
        prefix = "%04d/" % epoch
        for key in sorted(manifest["records"]):
            if not key.startswith(prefix):
                continue
            record = manifest["records"][key]
            try:
                counts, image_name, event, period, _ = self._read_record(
                    record, segments)
            except CorruptProfileError as exc:
                self._quarantine(manifest, key, record, str(exc))
                dirty = True
                continue
            yield image_name, event, counts, period
        if dirty:
            self._commit(manifest)

    def epochs(self):
        """Sorted epoch numbers with at least one committed profile
        (skipping malformed records, like :meth:`profiles`)."""
        manifest = self._load_manifest()
        return sorted({record["epoch"]
                       for record in manifest["records"].values()
                       if _malformed(record) is None})

    def profiles(self, epoch=0):
        """Yield (image_name, event) pairs stored for *epoch*."""
        manifest = self._load_manifest()
        prefix = "%04d/" % epoch
        for key in sorted(manifest["records"]):
            record = manifest["records"][key]
            if key.startswith(prefix) and _malformed(record) is None:
                yield record["image"], EventType(record["event"])

    def total_samples(self, epoch=None, event=None):
        """Committed sample total (per epoch/event when given)."""
        total = 0
        epochs = [epoch] if epoch is not None else self.epochs()
        for ep in epochs:
            for _, ev, counts, _ in self.load_all(ep):
                if event is not None and ev != event:
                    continue
                total += sum(counts.values())
        return total

    def verify(self):
        """Re-validate every committed profile; quarantine failures.

        Returns {"checked": n, "quarantined": newly quarantined,
        "lost_samples": total declared samples in quarantine}.
        """
        before = len(self._load_manifest()["quarantined"])
        checked = 0
        for epoch in self.epochs():
            for _ in self.load_all(epoch):
                checked += 1
        manifest = self._load_manifest()
        return {
            "checked": checked,
            "quarantined": len(manifest["quarantined"]) - before,
            "lost_samples": self.quarantined_samples(),
        }

    # -- misc --------------------------------------------------------------

    def journal_path(self):
        """Where this database's drain journal (WAL) lives."""
        return os.path.join(self.root, JOURNAL_NAME)

    def disk_bytes(self):
        """Total bytes used by committed profiles.

        Bookkeeping (manifest, journal, quarantine, temp files) is
        excluded: this is the paper's Table 5 storage metric, profile
        payload only.
        """
        return sum(os.path.getsize(os.path.join(self.root, rel))
                   for rel in self._epoch_files())


def _parse_generation(fname):
    """'seg.g12.prof' -> 12; ungenerated names -> 0."""
    stem = fname[:-len(".prof")] if fname.endswith(".prof") else fname
    _, _, tail = stem.rpartition(".g")
    return int(tail) if tail.isdigit() else 0


class ImageProfile:
    """In-memory samples for one image, by event type.

    This is what the analysis tools consume.  ``counts[event]`` maps an
    image-relative instruction offset to its aggregated sample count;
    ``periods[event]`` is the mean sampling period used, needed to turn
    sample counts into cycle counts (cycles ~= samples * period).
    """

    def __init__(self, image, counts=None, periods=None):
        self.image = image
        self.counts = counts or {}
        self.periods = periods or {}
        #: (from offset, to offset) -> edge samples (double sampling).
        self.edge_counts = {}
        # Distinct (event, offset) entries, maintained incrementally so
        # the daemon's resident-memory model stays O(#profiles) even
        # when sampled at every allocation (repro.obs).
        self._entries = sum(len(by_offset)
                            for by_offset in self.counts.values())

    def add_edge(self, from_offset, to_offset, count):
        key = (from_offset, to_offset)
        self.edge_counts[key] = self.edge_counts.get(key, 0) + count

    def edges_by_addr(self):
        """Return {(from addr, to addr): edge samples}."""
        base = self.image.base
        return {(base + f, base + t): count
                for (f, t), count in self.edge_counts.items()}

    def add(self, event, offset, count):
        by_offset = self.counts.setdefault(event, {})
        if offset in by_offset:
            by_offset[offset] += count
        else:
            by_offset[offset] = count
            self._entries += 1

    def entry_count(self):
        """Distinct (event, offset) entries this profile holds."""
        return self._entries

    def total(self, event):
        return sum(self.counts.get(event, {}).values())

    def samples_by_addr(self, event):
        """Return {absolute address: samples} for *event*."""
        base = self.image.base
        return {base + off: cnt
                for off, cnt in self.counts.get(event, {}).items()}

    def samples_for(self, proc, event):
        """Return {absolute address: samples} inside procedure *proc*.

        Probes the procedure's own instruction slots, so analysing
        every procedure of an image reads each slot once per event.
        """
        by_offset = self.counts.get(event)
        if not by_offset:
            return {}
        base = self.image.base
        return {base + off: by_offset[off]
                for off in range(proc.start - base, proc.end - base, 4)
                if off in by_offset}

    def procedure_totals(self, event):
        """Return {procedure name: samples} for *event*."""
        return {proc.name: sum(self.samples_for(proc, event).values())
                for proc in self.image.procedures}
