"""Tests for the on-disk profile database and binary formats."""

import io
import json
import os
import struct
import zlib

import pytest
from hypothesis import given, strategies as st

from conftest import files_in_manifest, files_on_disk, rewrite_manifest
from repro.collect.database import (FORMAT_COMPACT, FORMAT_RAW, MAGIC,
                                    MANIFEST_NAME, VERSION,
                                    CorruptProfileError, ImageProfile,
                                    ProfileDatabase, _parse_blob,
                                    decode_profile, encode_profile)
from repro.cpu.events import EventType
from repro.faults.injector import bitflip_at_rest

counts_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=1 << 24).map(lambda x: x * 4),
    st.integers(min_value=1, max_value=1 << 30),
    max_size=200)


def reference_encode(counts, image_name, event, period, fmt, epoch):
    """The blob layout written one varint call at a time, as the
    encoder did before it built varints inline."""

    def write_varint(out, value):
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.write(bytes((byte | 0x80,)))
            else:
                out.write(bytes((byte,)))
                return

    out = io.BytesIO()
    name_bytes = image_name.encode("utf-8")
    event_bytes = str(event).encode("utf-8")
    out.write(MAGIC)
    out.write(struct.pack("<HBH", VERSION, fmt, epoch))
    out.write(struct.pack("<H", len(name_bytes)))
    out.write(name_bytes)
    out.write(struct.pack("<H", len(event_bytes)))
    out.write(event_bytes)
    out.write(struct.pack("<II", int(period), len(counts)))
    last = 0
    for offset in sorted(counts):
        count = counts[offset]
        if fmt == FORMAT_RAW:
            out.write(struct.pack("<II", offset, count))
        else:
            write_varint(out, offset - last)
            write_varint(out, count)
            last = offset
    body = out.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


#: Compact offsets and counts: one-byte values, values right at the
#: seven-bit boundaries, and values of 2**32 and beyond.
wide_values = st.one_of(st.integers(0, 300),
                        st.sampled_from([127, 128, 16383, 16384,
                                         (1 << 32) - 1, 1 << 32]),
                        st.integers(1 << 32, 1 << 70))
u32_values = st.integers(0, (1 << 32) - 1)
header = dict(image_name=st.sampled_from(["app", "/usr/lib/libc.so",
                                          "\u00e9t\u00e9"]),
              event=st.sampled_from(list(EventType)),
              period=st.integers(0, (1 << 32) - 1),
              epoch=st.integers(0, 0xFFFF))


class TestEncoderReference:
    """The encoder is byte-equal to the reference layout above, and
    ``_parse_blob`` reads back whatever it wrote."""

    @given(counts=st.dictionaries(wide_values, wide_values, max_size=60),
           **header)
    def test_compact_bytes_equal_the_reference(self, counts, image_name,
                                               event, period, epoch):
        args = (counts, image_name, event, period, FORMAT_COMPACT, epoch)
        assert encode_profile(*args) == reference_encode(*args)

    @given(counts=st.dictionaries(u32_values, u32_values, max_size=60),
           **header)
    def test_raw_bytes_equal_the_reference(self, counts, image_name,
                                           event, period, epoch):
        args = (counts, image_name, event, period, FORMAT_RAW, epoch)
        assert encode_profile(*args) == reference_encode(*args)

    @pytest.mark.parametrize("fmt", [FORMAT_COMPACT, FORMAT_RAW])
    def test_empty_map(self, fmt):
        args = ({}, "app", EventType.CYCLES, 62000, fmt, 3)
        data = encode_profile(*args)
        assert data == reference_encode(*args)
        assert _parse_blob(data) == (({}, "app", EventType.CYCLES,
                                      62000, 3), len(data))

    @given(counts=st.dictionaries(wide_values, wide_values, max_size=60),
           raw=st.dictionaries(u32_values, u32_values, max_size=60),
           prefix=st.binary(max_size=8), **header)
    def test_parse_blob_reads_what_the_encoder_wrote(
            self, counts, raw, prefix, image_name, event, period, epoch):
        for fmt, stored in ((FORMAT_COMPACT, counts), (FORMAT_RAW, raw)):
            data = encode_profile(stored, image_name, event, period, fmt,
                                  epoch)
            # A blob inside a segment: it starts after other bytes and
            # stops at its own trailer.
            segment = prefix + data + b"DCPI"
            decoded, end = _parse_blob(segment, start=len(prefix))
            assert decoded == (stored, image_name, event, period, epoch)
            assert end == len(prefix) + len(data)


class TestEncoding:
    @given(counts_strategy)
    def test_compact_roundtrip(self, counts):
        data = encode_profile(counts, "/bin/app", EventType.CYCLES, 62000)
        decoded, name, event, period, epoch = decode_profile(data)
        assert decoded == counts
        assert name == "/bin/app"
        assert event is EventType.CYCLES
        assert period == 62000

    @given(counts_strategy)
    def test_raw_roundtrip(self, counts):
        data = encode_profile(counts, "app", EventType.IMISS, 100,
                              fmt=FORMAT_RAW)
        decoded, _, event, _, _ = decode_profile(data)
        assert decoded == counts
        assert event is EventType.IMISS

    def test_compact_is_smaller_for_dense_profiles(self):
        # Typical profile: consecutive offsets, modest counts -- the
        # paper's "factor of three" compression claim.
        counts = {4 * i: 50 + (i % 100) for i in range(5000)}
        raw = encode_profile(counts, "app", EventType.CYCLES, 62000,
                             fmt=FORMAT_RAW)
        compact = encode_profile(counts, "app", EventType.CYCLES, 62000,
                                 fmt=FORMAT_COMPACT)
        assert len(raw) / len(compact) > 2.5

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="not a DCPI"):
            decode_profile(b"XXXX" + b"\0" * 30)

    def test_truncated_data_rejected(self):
        data = encode_profile({4: 1}, "app", EventType.CYCLES, 100)
        with pytest.raises(Exception):
            decode_profile(data[:-1])


class TestDatabase:
    def test_save_and_load(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("/bin/app", EventType.CYCLES, {0: 5, 8: 2}, 62000)
        counts, period = db.load("/bin/app", EventType.CYCLES)
        assert counts == {0: 5, 8: 2}

    def test_save_merges_counts(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("app", EventType.CYCLES, {0: 5}, 100)
        db.save("app", EventType.CYCLES, {0: 3, 4: 1}, 100)
        counts, _ = db.load("app", EventType.CYCLES)
        assert counts == {0: 8, 4: 1}

    def test_merged_period_does_not_depend_on_merge_order(self, tmp_path):
        """A merge keeps the larger period, as ``merge_profiles`` does,
        so the same two deltas give the same record in either order."""
        rows, blobs = [], []
        for name, periods in (("a", (2048, 256)), ("b", (256, 2048))):
            db = ProfileDatabase(str(tmp_path / name))
            for period in periods:
                db.save("app", EventType.CYCLES, {0: 1}, period)
            rows.append(list(db.load_all()))
            record = db._load_manifest()["records"]["0000/app@cycles"]
            blobs.append(db._record_bytes(record, {}))
        assert [(counts, period) for _, _, counts, period in rows[0]] == [
            ({0: 2}, 2048)]
        assert rows[0] == rows[1]
        assert blobs[0] == blobs[1]

    def test_epochs_are_separate(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("app", EventType.CYCLES, {0: 1}, 100, epoch=0)
        db.save("app", EventType.CYCLES, {0: 9}, 100, epoch=1)
        assert db.load("app", EventType.CYCLES, epoch=0)[0] == {0: 1}
        assert db.load("app", EventType.CYCLES, epoch=1)[0] == {0: 9}
        assert db.epochs() == [0, 1]

    def test_profiles_listing(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("app", EventType.CYCLES, {0: 1}, 100)
        db.save("app", EventType.IMISS, {0: 1}, 50)
        listed = list(db.profiles())
        assert ("app", EventType.CYCLES) in listed
        assert ("app", EventType.IMISS) in listed

    def test_disk_bytes(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        assert db.disk_bytes() == 0
        db.save("app", EventType.CYCLES, {4 * i: 1 for i in range(100)},
                100)
        assert db.disk_bytes() > 100

    def test_image_names_with_slashes(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("/usr/shlib/X11/libos.so", EventType.CYCLES, {0: 1}, 100)
        counts, _ = db.load("/usr/shlib/X11/libos.so", EventType.CYCLES)
        assert counts == {0: 1}


class TestCorruptionHandling:
    """Satellite 2: typed errors, quarantine, and robust iteration."""

    def fill(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("app", EventType.CYCLES, {0: 5, 8: 2}, 100)
        db.save("lib", EventType.CYCLES, {4: 7}, 100)
        return db

    def corrupt(self, db, image="app"):
        record = db._load_manifest()["records"]["0000/%s@cycles" % image]
        path = os.path.join(db.root, record["file"])
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(bitflip_at_rest(data, seed=5))
        return record

    def test_decode_raises_typed_error(self):
        data = encode_profile({4: 1}, "app", EventType.CYCLES, 100)
        with pytest.raises(CorruptProfileError):
            decode_profile(data[:-3])
        with pytest.raises(CorruptProfileError):
            decode_profile(bitflip_at_rest(data, seed=1))
        # One whole blob, nothing behind its trailer.
        with pytest.raises(CorruptProfileError, match="after the profile"):
            decode_profile(data + data)
        # ... which is still a ValueError for legacy callers.
        assert issubclass(CorruptProfileError, ValueError)

    def test_load_quarantines_and_accounts(self, tmp_path):
        db = self.fill(tmp_path)
        self.corrupt(db)
        fresh = ProfileDatabase(str(tmp_path))
        with pytest.raises(CorruptProfileError):
            fresh.load("app", EventType.CYCLES)
        assert fresh.quarantined_samples() == 7  # declared total 5+2
        assert fresh.warnings
        # The file was moved aside, not deleted.
        quarantine = os.path.join(str(tmp_path), "quarantine")
        assert os.listdir(quarantine)

    def test_iteration_survives_corrupt_files(self, tmp_path):
        db = self.fill(tmp_path)
        self.corrupt(db)
        fresh = ProfileDatabase(str(tmp_path))
        loaded = {name: counts for name, _, counts, _ in fresh.load_all()}
        assert loaded == {"lib": {4: 7}}        # app skipped, lib kept
        assert list(fresh.profiles()) == [("lib", EventType.CYCLES)]
        assert fresh.epochs() == [0]

    def test_missing_file_quarantined_on_load(self, tmp_path):
        db = self.fill(tmp_path)
        record = db._load_manifest()["records"]["0000/app@cycles"]
        os.unlink(os.path.join(db.root, record["file"]))
        fresh = ProfileDatabase(str(tmp_path))
        with pytest.raises(CorruptProfileError, match="missing"):
            fresh.load("app", EventType.CYCLES)
        assert fresh.quarantined_samples() == 7

    def test_verify_reports_losses(self, tmp_path):
        db = self.fill(tmp_path)
        self.corrupt(db, image="lib")
        fresh = ProfileDatabase(str(tmp_path))
        report = fresh.verify()
        assert report["quarantined"] == 1
        assert report["lost_samples"] == 7
        assert fresh.total_samples() == 7  # app's 5+2 survive

    def test_unknown_version_is_quarantined_with_its_declared_total(
            self, tmp_path):
        """A blob whose version this code does not know -- intact
        otherwise, trailer included, under an intact record -- is
        damage like any other: typed, quarantined, accounted."""
        db = self.fill(tmp_path)
        record = db._load_manifest()["records"]["0000/app@cycles"]
        path = os.path.join(db.root, record["file"])
        with open(path, "rb") as handle:
            data = handle.read()
        body = data[:4] + struct.pack("<H", 4) + data[6:-4]
        future = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CorruptProfileError, match="version 4"):
            decode_profile(future)
        with open(path, "wb") as handle:
            handle.write(future)
        fresh = ProfileDatabase(str(tmp_path))
        loaded = {name: counts for name, _, counts, _ in fresh.load_all()}
        assert loaded == {"lib": {4: 7}}
        (entry,) = fresh.quarantined()
        assert entry["declared_total"] == 7 and "version 4" in entry["reason"]
        assert ProfileDatabase(str(tmp_path)).total_samples() == 7

    def test_intact_profile_under_the_wrong_record_is_quarantined(
            self, tmp_path):
        """The blob's trailer vouches for its bytes, not for whose they
        are: two records with their slices swapped both name intact
        profiles, and neither may be served."""
        db = self.fill(tmp_path)

        def swap_slices(manifest):
            app, lib = (manifest["records"]["0000/%s@cycles" % image]
                        for image in ("app", "lib"))
            for field in ("file", "offset", "length"):
                app[field], lib[field] = lib[field], app[field]

        rewrite_manifest(db, swap_slices)
        fresh = ProfileDatabase(str(tmp_path))
        with pytest.raises(CorruptProfileError):
            fresh.load("app", EventType.CYCLES)
        report = fresh.verify()
        assert (report["checked"], report["quarantined"]) == (0, 1)
        assert report["lost_samples"] == 14 and fresh.total_samples() == 0

    @pytest.mark.parametrize("mutate", [
        lambda record: record.pop("length"),
        lambda record: record.pop("file"),
        lambda record: record.update(length=str(record["length"])),
        lambda record: record.pop("epoch"),
        lambda record: record.pop("image"),
        lambda record: record.pop("event"),
    ], ids=["no-length", "no-file", "string-length", "no-epoch", "no-image",
            "no-event"])
    def test_malformed_record_is_a_typed_error_and_the_scan_continues(
            self, tmp_path, mutate):
        for name in ("scanned", "loaded"):
            rewrite_manifest(self.fill(tmp_path / name), lambda manifest: (
                mutate(manifest["records"]["0000/app@cycles"])))
        fresh = ProfileDatabase(str(tmp_path / "scanned"))
        # The listings skip the record before any scan quarantines it.
        assert fresh.epochs() == [0]
        assert list(fresh.profiles(0)) == [("lib", EventType.CYCLES)]
        assert [name for name, _, _, _ in fresh.load_all()] == ["lib"]
        (entry,) = fresh.quarantined()
        assert entry["declared_total"] == 7 and "malformed" in entry["reason"]
        assert ProfileDatabase(str(tmp_path / "scanned")).verify() == {
            "checked": 1, "quarantined": 0, "lost_samples": 7}
        with pytest.raises(CorruptProfileError, match="malformed"):
            ProfileDatabase(str(tmp_path / "loaded")).load(
                "app", EventType.CYCLES)


class TestCheckpoint:
    """The idempotent-replace checkpoint and its manifest commit."""

    PROFILES = {"app": {EventType.CYCLES: {0: 5, 4: 3}}}
    PERIODS = {EventType.CYCLES: 100}

    def test_checkpoint_is_idempotent(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        for _ in range(3):
            db.checkpoint(self.PROFILES, self.PERIODS, epoch=0,
                          meta={"epoch": 0})
        assert db.total_samples() == 8          # never 16 or 24
        counts, _ = db.load("app", EventType.CYCLES)
        assert counts == {0: 5, 4: 3}

    def test_checkpoint_replaces_not_merges(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        grown = {"app": {EventType.CYCLES: {0: 9, 4: 3, 8: 1}}}
        db.checkpoint(grown, self.PERIODS, epoch=0)
        counts, _ = db.load("app", EventType.CYCLES)
        assert counts == {0: 9, 4: 3, 8: 1}

    def test_checkpoint_drops_vanished_images(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        both = {"app": {EventType.CYCLES: {0: 1}},
                "lib": {EventType.CYCLES: {0: 2}}}
        db.checkpoint(both, self.PERIODS, epoch=0)
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        assert list(ProfileDatabase(str(tmp_path)).profiles()) == [
            ("app", EventType.CYCLES)]

    def test_checkpoint_meta_roundtrips(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        meta = {"epoch": 2, "total_samples": 8,
                "drained_seq": {"0": 5}}
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=2, meta=meta)
        assert ProfileDatabase(str(tmp_path)).checkpoint_meta() == meta

    def test_old_generation_files_are_collected(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        epoch_dir = os.path.join(str(tmp_path), "epoch0000")
        profs = [n for n in os.listdir(epoch_dir) if n.endswith(".prof")]
        assert len(profs) == 1                  # stale generation GC'd

    def test_scan_ignores_uncommitted_orphans(self, tmp_path):
        """Generation-suffixed files without a manifest are leftovers
        of a crashed commit; adopting them would double-count."""
        db = ProfileDatabase(str(tmp_path))
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        os.unlink(os.path.join(str(tmp_path), MANIFEST_NAME))
        fresh = ProfileDatabase(str(tmp_path))
        assert fresh.total_samples() == 0
        assert list(fresh.profiles()) == []

    def test_corrupt_manifest_rebuild_adopts_committed_files(
            self, tmp_path):
        """At-rest damage to the manifest must not turn committed,
        CRC-valid generation files into GC bait (silent total loss);
        the rebuild adopts them instead."""
        db = ProfileDatabase(str(tmp_path))
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
        with open(manifest_path, "rb") as handle:
            data = handle.read()
        with open(manifest_path, "wb") as handle:
            handle.write(data[:len(data) // 2])    # torn at rest
        fresh = ProfileDatabase(str(tmp_path))
        assert fresh.total_samples() == 8
        assert fresh.quarantined_samples() == 0
        counts, _ = fresh.load("app", EventType.CYCLES)
        assert counts == {0: 5, 4: 3}
        assert fresh.warnings
        # The next commit's GC must keep the adopted files.
        fresh.save("lib", EventType.CYCLES, {0: 1}, 100)
        assert ProfileDatabase(str(tmp_path)).total_samples() == 9

    def test_corrupt_manifest_rebuild_keeps_highest_generation(
            self, tmp_path):
        """Two generations of one key (a crash left the superseded
        file behind): the rebuild must pick the numerically highest
        generation, not the lexicographically last filename."""
        epoch_dir = os.path.join(str(tmp_path), "epoch0000")
        os.makedirs(epoch_dir)
        for gen, counts in ((2, {0: 1}), (10, {0: 1, 4: 2})):
            data = encode_profile(counts, "app", EventType.CYCLES, 100)
            with open(os.path.join(epoch_dir,
                                   "app@cycles.g%d.prof" % gen),
                      "wb") as handle:
                handle.write(data)
        with open(os.path.join(str(tmp_path), MANIFEST_NAME),
                  "w") as handle:
            handle.write("{not json")
        db = ProfileDatabase(str(tmp_path))
        counts, _ = db.load("app", EventType.CYCLES)
        assert counts == {0: 1, 4: 2}
        assert db._load_manifest()["generation"] == 10

    def test_corrupt_manifest_rebuild_salvages_quarantine_totals(
            self, tmp_path):
        """A generation file that fails its CRC during the rebuild is
        quarantined with a best-effort decoded total, not a silent 0."""
        db = ProfileDatabase(str(tmp_path))
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)  # total 8
        record = db._load_manifest()["records"]["0000/app@cycles"]
        path = os.path.join(db.root, record["file"])
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            # Zero the CRC trailer: the body stays fully decodable,
            # so the salvaged total should be exact.
            handle.write(data[:-4] + b"\0\0\0\0")
        manifest_path = os.path.join(str(tmp_path), MANIFEST_NAME)
        with open(manifest_path, "w") as handle:
            handle.write("{not json")
        fresh = ProfileDatabase(str(tmp_path))
        assert fresh.total_samples() == 0
        assert fresh.quarantined_samples() == 8

    def test_scan_still_adopts_legacy_files(self, tmp_path):
        """Pre-manifest databases (no .g<N> suffix) are scanned in."""
        epoch_dir = os.path.join(str(tmp_path), "epoch0000")
        os.makedirs(epoch_dir)
        data = encode_profile({0: 4}, "app", EventType.CYCLES, 100)
        with open(os.path.join(epoch_dir, "app@cycles.prof"),
                  "wb") as handle:
            handle.write(data)
        db = ProfileDatabase(str(tmp_path))
        counts, _ = db.load("app", EventType.CYCLES)
        assert counts == {0: 4}

    def test_manifest_commit_is_atomic_under_crash(self, tmp_path):
        """A crash during commit leaves the previous state intact and
        no staged records visible."""
        from repro.faults.injector import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec("db.checkpoint", "crash", hits=(2,)),), seed=1)
        db = ProfileDatabase(str(tmp_path), faults=plan.build())
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)   # hit 1: ok
        grown = {"app": {EventType.CYCLES: {0: 9, 4: 3, 8: 1}}}
        with pytest.raises(Exception, match="injected crash"):
            db.checkpoint(grown, self.PERIODS, epoch=0)       # hit 2
        # The staged mutation must not linger in memory or on disk.
        assert db.total_samples() == 8
        assert ProfileDatabase(str(tmp_path)).total_samples() == 8

    def test_injected_write_corruption_is_detected(self, tmp_path):
        from repro.faults.injector import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec("db.write", "bitflip", hits=(1,)),), seed=3)
        db = ProfileDatabase(str(tmp_path), faults=plan.build())
        db.checkpoint(self.PROFILES, self.PERIODS, epoch=0)
        fresh = ProfileDatabase(str(tmp_path))
        with pytest.raises(CorruptProfileError):
            fresh.load("app", EventType.CYCLES)
        assert fresh.quarantined_samples() == 8


class TestGarbageCollection:
    """GC by difference: a commit unlinks what the previous manifest
    referenced and the new one does not; the directory sweep is for a
    handle's first commit and for the one after a failed commit."""

    CYCLES = EventType.CYCLES
    PERIODS = {EventType.CYCLES: 100}

    def test_disk_matches_manifest_after_every_kind_of_commit(
            self, tmp_path, monkeypatch):
        db = ProfileDatabase(str(tmp_path))
        delta = {"app": {self.CYCLES: {0: 5, 4: 3}},
                 "lib": {self.CYCLES: {8: 2}}}
        steps = [
            lambda: db.merge_epoch(delta, self.PERIODS, 0),
            lambda: db.merge_epoch(delta, self.PERIODS, 0),
            lambda: db.merge_epoch(delta, self.PERIODS, 1),
            lambda: db.checkpoint({"app": {self.CYCLES: {0: 9}}},
                                  self.PERIODS, epoch=1),
            lambda: db.save("app", self.CYCLES, {0: 1}, 100, epoch=2),
            lambda: db.save("app", self.CYCLES, {0: 1}, 100, epoch=2),
            lambda: db.checkpoint({"app": {self.CYCLES: {4: 7}}},
                                  self.PERIODS, epoch=2),
            lambda: db.compact_epochs([0, 1], delta, self.PERIODS, 0),
            lambda: db.drop_epoch(2),
        ]
        sweeps = []
        real_gc = db._gc
        monkeypatch.setattr(
            db, "_gc", lambda ref: (sweeps.append(1), real_gc(ref)))
        for step in steps:
            step()
            assert files_on_disk(db) == files_in_manifest(db)
        assert len(sweeps) == 1         # the first commit, only
        assert db.epochs() == [0]
        # A segment lives until its last record is superseded: merging
        # "lib" alone leaves the compacted segment (it still holds
        # "app") beside the new one ...
        db.merge_epoch({"lib": delta["lib"]}, self.PERIODS, 0)
        assert files_on_disk(db) == files_in_manifest(db)
        assert len(files_on_disk(db)) == 2
        # ... and a quarantine (that file gone missing) commits from
        # the read path without touching its neighbour.
        victim = db._load_manifest()["records"]["0000/app@cycles"]["file"]
        os.unlink(os.path.join(db.root, victim))
        assert [name for name, _, _, _ in db.load_all(0)] == ["lib"]
        assert db.quarantined_samples() == 8
        assert files_on_disk(db) == files_in_manifest(db)
        assert victim not in files_in_manifest(db)

    def test_first_commit_of_a_handle_sweeps_orphans(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("app", self.CYCLES, {0: 5}, 100)
        epoch_dir = os.path.join(db.root, "epoch0000")
        for orphan in ("app@cycles.g99.prof", "app@cycles.g100.prof.tmp"):
            with open(os.path.join(epoch_dir, orphan), "wb") as handle:
                handle.write(b"left behind by a crashed writer")
        # The handle that was already committing does not look ...
        db.save("lib", self.CYCLES, {0: 1}, 100)
        assert len(files_on_disk(db)) == 4
        # ... a fresh one does, once.
        fresh = ProfileDatabase(str(tmp_path))
        fresh.save("lib", self.CYCLES, {0: 1}, 100)
        assert files_on_disk(fresh) == files_in_manifest(fresh)
        assert fresh.total_samples() == 7

    def test_commit_after_a_failed_commit_sweeps_its_orphans(
            self, tmp_path):
        from repro.faults.injector import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec("db.checkpoint", "crash", hits=(2,)),), seed=1)
        db = ProfileDatabase(str(tmp_path), faults=plan.build())
        db.save("app", self.CYCLES, {0: 5}, 100)
        with pytest.raises(Exception, match="injected crash"):
            db.save("app", self.CYCLES, {0: 1}, 100)
        assert len(files_on_disk(db)) == 2       # the orphan is there
        db.save("app", self.CYCLES, {0: 2}, 100)
        assert files_on_disk(db) == files_in_manifest(db)
        assert db.total_samples() == 7

    def test_manifest_is_compact_and_survives_a_tear(self, tmp_path):
        db = ProfileDatabase(str(tmp_path))
        db.save("app", self.CYCLES, {0: 5, 4: 3}, 100)
        path = os.path.join(db.root, MANIFEST_NAME)

        def assert_compact():
            with open(path) as handle:
                text = handle.read()
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      separators=(",", ":"))

        assert_compact()
        with open(path, "r+") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        rebuilt = ProfileDatabase(str(tmp_path))
        assert rebuilt.total_samples() == 8 and rebuilt.warnings
        rebuilt.update_checkpoint({"epoch": 0})
        assert_compact()
        assert ProfileDatabase(str(tmp_path)).total_samples() == 8


class TestCommitMark:
    """``COMMIT.seq``: what lets a handle under the writers' lock keep
    its cached manifest (see the module docstring)."""

    CYCLES = EventType.CYCLES

    def test_any_commit_by_another_handle_is_noticed(self, tmp_path):
        mine = ProfileDatabase(str(tmp_path))
        mine.save("app", self.CYCLES, {0: 5}, 100)
        assert mine.is_current()
        mine.save("app", self.CYCLES, {0: 1}, 100)
        assert mine.is_current()                # own commits keep it
        other = ProfileDatabase(str(tmp_path))
        assert other.total_samples() == 6 and other.is_current()
        other.update_checkpoint({"epoch": 0})   # profiles untouched
        assert other.is_current() and not mine.is_current()

    def test_unloaded_or_failed_handle_is_never_current(self, tmp_path):
        from repro.faults.injector import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec("db.checkpoint", "crash", hits=(2,)),), seed=1)
        db = ProfileDatabase(str(tmp_path), faults=plan.build())
        assert not db.is_current()
        db.save("app", self.CYCLES, {0: 5}, 100)
        assert db.is_current()
        with pytest.raises(Exception, match="injected crash"):
            db.save("app", self.CYCLES, {0: 1}, 100)
        assert not db.is_current()

    def test_damaged_mark_reads_as_changed_and_never_repeats(
            self, tmp_path):
        from repro.collect.database import COMMIT_MARK_NAME

        path = os.path.join(str(tmp_path), COMMIT_MARK_NAME)
        db = ProfileDatabase(str(tmp_path))
        db.save("app", self.CYCLES, {0: 5}, 100)
        with open(path, "rb") as handle:
            first = handle.read()
        db.save("app", self.CYCLES, {0: 1}, 100)
        with open(path, "wb") as handle:
            handle.write(b"\xff torn")
        assert not db.is_current()
        # The sequence restarts, but the mark carries the manifest's
        # CRC, so it cannot come back round to one a handle still holds.
        ProfileDatabase(str(tmp_path)).update_checkpoint({"epoch": 0})
        with open(path, "rb") as handle:
            restarted = handle.read()
        assert restarted.split()[0] == first.split()[0]
        assert restarted != first

    def test_same_history_same_bytes(self, tmp_path):
        """The sidecar is a pure function of the commits made, so
        byte-identity gates over whole database trees still hold."""
        from repro.collect.database import COMMIT_MARK_NAME

        marks = []
        for name in ("a", "b"):
            db = ProfileDatabase(str(tmp_path / name))
            db.save("app", self.CYCLES, {0: 5}, 100)
            db.save("lib", self.CYCLES, {4: 1}, 100)
            with open(os.path.join(db.root, COMMIT_MARK_NAME),
                      "rb") as handle:
                marks.append(handle.read())
        assert marks[0] == marks[1]
        assert int(marks[0].split()[0]) == 2


class TestImageProfile:
    def make(self):
        from repro.alpha.assembler import assemble

        image = assemble(
            ".image app\n.proc a\n    nop\n    nop\n    ret\n.end\n"
            ".proc b\n    nop\n    ret\n.end", base=0x1000)
        profile = ImageProfile(image, periods={EventType.CYCLES: 100.0})
        profile.add(EventType.CYCLES, 0, 10)
        profile.add(EventType.CYCLES, 4, 5)
        profile.add(EventType.CYCLES, 12, 3)
        return image, profile

    def test_total(self):
        _, profile = self.make()
        assert profile.total(EventType.CYCLES) == 18
        assert profile.total(EventType.IMISS) == 0

    def test_add_accumulates(self):
        _, profile = self.make()
        profile.add(EventType.CYCLES, 0, 1)
        assert profile.counts[EventType.CYCLES][0] == 11

    def test_samples_by_addr(self):
        image, profile = self.make()
        samples = profile.samples_by_addr(EventType.CYCLES)
        assert samples[0x1000] == 10

    def test_samples_for_procedure(self):
        image, profile = self.make()
        proc_b = image.procedure("b")
        samples = profile.samples_for(proc_b, EventType.CYCLES)
        assert samples == {0x100C: 3}

    def test_procedure_totals(self):
        image, profile = self.make()
        totals = profile.procedure_totals(EventType.CYCLES)
        assert totals == {"a": 15, "b": 3}
