"""A segment per commit: what a database commit costs and survives.

Counts, never clocks: a commit that writes profiles is two fsyncs
(segment, manifest) however many (image, event) profiles it carries,
one otherwise.  A state machine checks every mutator against a dict
model with a crash injected before the manifest rename, and damage
properties show that sharing a file did not share the blast radius of
a bit flip (a truncation costs the tail of one commit's segment).
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import examples, files_in_manifest, files_on_disk
from repro.collect.database import (MANIFEST_NAME, QUARANTINE_DIR,
                                    ProfileDatabase, _parse_blob,
                                    _walk_segment, encode_profile)
from repro.cpu.events import EventType
from repro.faults.injector import (NULL_INJECTOR, FaultPlan, FaultSpec,
                                   InjectedCrash)

CYCLES, IMISS = EventType.CYCLES, EventType.IMISS
PERIODS = {CYCLES: 100, IMISS: 50}


def _profiles(count):
    """*count* (image, event) profiles of different sizes."""
    return {"img%02d" % index:
            {CYCLES: {4 * slot: index + slot + 1
                      for slot in range(1 + index % 7)}}
            for index in range(count)}


def _contents(db):
    return {(epoch, image, event): counts
            for epoch in db.epochs()
            for image, event, counts, _ in db.load_all(epoch)}


def _records(db):
    return db._load_manifest()["records"]


def _salvaged(blob):
    """The total a manifest rebuild accounts a damaged span with."""
    (counts, *_), _ = _parse_blob(blob, salvage=True)
    return sum(counts.values())


# -- (a) what a commit costs --------------------------------------------------


@pytest.mark.parametrize("count", [1, 5, 40])
def test_a_commit_is_two_fsyncs_however_many_profiles(
        tmp_path, monkeypatch, count):
    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
    db = ProfileDatabase(str(tmp_path))

    def cost(commit):
        before, seen = db.io_counts(), len(fsyncs)
        commit()
        after = db.io_counts()
        delta = {key: after[key] - before[key] for key in after}
        assert delta["fsyncs"] == len(fsyncs) - seen
        assert delta["fsyncs"] == delta["files_written"]
        assert delta["manifest_bytes"] == os.path.getsize(
            os.path.join(db.root, MANIFEST_NAME))
        return delta

    first = cost(lambda: db.checkpoint(_profiles(count), PERIODS, epoch=0))
    assert first["fsyncs"] == 2 and first["unlinks"] == 0
    assert first["segment_bytes"] == db.disk_bytes()
    assert len(files_on_disk(db)) == 1 and len(_records(db)) == count
    # A checkpoint replaces the epoch: one new segment, the old one goes.
    again = cost(lambda: db.checkpoint(_profiles(count), PERIODS, epoch=0))
    assert (again["fsyncs"], again["unlinks"]) == (2, 1)
    assert again["segment_bytes"] == db.disk_bytes()
    merged = cost(lambda: db.merge_epoch(_profiles(count), PERIODS, 0))
    assert (merged["fsyncs"], merged["unlinks"]) == (2, 1)
    compacted = cost(lambda: db.compact_epochs(
        [0], _profiles(count), PERIODS, 1))
    assert (compacted["fsyncs"], compacted["unlinks"]) == (2, 1)
    # Commits that write no profile: the manifest alone.
    for commit in (lambda: db.update_checkpoint({"epoch": 1}),
                   lambda: db.merge_epoch({}, {}, 1, meta={"n": 1}),
                   lambda: db.drop_epoch(1)):
        assert cost(commit)["fsyncs"] == 1
    assert db.io_counts()["unlinks"] == 4 and files_on_disk(db) == set()


def test_segment_is_encoded_profiles_back_to_back(tmp_path):
    """No framing bytes: the records' slices tile the file exactly."""
    db = ProfileDatabase(str(tmp_path))
    profiles = _profiles(5)
    db.checkpoint(profiles, PERIODS, epoch=3)
    records = sorted(_records(db).values(), key=lambda r: r["offset"])
    (rel,) = {record["file"] for record in records}
    assert rel == os.path.join("epoch0003", "seg.g1.prof")
    with open(os.path.join(db.root, rel), "rb") as handle:
        data = handle.read()
    assert data == b"".join(
        encode_profile(profiles[image][CYCLES], image, CYCLES, 100, epoch=3)
        for image in sorted(profiles))
    cursor = 0
    for record in records:
        assert record["offset"] == cursor
        cursor += record["length"]
    assert cursor == len(data) == db.disk_bytes()
    # ... and the walker finds the same tiling with no record to guide
    # it: k blobs, k spans, each ending where the next begins.
    assert [(start, end, error) for start, end, _, error
            in _walk_segment(data)] == [
        (record["offset"], record["offset"] + record["length"], None)
        for record in records]


# -- (b) every mutator against a model, with a crash --------------------------

_counts = st.dictionaries(st.integers(0, 15).map(lambda slot: 4 * slot),
                          st.integers(1, 99), max_size=4)
_images = st.sampled_from(("app", "lib", "/vmunix"))
_events = st.sampled_from((CYCLES, IMISS))
_epochs = st.integers(0, 2)
_delta = st.dictionaries(
    _images, st.dictionaries(_events, _counts, min_size=1, max_size=2),
    max_size=3)
_ops = st.one_of(
    st.tuples(st.just("save"), _images, _events, _counts, _epochs),
    st.tuples(st.just("checkpoint"), _delta, _epochs),
    st.tuples(st.just("merge_epoch"), _delta, _epochs),
    st.tuples(st.just("drop_epoch"), _epochs),
    st.tuples(st.just("compact_epochs"),
              st.lists(_epochs, max_size=2), _delta, _epochs))


def _flat(delta, epoch):
    return {(epoch, image, event): dict(counts)
            for image, by_event in delta.items()
            for event, counts in by_event.items()}


def _merge_into(model, key, counts):
    merged = dict(model.get(key, {}))
    for offset, count in counts.items():
        merged[offset] = merged.get(offset, 0) + count
    model[key] = merged


def _apply_to_model(model, op):
    kind = op[0]
    if kind == "save":
        _, image, event, counts, epoch = op
        _merge_into(model, (epoch, image, event), counts)
    elif kind == "merge_epoch":
        for key, counts in _flat(op[1], op[2]).items():
            _merge_into(model, key, counts)
    else:
        if kind == "checkpoint":
            dropped = {op[2]}
        elif kind == "drop_epoch":
            dropped = {op[1]}
        else:
            dropped = set(op[1]) | {op[3]}
        for key in [key for key in model if key[0] in dropped]:
            del model[key]
        if kind != "drop_epoch":
            model.update(_flat(op[-2], op[-1]))


def _apply_to_db(db, op):
    kind = op[0]
    if kind == "save":
        _, image, event, counts, epoch = op
        db.save(image, event, counts, PERIODS[event], epoch=epoch)
    elif kind == "checkpoint":
        db.checkpoint(op[1], PERIODS, op[2])
    elif kind == "merge_epoch":
        db.merge_epoch(op[1], PERIODS, op[2])
    elif kind == "drop_epoch":
        db.drop_epoch(op[1])
    else:
        db.compact_epochs(op[1], op[2], PERIODS, op[3])


class DatabaseAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="dcpi-segments-")
        self.db = ProfileDatabase(self.root)
        self.model = {}

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(op=_ops)
    def commit(self, op):
        before = self.db.io_counts()
        _apply_to_db(self.db, op)
        _apply_to_model(self.model, op)
        # Every mutator is one commit: one manifest, at most one segment.
        after = self.db.io_counts()
        assert after["manifest_bytes"] - before["manifest_bytes"] \
            == os.path.getsize(os.path.join(self.root, MANIFEST_NAME))
        assert after["files_written"] - before["files_written"] in (1, 2)
        # Files on disk == files the manifest names, after every commit.
        assert files_on_disk(self.db) == files_in_manifest(self.db)

    @rule(op=_ops)
    def crash_before_the_rename(self, op):
        self.db.faults = FaultPlan(specs=(
            FaultSpec("db.checkpoint", "crash", hits=(1,)),),
            seed=1).build()
        with pytest.raises(InjectedCrash):
            _apply_to_db(self.db, op)
        self.db.faults = NULL_INJECTOR
        # The model did not move; neither did what a new handle sees.
        assert _contents(ProfileDatabase(self.root)) == self.model

    @invariant()
    def handle_agrees_with_model(self):
        assert _contents(self.db) == self.model
        assert self.db.quarantined_samples() == 0


TestDatabaseAgainstModel = DatabaseAgainstModel.TestCase
TestDatabaseAgainstModel.settings = settings(
    max_examples=examples(25), stateful_step_count=25, deadline=None)


# -- (c) damage to a segment that several records share -----------------------

SHARED = _profiles(6)
TOTALS = {image: sum(by_event[CYCLES].values())
          for image, by_event in SHARED.items()}


class _SharedSegment:
    """A fresh database whose six profiles share one segment."""

    def __enter__(self):
        self.root = tempfile.mkdtemp(prefix="dcpi-segments-")
        db = ProfileDatabase(self.root)
        db.checkpoint(SHARED, PERIODS, epoch=0)
        self.records = {record["image"]: record
                        for record in _records(db).values()}
        (rel,) = {record["file"] for record in self.records.values()}
        self.path = os.path.join(self.root, rel)
        with open(self.path, "rb") as handle:
            self.data = handle.read()
        return self

    def __exit__(self, *exc_info):
        shutil.rmtree(self.root, ignore_errors=True)

    def damage(self, data, destroy_manifest):
        with open(self.path, "wb") as handle:
            handle.write(data)
        if destroy_manifest:
            with open(os.path.join(self.root, MANIFEST_NAME), "w") as handle:
                handle.write("{torn")
        fresh = ProfileDatabase(self.root)
        return fresh, {image: counts
                       for image, _, counts, _ in fresh.load_all(0)}

    def covering(self, index):
        return [image for image, record in self.records.items()
                if record["offset"] <= index
                < record["offset"] + record["length"]]

    def slice_of(self, image, data):
        record = self.records[image]
        return data[record["offset"]:record["offset"] + record["length"]]


SEGMENT_BYTES = sum(
    len(encode_profile(by_event[CYCLES], image, CYCLES, 100))
    for image, by_event in SHARED.items())


def _flipped(data, index, mask):
    return data[:index] + bytes((data[index] ^ mask,)) + data[index + 1:]


@settings(max_examples=examples(250), deadline=None)
@given(st.integers(0, SEGMENT_BYTES - 1), st.integers(1, 255))
def test_flipped_byte_costs_exactly_the_record_it_lands_in(index, mask):
    with _SharedSegment() as seg:
        (victim,) = seg.covering(index)
        fresh, loaded = seg.damage(_flipped(seg.data, index, mask), False)
        assert loaded == {image: SHARED[image][CYCLES]
                          for image in SHARED if image != victim}
        assert [entry["declared_total"] for entry in fresh.quarantined()] \
            == [TOTALS[victim]]
        # The damaged slice was copied aside; the segment, which five
        # live records still name, was not touched.
        (aside,) = os.listdir(os.path.join(seg.root, QUARANTINE_DIR))
        with open(os.path.join(seg.root, QUARANTINE_DIR, aside),
                  "rb") as handle:
            assert handle.read() == seg.slice_of(
                victim, _flipped(seg.data, index, mask))
        assert os.path.getsize(seg.path) == len(seg.data)
        assert ProfileDatabase(seg.root).total_samples() == (
            sum(TOTALS.values()) - TOTALS[victim])


@settings(max_examples=examples(250), deadline=None)
@given(st.integers(0, SEGMENT_BYTES - 1))
def test_truncation_keeps_the_records_wholly_before_it(cut):
    with _SharedSegment() as seg:
        whole = {image for image, record in seg.records.items()
                 if record["offset"] + record["length"] <= cut}
        fresh, loaded = seg.damage(seg.data[:cut], False)
        assert loaded == {image: SHARED[image][CYCLES] for image in whole}
        assert fresh.quarantined_samples() == sum(
            total for image, total in TOTALS.items() if image not in whole)
        # Nothing names the segment once its last record is gone.
        assert os.path.exists(seg.path) == bool(whole)


@settings(max_examples=examples(250), deadline=None)
@given(st.integers(0, SEGMENT_BYTES - 1), st.integers(1, 255))
def test_rebuild_resynchronises_after_a_flipped_byte(index, mask):
    """``MANIFEST.json`` destroyed *and* one byte flipped: the scan
    walks the segment blob by blob and loses the damaged span only."""
    with _SharedSegment() as seg:
        (victim,) = seg.covering(index)
        damaged = _flipped(seg.data, index, mask)
        fresh, loaded = seg.damage(damaged, True)
        siblings = {image: SHARED[image][CYCLES]
                    for image in SHARED if image != victim}
        assert fresh.quarantined_samples() == _salvaged(
            seg.slice_of(victim, damaged))
        assert loaded == siblings
        assert fresh.warnings


@settings(max_examples=examples(250), deadline=None)
@given(st.integers(0, SEGMENT_BYTES - 1))
def test_rebuild_of_a_truncated_segment_accounts_the_torn_tail(cut):
    with _SharedSegment() as seg:
        whole = {image for image, record in seg.records.items()
                 if record["offset"] + record["length"] <= cut}
        fresh, loaded = seg.damage(seg.data[:cut], True)
        assert loaded == {image: SHARED[image][CYCLES] for image in whole}
        torn = [seg.slice_of(image, seg.data[:cut])
                for image in seg.covering(cut - 1) if image not in whole]
        assert fresh.quarantined_samples() == sum(map(_salvaged, torn))
        assert len(fresh.quarantined()) == len(torn)


def test_torn_write_of_one_profile_costs_that_profile(tmp_path):
    """``db.write`` faults stay per profile: the sibling slices of the
    same commit's segment are where their records say they are."""
    plan = FaultPlan(specs=(
        FaultSpec("db.write", "truncate", hits=(3,)),), seed=2)
    db = ProfileDatabase(str(tmp_path), faults=plan.build())
    db.checkpoint(SHARED, PERIODS, epoch=0)
    victim = sorted(SHARED)[2]
    fresh = ProfileDatabase(str(tmp_path))
    assert {image for image, _, _, _ in fresh.load_all(0)} \
        == set(SHARED) - {victim}
    assert fresh.quarantined_samples() == TOTALS[victim]


# -- (d) damage to the manifest itself ----------------------------------------


def test_no_flipped_manifest_bit_is_served_or_loses_a_sample(tmp_path):
    """``MANIFEST.json`` with one bit flipped either no longer parses
    or fails its ``CRC`` field; both are a damaged manifest, rebuilt
    from the segments.  Never a raw ``KeyError`` (``"puarantined"``),
    never a record silently dropped (``"1000/app@cycles"``) or served
    with another slice or total.  One bit of every byte in tier-1, all
    eight under the ``explore`` profile."""
    db = ProfileDatabase(str(tmp_path))
    db.save("app", CYCLES, {0: 5, 8: 2}, 100)
    db.save("lib", CYCLES, {4: 7}, 100)
    path = os.path.join(db.root, MANIFEST_NAME)
    with open(path, "rb") as handle:
        intact = handle.read()
    for index in range(len(intact)):
        for bit in range(index, index + min(8, examples(1))):
            with open(path, "wb") as handle:
                handle.write(_flipped(intact, index, 1 << bit % 8))
            fresh = ProfileDatabase(db.root)
            report = fresh.verify()
            assert (report["checked"], report["lost_samples"]) == (2, 0)
            assert fresh.total_samples() == 14
            assert "rebuilt" in fresh.warnings[0], (index, bit)
    with open(path, "wb") as handle:
        handle.write(intact)
    intact_again = ProfileDatabase(db.root)
    assert intact_again.total_samples() == 14 and not intact_again.warnings
