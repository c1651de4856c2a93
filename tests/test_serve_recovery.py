"""Checkpoint recovery edge cases (satellite of the service-mode PR).

The durable layer (``repro.faults.checkpoint``) must *detect* every way a
file can be wrong — truncation, foreign bytes, version skew, bit rot,
unpicklable payloads — and the service recovery path must degrade to the
newest file that passes verification instead of dying on the damaged
one.  Also covered: checkpoints taken mid-transmission (the in-flight
packet's finish event must re-arm exactly), double recovery (a crash
after a recovery recovers again), and store pruning.
"""

import os
import pickle
import struct

import pytest

from repro.errors import CheckpointError
from repro.faults.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointStore,
    EncodedPayload,
    encode_payload,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve import ServiceRunner, build_service_spec

_HEADER = struct.Struct(">4sIQ32s")


def spec():
    return build_service_spec(flows=4, rate=1e6, duration=0.5, seed=11,
                              waves=2)


def newest(directory):
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("ckpt-") and n.endswith(".bin"))
    assert names, f"no checkpoints in {directory}"
    return os.path.join(directory, names[-1])


# ----------------------------------------------------------------------
# load_checkpoint: every defect is a typed error, never garbage
# ----------------------------------------------------------------------
class TestLoadDefects:
    def write(self, tmp_path, payload=None):
        path = tmp_path / "ckpt-00000001.bin"
        save_checkpoint(path, payload if payload is not None else {"x": 1})
        return path

    def reason(self, path):
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        return err.value.reason

    def test_roundtrip(self, tmp_path):
        path = self.write(tmp_path, {"clock": 0.25, "rows": [1, 2, 3]})
        assert load_checkpoint(path) == {"clock": 0.25, "rows": [1, 2, 3]}

    def test_truncated_header(self, tmp_path):
        path = self.write(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:_HEADER.size - 5])
        assert self.reason(path) == "truncated"

    def test_truncated_payload(self, tmp_path):
        path = self.write(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        assert self.reason(path) == "truncated"

    def test_length_beyond_file_is_truncated(self, tmp_path):
        """A corrupt length field is checked against the file size, never
        used as a read size."""
        path = self.write(tmp_path)
        blob = bytearray(path.read_bytes())
        magic, version, _length, digest = _HEADER.unpack(blob[:_HEADER.size])
        blob[:_HEADER.size] = _HEADER.pack(magic, version, 2 ** 62, digest)
        path.write_bytes(bytes(blob))
        assert self.reason(path) == "truncated"

    def test_trailing_bytes_are_truncated(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        assert self.reason(path) == "truncated"

    def test_foreign_file(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(b"PK\x03\x04 definitely a zip" + b"\x00" * 64)
        assert self.reason(path) == "magic"

    def test_version_mismatch(self, tmp_path):
        path = self.write(tmp_path)
        blob = bytearray(path.read_bytes())
        magic, _v, length, digest = _HEADER.unpack(blob[:_HEADER.size])
        blob[:_HEADER.size] = _HEADER.pack(
            magic, CHECKPOINT_VERSION + 1, length, digest)
        path.write_bytes(bytes(blob))
        assert self.reason(path) == "version"

    def test_bit_rot(self, tmp_path):
        path = self.write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit; header stays intact
        path.write_bytes(bytes(blob))
        assert self.reason(path) == "digest"

    def test_unpicklable_payload_refused_at_save(self, tmp_path):
        with pytest.raises(CheckpointError) as err:
            save_checkpoint(tmp_path / "ckpt-00000001.bin",
                            {"fn": lambda: None})
        assert err.value.reason == "pickle"

    def test_encoded_payload_written_as_is(self, tmp_path):
        encoded = encode_payload({"clock": 0.5, "rows": [4, 5]})
        assert isinstance(encoded, EncodedPayload)
        path = tmp_path / "ckpt-00000001.bin"
        size = save_checkpoint(path, encoded)
        assert path.read_bytes()[_HEADER.size:] == encoded.blob
        assert size == _HEADER.size + len(encoded.blob)
        assert load_checkpoint(path) == {"clock": 0.5, "rows": [4, 5]}

    def test_plain_bytes_payload_is_still_pickled(self, tmp_path):
        path = self.write(tmp_path, b"raw bytes")
        assert load_checkpoint(path) == b"raw bytes"

    def test_unpicklable_payload_refused_at_encode(self):
        with pytest.raises(CheckpointError) as err:
            encode_payload({"fn": lambda: None})
        assert err.value.reason == "pickle"

    def test_magic_and_version_exported(self):
        assert CHECKPOINT_MAGIC == b"RPCK"
        assert isinstance(CHECKPOINT_VERSION, int)


# ----------------------------------------------------------------------
# CheckpointStore: skip damaged, keep newest good, prune old
# ----------------------------------------------------------------------
class TestStore:
    def test_load_latest_skips_damaged_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=5)
        store.save({"n": 1})
        store.save({"n": 2})
        bad = store.save({"n": 3})
        with open(bad, "r+b") as fh:
            fh.seek(0)
            fh.write(b"XXXX")
        skips = []
        probe = CheckpointStore(
            tmp_path, keep=5,
            on_skip=lambda path, exc: skips.append((path, exc.reason)))
        payload, path = probe.load_latest()
        assert payload == {"n": 2}
        assert skips == [(bad, "magic")]
        assert os.path.exists(bad)  # skipped, never deleted

    def test_load_latest_skips_impossible_length(self, tmp_path):
        """A newest file whose header promises 2**62 payload bytes is
        skipped as truncated; recovery falls back to the older file."""
        store = CheckpointStore(tmp_path, keep=5)
        store.save({"n": 1})
        bad = store.save({"n": 2})
        with open(bad, "r+b") as fh:
            magic, version, _length, digest = _HEADER.unpack(
                fh.read(_HEADER.size))
            fh.seek(0)
            fh.write(_HEADER.pack(magic, version, 2 ** 62, digest))
        skips = []
        probe = CheckpointStore(
            tmp_path, on_skip=lambda path, exc: skips.append((path,
                                                              exc.reason)))
        assert probe.load_latest() == ({"n": 1}, store.path_for(1))
        assert skips == [(bad, "truncated")]

    def test_load_latest_empty_dir(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() == (None, None)

    def test_prune_respects_keep(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        paths = [store.save({"n": i}) for i in range(6)]
        remaining = sorted(n for n in os.listdir(tmp_path)
                           if n.startswith("ckpt-"))
        assert remaining == [os.path.basename(p) for p in paths[-2:]]

    def test_sequence_resumes_after_reopen(self, tmp_path):
        CheckpointStore(tmp_path).save({"n": 1})
        path = CheckpointStore(tmp_path).save({"n": 2})
        assert path.endswith("ckpt-00000002.bin")


# ----------------------------------------------------------------------
# Service recovery through damaged files
# ----------------------------------------------------------------------
class TestServiceRecovery:
    def test_recover_skips_corrupt_newest_and_stays_exact(self, tmp_path):
        """Corrupting the newest checkpoint degrades recovery to the
        previous good one — and the replay is still digest-exact."""
        baseline = ServiceRunner(spec(), checkpoint_every=0.05)
        baseline.run_to(0.5)

        victim = ServiceRunner(spec(), checkpoint_dir=tmp_path,
                               checkpoint_every=0.05)
        victim.run_to(0.33)
        del victim
        damaged = newest(tmp_path)
        with open(damaged, "r+b") as fh:
            fh.truncate(20)

        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        categories = [e.category for e in survivor.incidents]
        assert categories == ["checkpoint-skipped", "crash-recovered"]
        skipped = survivor.incidents[0]
        assert skipped.target == damaged and "truncated" in skipped.detail
        survivor.run_to(0.5)
        assert survivor.digest == baseline.digest
        assert survivor.trace.rows == baseline.trace.rows

    def test_checkpoint_file_holds_the_rollback_encoding(self, tmp_path):
        """One encoding feeds both the durable file and the in-memory
        quarantine rollback target."""
        runner = ServiceRunner(spec(), checkpoint_dir=tmp_path,
                               checkpoint_every=0.05)
        runner.run_to(0.12)
        path = runner.checkpoint()
        with open(path, "rb") as fh:
            assert fh.read()[_HEADER.size:] == runner._last_payload.blob
        assert isinstance(runner._last_payload, EncodedPayload)

    def test_whole_chunk_source_snapshots_recover(self, tmp_path):
        """A checkpoint whose source snapshots carry whole timetable
        chunks plus cursors (the earlier layout, same format version)
        recovers to the same digest."""
        baseline = ServiceRunner(spec(), checkpoint_every=0.05)
        baseline.run_to(0.5)

        victim = ServiceRunner(spec(), checkpoint_every=0.05)
        victim.run_to(0.1)
        payload = pickle.loads(victim._last_payload.blob)
        widened = 0
        for source, snap in zip(victim.sources, payload["sources"]):
            if snap["timetable"]:
                snap["timetable"] = list(source._timetable)
                snap["timetable_idx"] = source._timetable_idx
                widened += 1
        assert widened
        save_checkpoint(tmp_path / "ckpt-00000001.bin", payload)
        del victim

        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        survivor.run_to(0.5)
        assert survivor.digest == baseline.digest
        assert survivor.trace.rows == baseline.trace.rows

    def test_recover_all_damaged_raises_missing(self, tmp_path):
        victim = ServiceRunner(spec(), checkpoint_dir=tmp_path,
                               checkpoint_every=0.1, keep=2)
        victim.run_to(0.4)
        del victim
        for name in os.listdir(tmp_path):
            if name.startswith("ckpt-"):
                (tmp_path / name).write_bytes(b"garbage")
        with pytest.raises(CheckpointError) as err:
            ServiceRunner.recover(tmp_path)
        assert err.value.reason == "missing"

    def test_mid_transmission_checkpoint_rearms_in_flight(self, tmp_path):
        """A checkpoint boundary landing mid-transmission snapshots the
        in-flight packet; recovery re-arms its finish event exactly."""
        baseline = ServiceRunner(spec(), checkpoint_every=0.05)
        baseline.run_to(0.5)

        victim = ServiceRunner(spec(), checkpoint_dir=tmp_path,
                               checkpoint_every=0.05, keep=10)
        victim.run_to(0.3)
        in_flight = [p["link"]["current"]
                     for p in map(load_checkpoint,
                                  (os.path.join(tmp_path, n)
                                   for n in sorted(os.listdir(tmp_path))
                                   if n.startswith("ckpt-")))]
        # At ~90% offered load some boundary must catch the link busy.
        assert any(cur is not None for cur in in_flight)
        del victim

        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        survivor.run_to(0.5)
        assert survivor.digest == baseline.digest

    def test_double_recovery(self, tmp_path):
        """Crashing again after a recovery recovers again — state carried
        through two generations stays exact."""
        baseline = ServiceRunner(spec(), checkpoint_every=0.05)
        baseline.run_to(0.5)

        first = ServiceRunner(spec(), checkpoint_dir=tmp_path,
                              checkpoint_every=0.05)
        first.run_to(0.18)
        del first
        second = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        assert second.recoveries == 1
        second.run_to(0.37)
        del second
        third = ServiceRunner.recover(tmp_path, checkpoint_every=0.05)
        assert third.recoveries == 2
        third.run_to(0.5)
        assert third.digest == baseline.digest
        assert third.trace.rows == baseline.trace.rows

    def test_recovery_continues_checkpoint_cadence(self, tmp_path):
        victim = ServiceRunner(spec(), checkpoint_dir=tmp_path,
                               checkpoint_every=0.1, keep=100)
        victim.run_to(0.25)
        count = len(os.listdir(tmp_path))
        del victim
        survivor = ServiceRunner.recover(tmp_path, checkpoint_every=0.1,
                                         keep=100)
        survivor.run_to(0.5)
        assert len(os.listdir(tmp_path)) > count  # new boundaries fired
