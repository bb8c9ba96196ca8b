"""Tests for FlatFS: a real file system on byte-granular persistence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FlatFlash, UnifiedMMap, small_config
from repro.apps.filesystem import FileSystemKind, make_filesystem
from repro.apps.flatfs import DIRECT_BLOCKS, FlatFS, FsError
from repro.experiments.common import scaled_config
from repro.workloads.filebench import CREATE_FILE, RENAME_FILE, repeated_ops


def make_fs(num_inodes=32, data_blocks=48):
    config = small_config()
    config.geometry.dram_pages = 32
    config.geometry.ssd_pages = 8_192
    config.geometry.ssd_cache_pages = 64
    return FlatFS(
        FlatFlash(config.validate()), num_inodes=num_inodes, data_blocks=data_blocks
    )


class TestBasicOps:
    def test_create_and_exists(self):
        fs = make_fs()
        fs.create("/hello.txt")
        assert fs.exists("/hello.txt")
        assert not fs.exists("/other.txt")
        assert fs.listdir("/") == ["hello.txt"]

    def test_create_duplicate_rejected(self):
        fs = make_fs()
        fs.create("/a")
        with pytest.raises(FsError):
            fs.create("/a")

    def test_write_read_round_trip(self):
        fs = make_fs()
        fs.create("/data.bin")
        payload = bytes(range(256)) * 20
        fs.write_file("/data.bin", payload)
        assert fs.read_file("/data.bin") == payload
        assert fs.stat("/data.bin")["size"] == len(payload)

    def test_empty_file(self):
        fs = make_fs()
        fs.create("/empty")
        assert fs.read_file("/empty") == b""

    def test_overwrite_shrinks_and_frees_blocks(self):
        fs = make_fs()
        fs.create("/f")
        fs.write_file("/f", b"x" * (3 * 4_096))
        used_before = sum(fs._bitmap_get(b) for b in range(fs.data_blocks))
        fs.write_file("/f", b"y" * 10)
        used_after = sum(fs._bitmap_get(b) for b in range(fs.data_blocks))
        assert used_after < used_before
        assert fs.read_file("/f") == b"y" * 10

    def test_file_too_big_rejected(self):
        fs = make_fs(data_blocks=DIRECT_BLOCKS + 8)
        fs.create("/big")
        with pytest.raises(FsError):
            fs.write_file("/big", b"z" * (DIRECT_BLOCKS + 1) * 4_096)

    def test_mkdir_and_nested_paths(self):
        fs = make_fs()
        fs.mkdir("/docs")
        fs.mkdir("/docs/sub")
        fs.create("/docs/sub/readme")
        fs.write_file("/docs/sub/readme", b"nested!")
        assert fs.read_file("/docs/sub/readme") == b"nested!"
        assert fs.listdir("/docs") == ["sub"]
        assert fs.listdir("/docs/sub") == ["readme"]

    def test_unlink_file(self):
        fs = make_fs()
        fs.create("/gone")
        fs.write_file("/gone", b"abc" * 100)
        fs.unlink("/gone")
        assert not fs.exists("/gone")
        with pytest.raises(FsError):
            fs.read_file("/gone")

    def test_unlink_nonempty_dir_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(FsError):
            fs.unlink("/d")
        fs.unlink("/d/f")
        fs.unlink("/d")
        assert not fs.exists("/d")

    def test_rename_within_dir(self):
        fs = make_fs()
        fs.create("/old")
        fs.write_file("/old", b"content")
        fs.rename("/old", "/new")
        assert not fs.exists("/old")
        assert fs.read_file("/new") == b"content"

    def test_rename_across_dirs(self):
        fs = make_fs()
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.create("/a/f")
        fs.rename("/a/f", "/b/g")
        assert fs.listdir("/a") == []
        assert fs.listdir("/b") == ["g"]

    def test_rename_onto_existing_rejected(self):
        fs = make_fs()
        fs.create("/x")
        fs.create("/y")
        with pytest.raises(FsError):
            fs.rename("/x", "/y")

    def test_long_name_rejected(self):
        fs = make_fs()
        with pytest.raises(FsError):
            fs.create("/" + "n" * 40)

    def test_missing_parent_rejected(self):
        fs = make_fs()
        with pytest.raises(FsError):
            fs.create("/nope/file")

    def test_inode_exhaustion(self):
        fs = make_fs(num_inodes=4)
        fs.create("/a")
        fs.create("/b")
        fs.create("/c")
        with pytest.raises(FsError):
            fs.create("/d")

    def test_inodes_recycled_after_unlink(self):
        fs = make_fs(num_inodes=4)
        for round_index in range(6):
            fs.create("/tmp")
            fs.unlink("/tmp")

    def test_metadata_ops_are_byte_granular(self):
        fs = make_fs()
        before = fs.system.stats.counters().get("pmem.persist_stores", 0)
        fs.create("/f")
        after = fs.system.stats.counters()["pmem.persist_stores"]
        assert after > before  # inode went through the byte-persist path


class TestCrashRecovery:
    def crash_and_recover(self, fs):
        fs.system.ssd.crash()
        return fs.recover()

    def test_created_file_survives_crash(self):
        fs = make_fs()
        fs.create("/keep")
        self.crash_and_recover(fs)
        assert fs.exists("/keep")

    def test_write_metadata_survives_crash(self):
        fs = make_fs()
        fs.create("/f")
        fs.write_file("/f", b"durable" * 10)
        self.crash_and_recover(fs)
        assert fs.stat("/f")["size"] == 70

    def test_rename_survives_crash(self):
        fs = make_fs()
        fs.create("/before")
        fs.rename("/before", "/after")
        self.crash_and_recover(fs)
        assert fs.exists("/after")
        assert not fs.exists("/before")

    def test_unlink_survives_crash(self):
        fs = make_fs()
        fs.create("/f")
        fs.unlink("/f")
        self.crash_and_recover(fs)
        assert not fs.exists("/f")

    def test_recovery_is_idempotent(self):
        fs = make_fs()
        fs.create("/f")
        fs.mkdir("/d")
        fs.system.ssd.crash()
        fs.recover()
        fs.system.ssd.crash()
        fs.recover()  # double recovery must not corrupt anything
        assert fs.exists("/f")
        assert fs.exists("/d")
        fs.create("/d/g")  # and the fs keeps working
        assert fs.listdir("/d") == ["g"]

    def test_checkpoint_truncates_journal(self):
        fs = make_fs()
        fs.create("/a")
        fs.checkpoint()
        assert fs.wal.records() == []
        fs.system.ssd.crash()
        assert fs.recover() == 0
        assert fs.exists("/a")


@settings(deadline=None, max_examples=12)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["create", "mkdir", "unlink", "rename"]),
            st.integers(0, 5),
            st.integers(0, 5),
        ),
        min_size=1,
        max_size=15,
    ),
    st.integers(0, 15),
)
def test_crash_anywhere_namespace_consistent(ops, crash_after):
    """Execute a namespace-op prefix, crash, recover: the recovered tree
    must equal the executed prefix exactly."""
    fs = make_fs(num_inodes=24, data_blocks=32)
    model = set()
    executed = 0
    for op, a, b in ops:
        if executed == crash_after:
            break
        name, other = f"/n{a}", f"/n{b}"
        try:
            if op == "create":
                fs.create(name)
                model.add(name)
            elif op == "mkdir":
                fs.mkdir(name)
                model.add(name)
            elif op == "unlink":
                fs.unlink(name)
                model.discard(name)
            else:
                fs.rename(name, other)
                model.discard(name)
                model.add(other)
        except FsError:
            continue  # invalid op against current state: skipped by both
        executed += 1
    fs.system.ssd.crash()
    fs.recover()
    assert set("/" + name for name in fs.listdir("/")) == model


class TestHardLinksAndAppend:
    def test_link_shares_content(self):
        fs = make_fs()
        fs.create("/orig")
        fs.write_file("/orig", b"shared bytes")
        fs.link("/orig", "/alias")
        assert fs.read_file("/alias") == b"shared bytes"
        assert fs.stat("/orig")["ino"] == fs.stat("/alias")["ino"]
        assert fs.stat("/orig")["nlink"] == 2

    def test_write_through_one_name_visible_through_other(self):
        fs = make_fs()
        fs.create("/a")
        fs.link("/a", "/b")
        fs.write_file("/b", b"updated")
        assert fs.read_file("/a") == b"updated"

    def test_unlink_one_name_keeps_the_other(self):
        fs = make_fs()
        fs.create("/a")
        fs.write_file("/a", b"keep")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert not fs.exists("/a")
        assert fs.read_file("/b") == b"keep"
        assert fs.stat("/b")["nlink"] == 1

    def test_unlink_last_name_frees_inode_and_blocks(self):
        fs = make_fs()
        fs.create("/a")
        fs.write_file("/a", b"x" * 4_096)
        fs.link("/a", "/b")
        used = sum(fs._bitmap_get(blk) for blk in range(fs.data_blocks))
        fs.unlink("/a")
        assert sum(fs._bitmap_get(blk) for blk in range(fs.data_blocks)) == used
        fs.unlink("/b")
        assert sum(fs._bitmap_get(blk) for blk in range(fs.data_blocks)) == used - 1

    def test_link_to_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        with pytest.raises(FsError):
            fs.link("/d", "/d2")

    def test_link_survives_crash(self):
        fs = make_fs()
        fs.create("/a")
        fs.link("/a", "/b")
        fs.system.ssd.crash()
        fs.recover()
        assert fs.stat("/b")["nlink"] == 2

    def test_append(self):
        fs = make_fs()
        fs.create("/log")
        fs.append_file("/log", b"line1\n")
        fs.append_file("/log", b"line2\n")
        assert fs.read_file("/log") == b"line1\nline2\n"

    def test_append_across_block_boundary(self):
        fs = make_fs()
        fs.create("/big")
        fs.write_file("/big", b"a" * 4_090)
        fs.append_file("/big", b"b" * 20)
        data = fs.read_file("/big")
        assert len(data) == 4_110
        assert data.endswith(b"b" * 20)


class TestFsck:
    def test_fresh_fs_is_clean(self):
        assert make_fs().fsck() == []

    def test_clean_after_mixed_operations(self):
        fs = make_fs()
        fs.mkdir("/d")
        fs.create("/d/a")
        fs.write_file("/d/a", b"x" * 5_000)
        fs.link("/d/a", "/alias")
        fs.create("/b")
        fs.rename("/b", "/d/b")
        fs.unlink("/alias")
        fs.write_file("/d/a", b"short")
        assert fs.fsck() == []

    def test_detects_leaked_block(self):
        fs = make_fs()
        fs._bitmap_set(17, True)  # corrupt: bit set, no owner
        assert any("leaked block 17" in p for p in fs.fsck())

    def test_detects_dangling_dirent(self):
        fs = make_fs()
        fs.create("/f")
        ino = fs.stat("/f")["ino"]
        fs._set_inode(ino, 0, 0, 0, [0] * 10)  # free the inode behind the name
        assert any("free inode" in p for p in fs.fsck())

    def test_detects_bad_nlink(self):
        fs = make_fs()
        fs.create("/f")
        ino = fs.stat("/f")["ino"]
        fs._set_inode(ino, 1, 5, 0, [0] * 10)  # nlink=5 with one dirent
        assert any("nlink=5" in p for p in fs.fsck())


@settings(deadline=None, max_examples=10)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["create", "mkdir", "write", "link", "unlink", "rename"]),
            st.integers(0, 5),
            st.integers(0, 5),
            st.integers(0, 6_000),
        ),
        min_size=1,
        max_size=20,
    ),
    st.booleans(),
)
def test_fsck_clean_after_anything_including_crash(ops, crash_at_end):
    """Whatever sequence of operations runs — including a crash plus
    recovery — the file system's structural invariants must hold."""
    fs = make_fs(num_inodes=24, data_blocks=40)
    for op, a, b, size in ops:
        name, other = f"/n{a}", f"/n{b}"
        try:
            if op == "create":
                fs.create(name)
            elif op == "mkdir":
                fs.mkdir(name)
            elif op == "write":
                fs.write_file(name, b"w" * size)
            elif op == "link":
                fs.link(name, other)
            elif op == "unlink":
                fs.unlink(name)
            else:
                fs.rename(name, other)
        except FsError:
            continue
    if crash_at_end:
        fs.system.ssd.crash()
        fs.recover()
    assert fs.fsck() == []


def test_metadata_ops_beat_block_journaling():
    """Creates and renames on FlatFS (byte-granular journal, battery-backed
    durability) beat the block-journaling EXT4 model over UnifiedMMap, and
    the journaled namespace survives a crash."""
    ops = 60
    fs = FlatFS(
        FlatFlash(
            scaled_config(dram_pages=32, ssd_to_dram=256, ssd_cache_pages=64, track_data=True)
        ),
        num_inodes=128,
        data_blocks=64,
    )
    start = fs.system.clock.now
    for index in range(ops):
        fs.create(f"/f{index}")
    create_ns = (fs.system.clock.now - start) / ops
    start = fs.system.clock.now
    for index in range(ops):
        fs.rename(f"/f{index}", f"/r{index}")
    rename_ns = (fs.system.clock.now - start) / ops

    block = make_filesystem(
        FileSystemKind.EXT4, UnifiedMMap(scaled_config(dram_pages=32, ssd_to_dram=256))
    )
    assert create_ns < block.run(repeated_ops(CREATE_FILE, ops)).mean_op_ns
    assert rename_ns < block.run(repeated_ops(RENAME_FILE, ops)).mean_op_ns

    fs.create("/crash-me")
    fs.system.ssd.crash()
    fs.recover()
    assert fs.exists("/crash-me") and fs.exists("/r0"), "journaled namespace lost"
