"""Tests for mount handles (PFS, PV, local dir)."""

from __future__ import annotations

import pytest

from repro.errors import NotFoundError
from repro.net import Fabric
from repro.storage import LocalDirMount, ParallelFilesystem, PfsMount, VolumeMount
from repro.storage.filesystem import FilesystemDown
from repro.units import GB, gbps


def _drive(kernel, gen):
    def proc(env):
        result = yield from gen
        return result
    return kernel.run(until=kernel.spawn(proc(kernel)))


@pytest.fixture
def pfs_rig(kernel):
    fab = Fabric(kernel)
    fab.add_host("node", zone="hops")
    fab.add_host("lustre", zone="hops")
    fab.add_host("ceph", zone="hops")
    sw = fab.add_switch("sw")
    fab.connect("node", sw, gbps(100))
    fab.connect("lustre", sw, gbps(400))
    fab.connect("ceph", sw, gbps(400))
    fs = ParallelFilesystem(kernel, fab, "lustre", "lustre",
                            mounted_platforms=["hops"])
    return fab, fs


def test_pfs_mount_lists_relative_paths(kernel, pfs_rig):
    _fab, fs = pfs_rig
    fs.write_meta("/models/m/a.bin", 10)
    fs.write_meta("/models/m/b.bin", 20)
    fs.write_meta("/other/c.bin", 30)
    mount = PfsMount(fs, "/models")
    assert mount.listdir() == {"m/a.bin": 10, "m/b.bin": 20}
    assert mount.total_bytes("m/") == 30


def test_pfs_mount_read_write(kernel, pfs_rig):
    _fab, fs = pfs_rig
    mount = PfsMount(fs, "/models")
    _drive(kernel, mount.write("node", "m/w.bin", GB))
    assert fs.stat("/models/m/w.bin") == GB
    read = _drive(kernel, mount.read_all("node", "m/"))
    assert read == GB
    shard = _drive(kernel, mount.read_bytes("node", GB // 2))
    assert shard == GB // 2


def test_pfs_shard_read_fails_during_downtime(kernel, pfs_rig):
    """A pipeline stage's shard read goes through the filesystem's checked
    read: refused during maintenance, and traced as ``pfs.read``."""
    _fab, fs = pfs_rig
    kernel.trace.retain = True
    mount = PfsMount(fs, "/models")
    assert _drive(kernel, mount.read_bytes("node", GB)) == GB
    assert [(r.path, r.size) for r in kernel.trace.of_kind("pfs.read")] == [
        ("/models/", GB)]
    fs.schedule_downtime(start=kernel.now, duration=100.0)
    with pytest.raises(FilesystemDown):
        _drive(kernel, mount.read_bytes("node", GB))


def test_volume_mount_transfers_via_backend(kernel, pfs_rig):
    fab, _fs = pfs_rig
    vol = VolumeMount(fab, "ceph", "pv-1")
    _drive(kernel, vol.write("node", "data/w.bin", 10 * GB))
    assert vol.listdir() == {"data/w.bin": 10 * GB}
    t0 = kernel.now
    _drive(kernel, vol.read_all("node", "data/"))
    # 10 GB over the node's 100 Gbps link = 0.8 s.
    assert kernel.now - t0 == pytest.approx(0.8, rel=0.05)


def test_volume_mount_missing_prefix_raises(kernel, pfs_rig):
    fab, _fs = pfs_rig
    vol = VolumeMount(fab, "ceph", "pv-2")
    with pytest.raises(NotFoundError):
        _drive(kernel, vol.read_all("node", "nothing/"))


def test_local_dir_mount_rate(kernel):
    mount = LocalDirMount(kernel, read_rate=1e9)
    _drive(kernel, mount.write("anywhere", "f.bin", int(2e9)))
    t0 = kernel.now
    _drive(kernel, mount.read_all("anywhere"))
    assert kernel.now - t0 == pytest.approx(2.0)
