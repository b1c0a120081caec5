import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craftlora import checkpoint
from craftlora.adapters import LoraAdapter, default_routing, make_adapter
from craftlora.checkpoint import (
    file_sha256,
    inspect_checkpoint,
    load_adapter,
    load_backbone,
    load_tensor_set,
    save_adapter,
    save_backbone,
    save_tensor_set,
)
from craftlora.cli import main as cli_main
from craftlora.denoiser import init_backbone
from craftlora.exceptions import CorruptCheckpoint
from craftlora.pgm import pgm_bytes, read_pgm
from craftlora.utils import make_rng


def as_f32_f64(arr):
    return arr.astype(np.float32).astype(np.float64)


def write_with_crc(path, payload):
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


class TestBackboneCheckpoint:
    def test_roundtrip_bit_exact_at_f32(self, tmp_path):
        bb = init_backbone(8, 16, 3, seed=0)
        path = tmp_path / "bb.crft"
        save_backbone(path, bb)
        loaded = load_backbone(path)
        assert loaded.names == bb.names
        for name in bb.names:
            assert np.array_equal(loaded.weight(name), as_f32_f64(bb.weight(name)))

    def test_second_save_identical_bytes(self, tmp_path):
        bb = init_backbone(8, 16, 3, seed=1)
        a, b = tmp_path / "a.crft", tmp_path / "b.crft"
        save_backbone(a, bb)
        save_backbone(b, load_backbone(a))
        # narrowing is idempotent, so the round trip reproduces the file
        save_backbone(tmp_path / "c.crft", load_backbone(b))
        assert (tmp_path / "b.crft").read_bytes() == (tmp_path / "c.crft").read_bytes()

    def test_corrupted_crc_rejected(self, tmp_path):
        bb = init_backbone(8, 16, 3, seed=2)
        path = tmp_path / "bb.crft"
        save_backbone(path, bb)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            load_backbone(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "bb.crft"
        save_backbone(path, init_backbone(8, 16, 3, seed=4))
        good = path.read_bytes()

        class DiskFull:
            """Writes the first few bytes, then fails like a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:16])
                raise OSError("no space left on device")

        monkeypatch.setattr(
            checkpoint, "open", lambda p, mode: DiskFull(open(p, mode)), raising=False
        )
        with pytest.raises(OSError):
            save_backbone(path, init_backbone(8, 16, 3, seed=5))
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert [f.name for f in tmp_path.iterdir()] == ["bb.crft"]
        loaded = load_backbone(path)
        assert loaded.names == init_backbone(8, 16, 3, seed=4).names

    def test_truncated_rejected(self, tmp_path):
        bb = init_backbone(8, 16, 3, seed=3)
        path = tmp_path / "bb.crft"
        save_backbone(path, bb)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CorruptCheckpoint):
            load_backbone(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.crft"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpoint):
            load_backbone(path)


class TestAdapterCheckpoint:
    def make_adapter(self):
        bb = init_backbone(8, 16, 4, seed=4)
        routing = default_routing(bb.names)
        adapter = make_adapter("style", bb, routing, rank=2, seed=5, host_hash="cafe")
        gen = make_rng(6)
        return LoraAdapter(
            adapter.kind,
            adapter.rank,
            {
                name: (b, gen.standard_normal(a.shape))
                for name, (b, a) in adapter.factors.items()
            },
            gen.standard_normal(64),
            0.75,
            adapter.routing,
            host_hash="cafe",
        )

    def test_roundtrip(self, tmp_path):
        adapter = self.make_adapter()
        path = tmp_path / "ad.crft"
        save_adapter(path, adapter)
        loaded = load_adapter(path)
        assert loaded.kind == "style"
        assert loaded.rank == 2
        assert loaded.host_hash == "cafe"
        assert loaded.routing == adapter.routing
        assert set(loaded.factors) == set(adapter.factors)
        for name in adapter.factors:
            assert np.array_equal(loaded.factors[name][0], as_f32_f64(adapter.factors[name][0]))
            assert np.array_equal(loaded.factors[name][1], as_f32_f64(adapter.factors[name][1]))
        assert np.array_equal(loaded.gate_w, as_f32_f64(adapter.gate_w))
        assert loaded.gate_b == float(np.float32(0.75))

    def test_inspect_reports_routing(self, tmp_path):
        adapter = self.make_adapter()
        path = tmp_path / "ad.crft"
        save_adapter(path, adapter)
        summary = inspect_checkpoint(path)
        assert summary["kind"] == "adapter"
        assert summary["adapter_kind"] == "style"
        assert summary["rank"] == 2
        assert summary["routing"]["content"] == ("layer1", "layer2")
        assert summary["routing"]["style"] == ("layer3", "layer4")

    def test_crc_flip_rejected(self, tmp_path):
        adapter = self.make_adapter()
        path = tmp_path / "ad.crft"
        save_adapter(path, adapter)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            load_adapter(path)

    def test_overlapping_routing_manifest_is_corrupt(self, tmp_path):
        # hand-build an adapter file whose manifest lists one layer on both
        # sides; loading and inspecting must treat it as data corruption
        from craftlora.checkpoint import KIND_CODES, MAGIC, VERSION, _w_str, _w_tensor, _w_u32

        buf = io.BytesIO()
        buf.write(MAGIC)
        _w_u32(buf, VERSION)
        _w_u32(buf, KIND_CODES["adapter"])
        _w_str(buf, "content")
        _w_u32(buf, 2)
        _w_str(buf, "")
        for side in (("layer1",), ("layer1",)):
            _w_u32(buf, len(side))
            for name in side:
                _w_str(buf, name)
        records = [
            ("layer1.down", np.zeros((4, 2))),
            ("layer1.up", np.zeros((2, 4))),
            ("gate.w", np.zeros(64)),
            ("gate.b", np.array([[0.0]])),
        ]
        _w_u32(buf, len(records))
        for name, arr in records:
            _w_tensor(buf, name, arr)
        path = tmp_path / "overlap.crft"
        write_with_crc(path, buf.getvalue())
        with pytest.raises(CorruptCheckpoint):
            load_adapter(path)
        with pytest.raises(CorruptCheckpoint):
            inspect_checkpoint(path)


    def test_unknown_kind_tag_is_corrupt_for_load_and_inspect(self, tmp_path):
        # the same header parser serves both, so neither accepts the bad tag
        path = tmp_path / "ad.crft"
        save_adapter(path, self.make_adapter())
        payload = path.read_bytes()[:-4]
        assert payload.count(b"style") == 1
        write_with_crc(path, payload.replace(b"style", b"bogus"))
        with pytest.raises(CorruptCheckpoint, match="unknown adapter kind 'bogus'"):
            load_adapter(path)
        with pytest.raises(CorruptCheckpoint, match="unknown adapter kind 'bogus'"):
            inspect_checkpoint(path)
        with pytest.raises(SystemExit) as exited:
            cli_main(["inspect", str(path)])
        assert exited.value.code == 2

    @pytest.mark.parametrize("broken", ["header-rank", "up-factor-rows"])
    def test_factor_off_the_header_rank_is_corrupt_for_load_and_inspect(self, tmp_path, broken):
        # save_adapter writes what it is given under a valid CRC, so the
        # readers must compare each factor with the header's rank
        adapter = self.make_adapter()
        if broken == "header-rank":
            adapter.rank = 5
        else:
            down, up = adapter.factors["layer3"]
            adapter.factors["layer3"] = (down, np.vstack([up, up[:1]]))
        path = tmp_path / "ad.crft"
        save_adapter(path, adapter)
        with pytest.raises(CorruptCheckpoint, match="not of its rank"):
            load_adapter(path)
        with pytest.raises(CorruptCheckpoint, match="not of its rank"):
            inspect_checkpoint(path)
        with pytest.raises(SystemExit) as exited:
            cli_main(["inspect", str(path)])
        assert exited.value.code == 2


class TestTensorSet:
    def test_roundtrip_preserves_order(self, tmp_path):
        rng = make_rng(9)
        tensors = [("z.second", rng.random((3, 4))), ("a.first", rng.random((2, 2)))]
        path = tmp_path / "set.crft"
        save_tensor_set(path, tensors)
        loaded = load_tensor_set(path)
        assert [name for name, _ in loaded] == ["z.second", "a.first"]
        for (_, orig), (_, back) in zip(tensors, loaded):
            assert np.array_equal(back, as_f32_f64(orig))

    def test_own_kind_is_not_a_backbone(self, tmp_path):
        # these tensors chain like layers, so only the kind tells them apart
        bb = init_backbone(8, 16, 3, seed=12)
        set_path, bb_path = tmp_path / "set.crft", tmp_path / "bb.crft"
        save_tensor_set(set_path, bb.items())
        save_backbone(bb_path, bb)
        assert inspect_checkpoint(set_path)["kind"] == "tensors"
        with pytest.raises(CorruptCheckpoint, match="expected backbone"):
            load_backbone(set_path)
        with pytest.raises(CorruptCheckpoint, match="expected a tensor set"):
            load_tensor_set(bb_path)

    def test_retired_kind_code_is_unknown(self, tmp_path):
        # code 2 once tagged encoder files; it must not read as a tensor set
        from craftlora.checkpoint import MAGIC, VERSION

        path = tmp_path / "old.crft"
        write_with_crc(path, MAGIC + struct.pack("<III", VERSION, 2, 0))
        for reader in (load_tensor_set, load_backbone, inspect_checkpoint):
            with pytest.raises(CorruptCheckpoint, match="unknown kind code 2"):
                reader(path)


class TestTrailingBytes:
    def test_junk_after_last_tensor_rejected(self, tmp_path):
        bb = init_backbone(8, 16, 4, seed=13)
        adapter = make_adapter("content", bb, default_routing(bb.names), rank=2, seed=14)
        for save, load, obj in (
            (save_backbone, load_backbone, bb),
            (save_adapter, load_adapter, adapter),
            (save_tensor_set, load_tensor_set, bb.items()),
        ):
            path = tmp_path / f"{load.__name__}.crft"
            save(path, obj)
            load(path)
            # junk between the last tensor and a CRC recomputed over it
            write_with_crc(path, path.read_bytes()[:-4] + b"junk")
            with pytest.raises(CorruptCheckpoint, match="bytes after its last tensor"):
                load(path)
            with pytest.raises(CorruptCheckpoint, match="bytes after its last tensor"):
                inspect_checkpoint(path)


class TestNonFiniteTensors:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_every_reader_refuses_a_non_finite_entry(self, tmp_path, value):
        bb = init_backbone(8, 16, 4, seed=13)
        adapter = make_adapter("content", bb, default_routing(bb.names), rank=2, seed=14)
        for save, load, obj in (
            (save_backbone, load_backbone, bb),
            (save_adapter, load_adapter, adapter),
            (save_tensor_set, load_tensor_set, bb.items()),
        ):
            path = tmp_path / f"{load.__name__}.crft"
            save(path, obj)
            # the last entry of the last tensor, under a CRC recomputed over it
            payload = path.read_bytes()[:-4]
            write_with_crc(path, payload[:-4] + struct.pack("<f", value))
            with pytest.raises(CorruptCheckpoint, match="non-finite entries"):
                load(path)
            with pytest.raises(CorruptCheckpoint, match="non-finite entries"):
                inspect_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoints(tmp_path_factory):
    """A temporary directory and the bytes of a small backbone, adapter and
    tensor-set checkpoint, keyed by their loaders."""
    root = tmp_path_factory.mktemp("small")
    bb = init_backbone(4, 4, 2, seed=15)
    adapter = make_adapter("style", bb, default_routing(bb.names), rank=1, seed=16)
    blobs = {}
    for save, load, obj in (
        (save_backbone, load_backbone, bb),
        (save_adapter, load_adapter, adapter),
        (save_tensor_set, load_tensor_set, bb.items()),
    ):
        path = root / f"{load.__name__}.crft"
        save(path, obj)
        blobs[load] = path.read_bytes()
    return root, blobs


class TestDamagedBytes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(which=st.integers(0, 2), flip=st.booleans(), data=st.data())
    def test_truncation_or_bit_flip_is_corrupt(self, small_checkpoints, which, flip, data):
        root, blobs = small_checkpoints
        load, blob = list(blobs.items())[which]
        if flip:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
        else:
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        path = root / "damaged.crft"
        path.write_bytes(bytes(damaged))
        with pytest.raises(CorruptCheckpoint):
            load(path)
        with pytest.raises(SystemExit) as exited:
            cli_main(["inspect", str(path)])
        assert exited.value.code == 2


class TestFileHash:
    def test_stable(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"hello")
        assert file_sha256(path) == file_sha256(path)


class TestPgm:
    def test_roundtrip_16bit(self, tmp_path):
        img = make_rng(10).random((12, 16))
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_bytes(img))
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    def test_header_is_big_endian_p5(self, tmp_path):
        img = np.ones((2, 3))
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_bytes(img))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        assert b"3 2" in blob and b"65535" in blob
        assert blob[-2:] == b"\xff\xff"  # 65535 big-endian

    def test_header_comments_are_skipped(self, tmp_path):
        img = make_rng(11).random((3, 5))
        blob = pgm_bytes(img)
        path = tmp_path / "img.pgm"
        path.write_bytes(blob.replace(b"P5\n", b"P5\n# made elsewhere\n", 1))
        assert np.array_equal(read_pgm(path), np.round(img * 65535) / 65535)

    def test_truncated_rejected(self, tmp_path):
        img = np.zeros((4, 4))
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_bytes(img))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CorruptCheckpoint):
            read_pgm(path)
