import numpy as np
import pytest

from craftlora import checkpoint
from craftlora.adapters import LoraAdapter, default_routing, make_adapter
from craftlora.checkpoint import (
    file_sha256,
    inspect_checkpoint,
    load_adapter,
    load_backbone,
    load_encoder,
    load_tensor_set,
    save_adapter,
    save_backbone,
    save_encoder,
    save_tensor_set,
)
from craftlora.denoiser import init_backbone
from craftlora.exceptions import CorruptCheckpoint
from craftlora.guidance import init_expert_encoder
from craftlora.pgm import read_pgm, signed_range, write_pgm
from craftlora.utils import make_rng


def as_f32_f64(arr):
    return arr.astype(np.float32).astype(np.float64)


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
        import io
        import struct
        import zlib

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
        payload = buf.getvalue()
        path = tmp_path / "overlap.crft"
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
        with pytest.raises(CorruptCheckpoint):
            load_adapter(path)
        with pytest.raises(CorruptCheckpoint):
            inspect_checkpoint(path)


class TestEncoderCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = init_expert_encoder(seed=7, n_concepts=5)
        path = tmp_path / "enc.crft"
        save_encoder(path, params)
        loaded = load_encoder(path)
        assert np.array_equal(loaded.id_table, as_f32_f64(params.id_table))
        assert np.array_equal(loaded.head_w, as_f32_f64(params.head_w))
        assert np.array_equal(loaded.head_b, as_f32_f64(params.head_b))
        for branch in ("identity_branch", "content_branch", "style_branch"):
            a = getattr(loaded, branch)
            b = getattr(params, branch)
            assert np.array_equal(a.w1, as_f32_f64(b.w1))
            assert np.array_equal(a.b2, as_f32_f64(b.b2))

    def test_kind_mismatch_rejected(self, tmp_path):
        bb = init_backbone(8, 16, 3, seed=8)
        path = tmp_path / "bb.crft"
        save_backbone(path, bb)
        with pytest.raises(CorruptCheckpoint):
            load_encoder(path)


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


class TestFileHash:
    def test_stable(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"hello")
        assert file_sha256(path) == file_sha256(path)


class TestPgm:
    def test_roundtrip_16bit(self, tmp_path):
        img = make_rng(10).random((12, 16))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    def test_header_is_big_endian_p5(self, tmp_path):
        img = np.ones((2, 3))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        assert b"3 2" in blob and b"65535" in blob
        assert blob[-2:] == b"\xff\xff"  # 65535 big-endian

    def test_signed_offset_scale_roundtrip(self, tmp_path):
        signed = make_rng(11).standard_normal((8, 8)) * 0.4
        off, scale = signed_range(signed)
        path = tmp_path / "res.pgm"
        write_pgm(path, signed, offset=off, scale=scale)
        back = read_pgm(path)
        assert np.abs(back - signed).max() <= 0.5 * scale / 65535 + 1e-12

    def test_truncated_rejected(self, tmp_path):
        img = np.zeros((4, 4))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CorruptCheckpoint):
            read_pgm(path)
