import os
import re

import numpy as np
import pytest

from reldepth.imagery import (
    DISPARITY,
    DepthMap,
    Image,
    MalformedHeaderError,
    MalformedPayloadError,
    SynthSceneSpec,
    UnsupportedFormatError,
    augment,
    disparity_to_depth,
    flip_depth,
    flip_image,
    generate_stereogram,
    load_image,
    load_pfm,
    save_image,
    save_pfm,
)


def write(path, data):
    path.write_bytes(data)
    return path


class TestLoadImage:
    def test_p5_values_scaled_by_maxval(self, tmp_path):
        p = write(tmp_path / "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(p)
        assert img.channels == 1
        expected = np.array([0, 255, 128, 64], dtype=np.float32) / 255
        assert np.array_equal(img.data.ravel(), expected)

    def test_all_zero_p5(self, tmp_path):
        p = write(tmp_path / "z.pgm", b"P5\n3 2\n255\n" + bytes(6))
        assert np.all(load_image(p).data == 0.0)

    def test_truncated_p6_body(self, tmp_path):
        p = write(tmp_path / "t.ppm", b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(MalformedPayloadError, match="malformed payload"):
            load_image(p)

    def test_unsupported_magic(self, tmp_path):
        p = write(tmp_path / "x.bin", b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(UnsupportedFormatError):
            load_image(p)

    def test_bad_header_token(self, tmp_path):
        p = write(tmp_path / "h.pgm", b"P5\ntwo 2\n255\n" + bytes(4))
        with pytest.raises(MalformedHeaderError):
            load_image(p)

    @pytest.mark.parametrize("header, message", [
        (b"P5\n2 x\n255\n", "non-integer height: b'x'"),
        (b"P6\n2 2\nmax\n", "non-integer maxval: b'max'"),
        (b"P5\n0 2\n255\n", "dimensions must be positive"),
        (b"P5\n2 2\n70000\n", "maxval 70000 out of range"),
        (b"Pf\n2 -1\n-1.0\n", "dimensions must be positive"),
        (b"PF\n2 2\nbig\n", "non-numeric scale: b'big'"),
        (b"Pf\n2 2", "unexpected end of header"),
    ])
    def test_header_errors_name_the_fault(self, tmp_path, header, message):
        with pytest.raises(MalformedHeaderError, match=re.escape(message)):
            load_image(write(tmp_path / "h.img", header))

    def test_header_comments_skipped(self, tmp_path):
        p = write(tmp_path / "c.pgm", b"P5\n# comment\n1 1\n255\n" + bytes([200]))
        assert load_image(p).data[0, 0, 0] == np.float32(200 / 255)

    def test_p6_color_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image((rng.integers(0, 256, size=(5, 4, 3)) / 255).astype(np.float32))
        save_image(img, tmp_path / "c.ppm")
        back = load_image(tmp_path / "c.ppm")
        assert back.channels == 3
        assert np.array_equal(back.data, img.data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.pgm")

    def test_sixteen_bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = Image((rng.integers(0, 65536, size=(3, 3, 1)) / 65535).astype(np.float32))
        save_image(img, tmp_path / "deep.pgm", maxval=65535)
        back = load_image(tmp_path / "deep.pgm")
        assert np.allclose(back.data, img.data, atol=1.0 / 65535)

    def test_pfm_color_image(self, tmp_path):
        values = np.linspace(0.0, 1.0, 24, dtype="<f4").reshape(2, 4, 3)
        payload = values[::-1].tobytes()  # rows bottom-to-top
        p = write(tmp_path / "img.pfm", b"PF\n4 2\n-1.0\n" + payload)
        img = load_image(p)
        assert img.channels == 3
        assert np.array_equal(img.data, values)

    def test_pfm_image_out_of_range_rejected(self, tmp_path):
        payload = np.array([2.5], dtype="<f4").tobytes()
        p = write(tmp_path / "hot.pfm", b"Pf\n1 1\n-1.0\n" + payload)
        with pytest.raises(MalformedPayloadError):
            load_image(p)


class TestPfm:
    def test_roundtrip_with_invalid_pixel(self, tmp_path):
        values = np.arange(9, dtype=np.float32).reshape(3, 3) + 1
        mask = np.ones((3, 3), bool)
        mask[1, 2] = False
        dm = DepthMap(values, mask, kind=DISPARITY)
        save_pfm(dm, tmp_path / "m.pfm")
        back = load_pfm(tmp_path / "m.pfm", kind=DISPARITY)
        assert np.array_equal(back.values, dm.values)
        assert np.array_equal(back.mask, dm.mask)

    def test_zero_scale_is_error(self, tmp_path):
        p = write(tmp_path / "s.pfm", b"Pf\n1 1\n0.0\n" + np.float32(1).tobytes())
        with pytest.raises(MalformedHeaderError):
            load_pfm(p)

    def test_single_value_exact(self, tmp_path):
        dm = DepthMap(np.array([[80.0]], dtype=np.float32))
        save_pfm(dm, tmp_path / "one.pfm")
        assert load_pfm(tmp_path / "one.pfm").values[0, 0] == np.float32(80.0)

    def test_big_endian_read(self, tmp_path):
        payload = np.array([1.5, 2.25], dtype=">f4").tobytes()
        p = write(tmp_path / "be.pfm", b"Pf\n2 1\n1.0\n" + payload)
        dm = load_pfm(p, kind=DISPARITY)
        assert np.array_equal(dm.values, [[1.5, 2.25]])
        assert dm.mask.all()

    def test_roundtrip_random_maps_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(50):
            h, w = rng.integers(1, 12, size=2)
            values = (rng.random((h, w)) * 100).astype(np.float32) + np.float32(0.01)
            mask = rng.random((h, w)) < 0.8
            if not mask.any():
                mask[0, 0] = True
            dm = DepthMap(values, mask, kind=DISPARITY)
            path = tmp_path / f"r{trial}.pfm"
            save_pfm(dm, path)
            back = load_pfm(path, kind=DISPARITY)
            assert np.array_equal(back.values, dm.values)
            assert np.array_equal(back.mask, dm.mask)

    def test_truncated_payload(self, tmp_path):
        p = write(tmp_path / "t.pfm", b"Pf\n2 2\n-1.0\n" + bytes(8))
        with pytest.raises(MalformedPayloadError):
            load_pfm(p)


class TestTypes:
    def test_image_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Image(np.full((2, 2, 1), 1.5, dtype=np.float32))

    def test_image_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 2), dtype=np.float32))

    def test_depth_map_zeroes_invalid_entries(self):
        dm = DepthMap(np.array([[5.0, 7.0]], dtype=np.float32),
                      np.array([[True, False]]))
        assert dm.values[0, 1] == 0.0

    def test_depth_kind_requires_positive(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[0.0]], dtype=np.float32), kind="depth")

    def test_disparity_kind_allows_zero(self):
        DepthMap(np.array([[0.0]], dtype=np.float32), kind=DISPARITY)

    def test_scene_spec_rejects_disparity_at_range(self):
        with pytest.raises(ValueError):
            SynthSceneSpec(8, 8, layer_disparities=(4,), d_max=4)

    def test_disparity_to_depth(self):
        dm = DepthMap(np.array([[4.0, 0.0]], dtype=np.float32), kind=DISPARITY)
        depth = disparity_to_depth(dm, 8.0)
        assert depth.values[0, 0] == 2.0
        assert not depth.mask[0, 1]


class TestStereogram:
    def test_zero_disparity_identity(self):
        spec = SynthSceneSpec(16, 12, layer_disparities=(0,), texture_density=0.7,
                              d_max=4, seed=3)
        left, right, gt = generate_stereogram(spec)
        assert np.array_equal(left.data, right.data)
        assert gt.mask.all()
        assert np.all(gt.values == 0.0)

    def test_two_layer_values(self):
        spec = SynthSceneSpec(64, 64, layer_disparities=(1, 4), texture_density=0.6,
                              d_max=8, seed=5)
        _, _, gt = generate_stereogram(spec)
        assert set(np.unique(gt.values[gt.mask])) == {1.0, 4.0}

    def test_determinism(self):
        spec = SynthSceneSpec(32, 24, layer_disparities=(2, 5), texture_density=0.5,
                              d_max=8, seed=11)
        a = generate_stereogram(spec)
        b = generate_stereogram(spec)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)
        assert np.array_equal(a[2].values, b[2].values)
        assert np.array_equal(a[2].mask, b[2].mask)

    def test_correspondence_invariant(self):
        # every valid gt pixel matches its shifted counterpart channel-wise
        rng = np.random.default_rng(19)
        for _ in range(8):
            n_layers = int(rng.integers(1, 4))
            d_max = 8
            disps = rng.choice(d_max, size=n_layers, replace=False)
            spec = SynthSceneSpec(40, 30, layer_disparities=tuple(int(d) for d in disps),
                                  texture_density=float(rng.uniform(0.3, 1.0)),
                                  d_max=d_max, seed=int(rng.integers(1 << 30)))
            left, right, gt = generate_stereogram(spec)
            ys, xs = np.nonzero(gt.mask)
            d = gt.values[ys, xs].astype(int)
            assert np.array_equal(left.data[ys, xs], right.data[ys, xs - d])


class TestAugment:
    def _pair(self):
        rng = np.random.default_rng(2)
        img = Image(rng.random((6, 8, 3)).astype(np.float32))
        depth = DepthMap((rng.random((6, 8)).astype(np.float32) + 0.5),
                         rng.random((6, 8)) < 0.9, kind="depth")
        return img, depth

    def test_identity_parameters(self):
        img, depth = self._pair()
        out_img, out_depth = augment(img, depth, scale_range=(1.0, 1.0), flip_prob=0.0,
                                     rng=np.random.default_rng(0))
        assert np.array_equal(out_img.data, img.data)
        assert np.array_equal(out_depth.values, depth.values)
        assert np.array_equal(out_depth.mask, depth.mask)

    def test_flip_is_involution(self):
        img, depth = self._pair()
        img2, depth2 = flip_image(flip_image(img)), flip_depth(flip_depth(depth))
        assert np.array_equal(img2.data, img.data)
        assert np.array_equal(depth2.values, depth.values)

    def test_scale_two_halves_depth(self):
        img = Image(np.full((4, 4, 1), 0.5, dtype=np.float32))
        depth = DepthMap(np.full((4, 4), 10.0, dtype=np.float32))
        out_img, out_depth = augment(img, depth, scale_range=(2.0, 2.0), flip_prob=0.0,
                                     rng=np.random.default_rng(0))
        assert out_img.data.shape == (8, 8, 1)
        assert out_depth.values.shape == (8, 8)
        assert np.all(out_depth.values == 5.0)

    def test_flip_mirrors_values(self):
        depth = DepthMap(np.array([[1.0, 2.0]], dtype=np.float32))
        assert np.array_equal(flip_depth(depth).values, [[2.0, 1.0]])

    def test_flip_prob_one_mirrors_both(self):
        img, depth = self._pair()
        out_img, out_depth = augment(img, depth, scale_range=(1.0, 1.0), flip_prob=1.0,
                                     rng=np.random.default_rng(0))
        assert np.array_equal(out_img.data, img.data[:, ::-1])
        assert np.array_equal(out_depth.values, depth.values[:, ::-1])
        assert np.array_equal(out_depth.mask, depth.mask[:, ::-1])

    def test_disparity_scales_up(self):
        img = Image(np.full((4, 4, 1), 0.5, dtype=np.float32))
        disp = DepthMap(np.full((4, 4), 3.0, dtype=np.float32), kind=DISPARITY)
        _, out = augment(img, disp, scale_range=(2.0, 2.0), flip_prob=0.0,
                         rng=np.random.default_rng(0))
        assert np.all(out.values == 6.0)

    def test_generator_is_required(self):
        img, depth = self._pair()
        with pytest.raises(TypeError, match="rng"):
            augment(img, depth, scale_range=(0.5, 1.5), flip_prob=0.5)

    def test_invalid_scale_range(self):
        img, depth = self._pair()
        with pytest.raises(ValueError):
            augment(img, depth, scale_range=(2.0, 1.0), flip_prob=0.0,
                    rng=np.random.default_rng(0))


def _write_artifact(kind, path):
    """Write a small artifact of the given kind with its reldepth writer."""
    from reldepth.cli import _write_json
    from reldepth.network import DepthNet, NetConfig, save_checkpoint
    from reldepth.ordinal import save_pairs_csv

    rng = np.random.default_rng(0)
    if kind == "save_image":
        save_image(Image(rng.random((4, 5, 3)).astype(np.float32)), path)
    elif kind == "save_pfm":
        save_pfm(DepthMap(rng.random((4, 5)).astype(np.float32) + 1.0, kind=DISPARITY), path)
    elif kind == "save_pairs_csv":
        save_pairs_csv(np.array([[0, 1, 2, 3, 1], [1, 1, 0, 0, -1]]), path)
    elif kind == "save_checkpoint":
        net = DepthNet(NetConfig(stage_widths=(3, 4, 5), stage_blocks=(1, 1, 1),
                                 stage_strides=(1, 2, 2), head_widths=(6,)))
        save_checkpoint(net, path, iteration=3)
    else:
        _write_json(path, {"scenes": [{"index": 0}]})


WRITERS = ["save_image", "save_pfm", "save_pairs_csv", "save_checkpoint", "write_json"]


class _FailingFile:
    """A file whose first write stores half its data, then raises."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


class TestAtomicWrite:
    @pytest.mark.parametrize("kind", WRITERS)
    def test_failed_write_leaves_old_file_or_none(self, tmp_path, monkeypatch, kind):
        kept, fresh = tmp_path / "kept.bin", tmp_path / "fresh.bin"
        kept.write_bytes(b"old artifact")
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *a, **k: _FailingFile(fdopen(*a, **k)))
        for path in (kept, fresh):
            with pytest.raises(OSError, match="disk full"):
                _write_artifact(kind, path)
        assert kept.read_bytes() == b"old artifact"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.bin"]

    @pytest.mark.parametrize("kind", WRITERS)
    def test_write_replaces_and_leaves_no_temp_file(self, tmp_path, kind):
        path = tmp_path / "artifact"
        _write_artifact(kind, tmp_path / "plain")
        path.write_bytes(b"old artifact")
        _write_artifact(kind, path)
        assert path.read_bytes() == (tmp_path / "plain").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "plain"]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
