"""Multimodal stage plumbing (image features real; video/audio decode
seams stubbed with deterministic fakes) + metrics report parsing."""

import json

import numpy as np
import pyarrow as pa
import pytest

from gdal_boots_ray.sources.fixtures import synth_images_batch
from gdal_boots_ray.stages.decode import DecodeImages
from gdal_boots_ray.stages.multimodal import AudioFeatures, ImageFeatures, VideoFrameSampler, make_resize_images


def _decoded(n=8):
    return DecodeImages()(synth_images_batch(np.arange(n)))


def test_image_features():
    out = ImageFeatures()(_decoded())
    assert {"mean_v", "std_v", "dhash"} <= set(out.column_names)
    # deterministic
    out2 = ImageFeatures()(_decoded())
    assert out.column("dhash").to_pylist() == out2.column("dhash").to_pylist()
    assert all(isinstance(v, int) for v in out.column("dhash").to_pylist())


def test_resize_images():
    out = make_resize_images(16)(_decoded())
    assert set(out.column("w").to_pylist()) == {16}
    assert set(out.column("h").to_pylist()) == {16}
    from gdal_boots_ray.stages.decode import batch_pixel_views

    views = batch_pixel_views(out)
    assert views[0].shape[-2:] == (16, 16)


def _video_batch():
    return pa.table(
        {
            "media_id": pa.array(["vid-0", "vid-1"], pa.string()),
            "bytes": pa.array([b"xx", b"yy"], pa.binary()),
            "fmt": pa.array(["mp4", "mp4"], pa.string()),
            "duration_s": pa.array([3.0, 1.5], pa.float64()),
            "fps": pa.array([30.0, 30.0], pa.float64()),
        }
    )


def test_video_sampler_stub_raises():
    with pytest.raises(NotImplementedError, match="compressed video"):
        VideoFrameSampler()(_video_batch())


def test_video_sampler_fake_decoder_plumbing():
    out = VideoFrameSampler(every_s=1.0, fake_decoder=True)(_video_batch())
    assert out.num_rows == 3 + 2  # ceil(3/1) + ceil(1.5/1)
    assert out.column("media_id").to_pylist()[:3] == ["vid-0"] * 3
    assert set(out.column_names) >= {"pixels", "bands", "h", "w", "t_s", "frame_idx"}
    # frames are decodable buffers of the declared shape
    from gdal_boots_ray.stages.decode import batch_pixel_views

    views = batch_pixel_views(out)
    assert views[0].shape == (3, 32, 32)


def test_video_motion_stub_fake_and_real():
    from gdal_boots_ray.kernels.media import y4m_encode
    from gdal_boots_ray.stages.multimodal import VideoMotion

    with pytest.raises(NotImplementedError, match="compressed video"):
        VideoMotion()(_video_batch())
    out = VideoMotion(fake_decoder=True, n_fake_frames=4)(_video_batch())
    assert out.num_rows == 3 + 3  # n_frames-1 pairs per video
    assert out.column_names == ["media_id", "frame_idx", "mad"]
    # real y4m: constant frames 10, 10, 30 -> mads exactly 0 and 20
    frames = [np.full((4, 4), v, np.uint8) for v in (10, 10, 30)]
    batch = pa.table(
        {
            "media_id": pa.array(["v"], pa.string()),
            "bytes": pa.array([y4m_encode(frames, fps=2.0)], pa.binary()),
            "fmt": pa.array(["y4m"], pa.string()),
        }
    )
    real = VideoMotion()(batch)
    assert real.column("mad").to_pylist() == [0.0, 20.0]
    assert real.column("frame_idx").to_pylist() == [1, 2]


def test_audio_features_stub_and_fake():
    batch = pa.table(
        {
            "media_id": pa.array(["aud-0"], pa.string()),
            "bytes": pa.array([b"zz"], pa.binary()),
            "fmt": pa.array(["mp3"], pa.string()),
            "sample_rate": pa.array([8000], pa.int32()),
        }
    )
    with pytest.raises(NotImplementedError, match="lossy audio"):
        AudioFeatures()(batch)
    out = AudioFeatures(window_s=1.0, fake_decoder=True)(batch)
    assert out.num_rows == 3  # 3 seconds of fake samples
    assert (np.asarray(out.column("rms").to_pylist()) > 0).all()


def test_audio_features_decodes_flac_for_real():
    """fmt='flac' routes through kernels/flac.py (no fake): a square
    wave's per-window RMS equals its amplitude exactly."""
    from gdal_boots_ray.kernels.flac import flac_encode

    amp_q = 8192  # 0.25 in int16 units: exactly representable
    sig = np.where(np.arange(16000) % 2 == 0, amp_q, -amp_q)
    batch = pa.table(
        {
            "media_id": pa.array(["aud-flac-0"], pa.string()),
            "bytes": pa.array([flac_encode(sig, 8000, bits=16)], pa.binary()),
            "fmt": pa.array(["flac"], pa.string()),
            "sample_rate": pa.array([8000], pa.int32()),
        }
    )
    out = AudioFeatures(window_s=1.0)(batch)
    assert out.num_rows == 2  # 2 seconds
    assert np.allclose(out.column("rms").to_pylist(), amp_q / 32768.0)


class TestRealMediaCodecs:
    """The uncompressed-container codecs are REAL (kernels/media.py):
    WAV PCM/float round trips and Y4M frame sampling, end to end
    through the same actor stages the compressed seams guard."""

    def test_wav_roundtrip_bit_depths(self):
        from gdal_boots_ray.kernels.media import wav_decode, wav_encode

        t = np.linspace(0, 1, 8000, endpoint=False)
        mono = 0.5 * np.sin(2 * np.pi * 440 * t)
        for bits, atol in ((16, 1e-4), (8, 1e-2), (32, 1e-7)):
            x, rate = wav_decode(wav_encode(mono, 8000, bits=bits))
            assert rate == 8000 and x.shape == (8000,)
            assert np.abs(x - mono).max() < atol, bits
        stereo = np.stack([mono, -mono])
        x, rate = wav_decode(wav_encode(stereo, 44100, bits=16))
        assert x.shape == (2, 8000)
        assert np.abs(x[1] + mono).max() < 1e-4

    def test_wav_s24_decode(self):
        # hand-build a 24-bit PCM chunk (encoder doesn't emit s24)
        import struct

        vals = np.array([0, 1 << 22, -(1 << 22), 8388607, -8388608], np.int64)
        raw = b"".join(int(v & 0xFFFFFF).to_bytes(3, "little") for v in vals)
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000 * 3, 3, 24)
        data = (
            b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(raw) + (len(raw) & 1)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(raw)) + raw + (b"\x00" if len(raw) & 1 else b"")
        )
        from gdal_boots_ray.kernels.media import wav_decode

        x, rate = wav_decode(data)
        assert np.allclose(x * 8388608.0, vals, atol=0.5)

    def test_audio_stage_decodes_real_wav(self):
        from gdal_boots_ray.kernels.media import wav_encode

        t = np.linspace(0, 2, 16000, endpoint=False)
        sig = 0.25 * np.sin(2 * np.pi * 220 * t)
        batch = pa.table(
            {
                "media_id": pa.array(["aud-wav"], pa.string()),
                "bytes": pa.array([wav_encode(sig, 8000)], pa.binary()),
                "fmt": pa.array(["wav"], pa.string()),
                "sample_rate": pa.array([8000], pa.int32()),
            }
        )
        out = AudioFeatures(window_s=1.0)(batch)
        assert out.num_rows == 2  # 2 s at the container's real rate
        rms = np.asarray(out.column("rms").to_pylist())
        # RMS of a 0.25-amplitude sine = 0.25/sqrt(2)
        assert np.allclose(rms, 0.25 / np.sqrt(2), atol=1e-3)

    def test_y4m_roundtrip_and_info(self):
        from gdal_boots_ray.kernels.media import y4m_decode_frames, y4m_encode, y4m_info

        rng = np.random.default_rng(13)
        frames = [rng.integers(0, 256, (3, 24, 32)).astype(np.uint8) for _ in range(5)]
        data = y4m_encode(frames, fps=10.0)
        info = y4m_info(data)
        assert (info["w"], info["h"], info["n_frames"]) == (32, 24, 5)
        assert abs(info["fps"] - 10.0) < 1e-9
        back = y4m_decode_frames(data, [0, 3, 4, 99])  # 99 clamps to last
        assert (back[0] == frames[0]).all() and (back[1] == frames[3]).all()
        assert (back[3] == frames[4]).all()

    def test_y4m_c420_chroma_upsample(self):
        # hand-build a C420 stream: Y plane + quarter-res U/V planes
        y = np.arange(16, dtype=np.uint8).reshape(4, 4)
        u = np.array([[10, 20], [30, 40]], np.uint8)
        v = np.array([[50, 60], [70, 80]], np.uint8)
        head = b"YUV4MPEG2 W4 H4 F25:1 C420\x0a"
        data = head + b"FRAME\x0a" + y.tobytes() + u.tobytes() + v.tobytes()
        from gdal_boots_ray.kernels.media import y4m_decode_frames

        (f,) = y4m_decode_frames(data, [0])
        assert f.shape == (3, 4, 4)
        assert (f[0] == y).all()
        assert (f[1][:2, :2] == 10).all() and (f[1][2:, 2:] == 40).all()

    def test_video_stage_samples_real_y4m(self):
        from gdal_boots_ray.kernels.media import y4m_encode

        frames = [np.full((3, 8, 8), i * 10, np.uint8) for i in range(20)]
        data = y4m_encode(frames, fps=10.0)  # 2 seconds
        batch = pa.table(
            {
                "media_id": pa.array(["vid-y4m"], pa.string()),
                "bytes": pa.array([data], pa.binary()),
                "fmt": pa.array(["y4m"], pa.string()),
                "duration_s": pa.array([2.0], pa.float64()),
                "fps": pa.array([10.0], pa.float64()),
            }
        )
        out = VideoFrameSampler(every_s=0.5)(batch)
        assert out.num_rows == 4  # t = 0, 0.5, 1.0, 1.5
        from gdal_boots_ray.stages.decode import batch_pixel_views

        views = batch_pixel_views(out)
        # frame at t=0.5 s of a 10 fps stream is frame 5 (value 50)
        assert views[1][0, 0, 0] == 50 and views[3][0, 0, 0] == 150


def test_metrics_report(ray_session, tmp_path):
    import ray.data as rd

    from gdal_boots_ray.state.metrics import run_with_report

    ds = rd.range(1000).map_batches(lambda b: b, batch_format="pyarrow")
    path = str(tmp_path / "report.json")
    out = run_with_report(ds, path, extra={"job": "test"})
    assert len(out) == 1000
    report = json.load(open(path))
    assert report["extra"]["job"] == "test"
    assert report["wall_s"] > 0
    assert report["stages"]
    assert [s["rows"] for s in report["stages"]] == [1000]
    assert report["stages"][0]["wall_s"] > 0
