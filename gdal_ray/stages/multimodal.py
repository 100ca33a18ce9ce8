"""Multimodal columns — audio / video as opaque binary + typed metadata.

The engine treats media payloads exactly like the image corpus: an
opaque ``binary`` column plus typed metadata columns, processed by
actor-pool ``map_batches`` stages (codec state loaded once per actor,
small batches because payloads are large).

Two decode backends, selected at actor construction:

  * ``backend="real"``  → genuine decode through this package's own
    pure-Python codecs: RIFF/WAVE PCM (codecs/wav.py) for audio and
    MJPEG-in-AVI (codecs/avi.py + the T.81 JPEG decoder) for video.
    No external library needed; other containers/codecs (mp3, h264…)
    would plug in at the same two methods when a library is available.
  * ``backend="fake"``  → a deterministic pseudo-decoder: payload bytes
    are hashed into a reproducible PCM/frame tensor so the Ray-side
    plumbing (schema, batch sizing, actor signature, flat_map layout)
    can be exercised against arbitrary opaque payloads.

``wav_audio_dataset`` / ``make_avi_video_batch`` generate REAL WAV /
AVI payloads whose content is closed-form (SQL-reconstructible integer
PCM; per-frame gradient MJPEG), so the real path is oracled end-to-end
(queries ``audio_features_wav``).

Schemas:
  audio row:  (clip_id: string, bytes: binary, sample_rate: int32,
               n_channels: int32, duration_ms: int32)
  video row:  (video_id: string, bytes: binary, fps: float64,
               n_frames: int32, w: int32, h: int32)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# synthetic sources (deterministic, seeded by id)
# ---------------------------------------------------------------------------


def _seed64(s: str) -> int:
    return int.from_bytes(hashlib.sha1(s.encode()).digest()[:8], "big")


def make_audio_batch(indices) -> pa.Table:
    ids, blobs, srs, chs, durs = [], [], [], [], []
    for i in indices:
        i = int(i)
        rng = np.random.default_rng(_seed64(f"aud{i}"))
        dur = int(rng.integers(500, 3000))
        sr = int(rng.choice([16000, 22050, 44100]))
        ch = int(rng.choice([1, 2]))
        payload = rng.integers(0, 256, size=64 + i % 64,
                               dtype=np.uint8).tobytes()
        ids.append(f"clip{i:07d}")
        blobs.append(payload)
        srs.append(sr)
        chs.append(ch)
        durs.append(dur)
    return pa.table({
        "clip_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "sample_rate": pa.array(srs, pa.int32()),
        "n_channels": pa.array(chs, pa.int32()),
        "duration_ms": pa.array(durs, pa.int32()),
    })


def audio_dataset(n: int, batch_size: int = 64):
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        return make_audio_batch(b["id"].to_numpy())

    return rd.range(n).map_batches(
        lambda b: pa.table({"id": b["id"]}), batch_format="pyarrow") \
        .map_batches(gen, batch_format="pyarrow", batch_size=batch_size)


def make_video_batch(indices) -> pa.Table:
    ids, blobs, fps, nfs, ws, hs = [], [], [], [], [], []
    for i in indices:
        i = int(i)
        rng = np.random.default_rng(_seed64(f"vid{i}"))
        nf = int(rng.integers(24, 240))
        ids.append(f"vid{i:07d}")
        blobs.append(rng.integers(0, 256, size=128, dtype=np.uint8).tobytes())
        fps.append(float(rng.choice([24.0, 25.0, 30.0])))
        nfs.append(nf)
        ws.append(int(rng.choice([320, 640])))
        hs.append(int(rng.choice([240, 360])))
    return pa.table({
        "video_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "fps": pa.array(fps, pa.float64()),
        "n_frames": pa.array(nfs, pa.int32()),
        "w": pa.array(ws, pa.int32()),
        "h": pa.array(hs, pa.int32()),
    })


def video_dataset(n: int, batch_size: int = 32):
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        return make_video_batch(b["id"].to_numpy())

    return rd.range(n).map_batches(gen, batch_format="pyarrow",
                                   batch_size=batch_size)


def make_wav_audio_batch(indices) -> pa.Table:
    """REAL RIFF/WAVE payloads with closed-form integer PCM: clip i is
    mono int16 @ 8 kHz, n = 800 + (i%5)*400 samples, sample s =
    ((s*(3 + i%17) + i%101) % 4001) - 2000 — integers, so the int16
    encode/decode is bit-exact and the PCM is reconstructible in SQL
    (oracle sql_audio_features_wav)."""
    from ..codecs.wav import encode_wav
    ids, blobs, srs, chs, durs = [], [], [], [], []
    for i in indices:
        i = int(i)
        n = 800 + (i % 5) * 400
        s = np.arange(n, dtype=np.int64)
        v = ((s * (3 + i % 17) + i % 101) % 4001) - 2000
        blobs.append(encode_wav(v.astype(np.float64) / 32768.0, 8000, 16))
        ids.append(f"clip{i:07d}")
        srs.append(8000)
        chs.append(1)
        durs.append(int(n * 1000 / 8000))
    return pa.table({
        "clip_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "sample_rate": pa.array(srs, pa.int32()),
        "n_channels": pa.array(chs, pa.int32()),
        "duration_ms": pa.array(durs, pa.int32()),
    })


def wav_audio_dataset(n: int, batch_size: int = 64):
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        return make_wav_audio_batch(b["id"].to_numpy())

    return rd.range(n).map_batches(gen, batch_format="pyarrow",
                                   batch_size=batch_size)


def make_avi_video_batch(indices) -> pa.Table:
    """REAL MJPEG-in-AVI payloads: video i carries 4 + i%5 gradient
    frames (32×32, per-frame brightness ramp) at 4 fps, each frame a
    real T.81 JPEG."""
    from ..codecs import jpeg as _jpeg
    from ..codecs.avi import encode_avi_mjpeg
    ids, blobs, fps, nfs, ws, hs = [], [], [], [], [], []
    grad = np.add.outer(np.arange(32), np.arange(32))[:, :, None] \
        .repeat(3, 2).astype(np.int32)
    for i in indices:
        i = int(i)
        nf = 4 + i % 5
        frames = [_jpeg.encode(np.clip(grad * 2 + f * 20, 0, 255)
                               .astype(np.uint8), 90) for f in range(nf)]
        blobs.append(encode_avi_mjpeg(frames, 4.0, 32, 32))
        ids.append(f"vid{i:07d}")
        fps.append(4.0)
        nfs.append(nf)
        ws.append(32)
        hs.append(32)
    return pa.table({
        "video_id": pa.array(ids, pa.string()),
        "bytes": pa.array(blobs, pa.binary()),
        "fps": pa.array(fps, pa.float64()),
        "n_frames": pa.array(nfs, pa.int32()),
        "w": pa.array(ws, pa.int32()),
        "h": pa.array(hs, pa.int32()),
    })


# ---------------------------------------------------------------------------
# actor stages
# ---------------------------------------------------------------------------


class AudioFeatures:
    """Actor-pool stage: decode audio → per-clip feature row
    (rms / zero-crossing rate / spectral centroid over the PCM).

    Real decoder state would load in __init__ (once per actor);
    backend='fake' derives deterministic PCM from the payload hash."""

    def __init__(self, backend: str = "fake", n_fft: int = 256):
        if backend not in ("fake", "real"):
            raise ValueError(f"unknown audio backend {backend!r}")
        self.backend = backend
        self.n_fft = n_fft
        # per-actor FFT twiddle state (built once)
        self._win = np.hanning(n_fft)

    def _decode(self, payload: bytes, sr: int, dur_ms: int) -> np.ndarray:
        if self.backend == "real":
            # REAL DECODE: RIFF/WAVE PCM via this package's own codec
            # (codecs/wav.py); multi-channel downmixes to the channel
            # mean, the common feature-extraction convention
            from ..codecs.wav import decode_wav
            pcm, _sr = decode_wav(payload)
            return pcm[:, 0] if pcm.shape[1] == 1 else pcm.mean(axis=1)
        # FAKE DECODE (deterministic): hash-seeded PCM of the right length
        n = max(self.n_fft, int(sr * dur_ms / 1000))
        rng = np.random.default_rng(
            int.from_bytes(hashlib.sha1(payload).digest()[:8], "big"))
        return rng.standard_normal(min(n, 65536))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, rms, zcr, cent = [], [], [], []
        srs = batch["sample_rate"].to_numpy()
        durs = batch["duration_ms"].to_numpy()
        blobs = batch["bytes"].to_pylist()
        for i, cid in enumerate(batch["clip_id"].to_pylist()):
            pcm = self._decode(blobs[i], int(srs[i]), int(durs[i]))
            ids.append(cid)
            rms.append(float(np.sqrt(np.mean(pcm ** 2))))
            zcr.append(float(np.mean(np.abs(np.diff(np.signbit(pcm))))))
            spec = np.abs(np.fft.rfft(pcm[:self.n_fft] * self._win))
            freqs = np.fft.rfftfreq(self.n_fft, 1.0 / srs[i])
            cent.append(float((spec * freqs).sum() / max(spec.sum(), 1e-12)))
        return pa.table({
            "clip_id": pa.array(ids, pa.string()),
            "rms": pa.array(rms, pa.float64()),
            "zcr": pa.array(zcr, pa.float64()),
            "spectral_centroid": pa.array(cent, pa.float64()),
        })


class WavStats:
    """Actor-pool stage: REAL WAV decode → integer-exact PCM stats
    (sample count, sum of squared int16 samples, sign crossings).
    Integer outputs make the DuckDB oracle bit-exact — a float rms
    would hash-flake at rounding boundaries; rms/zcr floats live in
    AudioFeatures and are pytest-verified instead."""

    def __init__(self):
        from ..codecs.wav import decode_wav
        self._dec = decode_wav                 # codec bound once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, ns, sums, crossings = [], [], [], []
        for cid, blob in zip(batch["clip_id"].to_pylist(),
                             batch["bytes"].to_pylist()):
            pcm, _sr = self._dec(blob)
            v = np.round(pcm[:, 0] * 32768.0).astype(np.int64)
            ids.append(cid)
            ns.append(len(v))
            sums.append(int((v * v).sum()))
            crossings.append(int(np.sum((v[1:] < 0) != (v[:-1] < 0))))
        return pa.table({
            "clip_id": pa.array(ids, pa.string()),
            "n_samples": pa.array(ns, pa.int64()),
            "sum_sq": pa.array(sums, pa.int64()),
            "crossings": pa.array(crossings, pa.int64()),
        })


class VideoFrameSample:
    """Actor-pool flat-map stage: video row → one row per sampled frame
    (every `stride_s` seconds), frame payload as an encoded image column
    — the layout a downstream image pipeline consumes directly."""

    def __init__(self, backend: str = "fake", stride_s: float = 1.0,
                 max_frames: int = 8):
        if backend not in ("fake", "real"):
            raise ValueError(f"unknown video backend {backend!r}")
        self.backend = backend
        self.stride_s = stride_s
        self.max_frames = max_frames

    def _decode_frame(self, payload: bytes, idx: int, w: int, h: int):
        # FAKE DECODE: deterministic tiny gradient frame seeded by
        # (payload, frame index); real impl would seek+decode
        rng = np.random.default_rng(
            int.from_bytes(hashlib.sha1(payload
                                        + idx.to_bytes(4, "big")).digest()[:8],
                           "big"))
        base = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
        return np.kron(base, np.ones((h // 8, w // 8, 1), np.uint8))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..codecs import encode as cenc
        vids, fidx, ts, pngs = [], [], [], []
        fps = batch["fps"].to_numpy()
        nfs = batch["n_frames"].to_numpy()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        blobs = batch["bytes"].to_pylist()
        for i, vid in enumerate(batch["video_id"].to_pylist()):
            if self.backend == "real":
                # REAL DECODE: MJPEG-in-AVI via this package's own
                # container + T.81 codecs; parse the container ONCE per
                # row, decode only the sampled frames
                from ..codecs import decode as cdec
                from ..codecs.avi import decode_avi
                info = decode_avi(blobs[i])
                v_fps = info["fps"] or float(fps[i])
                stride = max(1, int(round(v_fps * self.stride_s)))
                sel = list(range(0, len(info["frames"]),
                                 stride))[:self.max_frames]
                for f in sel:
                    frame = cdec(info["frames"][f], "jpeg")
                    vids.append(vid)
                    fidx.append(f)
                    ts.append(float(f / v_fps))
                    pngs.append(cenc(frame, "png"))
                continue
            stride = max(1, int(round(fps[i] * self.stride_s)))
            frames = list(range(0, int(nfs[i]), stride))[:self.max_frames]
            for f in frames:
                frame = self._decode_frame(blobs[i], f, int(ws[i]), int(hs[i]))
                vids.append(vid)
                fidx.append(f)
                ts.append(float(f / fps[i]))
                pngs.append(cenc(frame, "png"))
        return pa.table({
            "video_id": pa.array(vids, pa.string()),
            "frame_index": pa.array(fidx, pa.int32()),
            "t_sec": pa.array(ts, pa.float64()),
            "png": pa.array(pngs, pa.binary()),
        })
