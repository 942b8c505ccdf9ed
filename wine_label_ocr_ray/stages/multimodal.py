"""Multimodal column stages: opaque binary payloads + typed metadata.

Image/audio/video payloads are carried as ``binary`` columns and
processed by actor-pool ``map_batches`` stages with small batch sizes
(large rows: batch x concurrency must fit the worker heap). The actual
codec work (JPEG decode, resampling, frame extraction) requires
libraries absent from this environment — those calls are STUBBED
behind ``DecodeBackend`` and raise ``NotImplementedError`` unless the
deterministic fake backend is selected; everything Ray-side (schema,
batch sizing, actor lifecycle, output layout) is real and tested.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np
import pyarrow as pa


class DecodeBackend:
    """Real backends (PIL / cv2 / ffmpeg) subclass this."""

    def decode_image(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError(
            "no image codec available in this environment — plug a "
            "PIL/cv2 DecodeBackend, or use DeterministicFakeBackend")

    def sample_frames(self, payload: bytes, n: int) -> np.ndarray:
        raise NotImplementedError(
            "no video codec available — plug an ffmpeg DecodeBackend")


class DeterministicFakeBackend(DecodeBackend):
    """Deterministic stand-in: 'decodes' payload bytes into a pseudo
    image whose pixels derive from a seeded hash of the payload —
    stable across processes, exercising the full Ray-side plumbing."""

    def __init__(self, height: int = 32, width: int = 48):
        self.height = height
        self.width = width

    def _seed(self, payload: bytes) -> int:
        return int.from_bytes(
            hashlib.blake2b(payload, digest_size=8).digest(), "little")

    def decode_image(self, payload: bytes) -> np.ndarray:
        rng = np.random.RandomState(self._seed(payload) % (2**31 - 1))
        return rng.randint(0, 256, size=(self.height, self.width, 3),
                           dtype=np.uint8)

    def sample_frames(self, payload: bytes, n: int) -> np.ndarray:
        rng = np.random.RandomState(self._seed(payload) % (2**31 - 1))
        return rng.randint(0, 256, size=(n, self.height, self.width, 3),
                           dtype=np.uint8)


def _backend(name: str) -> DecodeBackend:
    """A stage's backend, selected once per actor: ``"fake"`` is the
    deterministic stand-in, any other name the stub that raises on
    first use."""
    return DeterministicFakeBackend() if name == "fake" else DecodeBackend()


def _map_payloads(stage, media_path: str, *, batch_size: int,
                  concurrency: int, **stage_kwargs):
    """media parquet (media_ref, payload) -> ``stage`` run as an actor
    pool over it."""
    import ray.data as rd

    from .._rayprep import ensure_serializable
    ensure_serializable()
    return rd.read_parquet(media_path).map_batches(
        stage, fn_constructor_kwargs=stage_kwargs, batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency)


class ImageFeatureStage:
    """Actor-pool stage: payload binary -> per-image features
    (dims, mean/std intensity, 8-bin histogram). Batches should stay
    small for large payloads."""

    def __init__(self, backend: str = "fake", resize_to: Optional[int] = None):
        self.backend = _backend(backend)
        self.resize_to = resize_to

    @staticmethod
    def _resize_nearest(img: np.ndarray, size: int) -> np.ndarray:
        h, w = img.shape[:2]
        ys = (np.arange(size) * h // size)
        xs = (np.arange(size) * w // size)
        return img[ys][:, xs]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        rows: Dict[str, list] = {"height": [], "width": [], "mean_val": [],
                                 "std_val": [], "hist": []}
        for p in payloads:
            img = self.backend.decode_image(p)
            if self.resize_to:
                img = self._resize_nearest(img, self.resize_to)
            rows["height"].append(img.shape[0])
            rows["width"].append(img.shape[1])
            rows["mean_val"].append(round(float(img.mean()), 4))
            rows["std_val"].append(round(float(img.std()), 4))
            hist, _ = np.histogram(img, bins=8, range=(0, 256))
            rows["hist"].append(hist.astype(np.int64).tolist())
        return (batch.drop_columns(["payload"])
                .append_column("height", pa.array(rows["height"], pa.int32()))
                .append_column("width", pa.array(rows["width"], pa.int32()))
                .append_column("mean_val",
                               pa.array(rows["mean_val"], pa.float64()))
                .append_column("std_val",
                               pa.array(rows["std_val"], pa.float64()))
                .append_column("hist", pa.array(
                    rows["hist"], pa.list_(pa.int64(), 8))))


def image_features(media_path: str, *, backend: str = "fake",
                   batch_size: int = 64, concurrency: int = 2):
    """media parquet (media_ref, payload) -> feature Dataset."""
    return _map_payloads(ImageFeatureStage, media_path,
                         batch_size=batch_size, concurrency=concurrency,
                         backend=backend)


class VideoFrameSampleStage:
    """Actor-pool stage: video payload binary -> frame-sampled
    features. Samples ``n_frames`` frames per payload via the backend
    (ffmpeg in production, the deterministic fake here), reduces each
    frame to its mean intensity, and emits per-video temporal
    features: per-frame means, and the mean absolute delta between
    consecutive frames (a scene-motion proxy). Batches stay small
    because video rows are large."""

    def __init__(self, backend: str = "fake", n_frames: int = 4):
        self.backend = _backend(backend)
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        means, deltas = [], []
        for p in payloads:
            frames = self.backend.sample_frames(p, self.n_frames)
            fm = frames.reshape(len(frames), -1).mean(axis=1)
            means.append([round(float(v), 4) for v in fm])
            deltas.append(round(float(np.abs(np.diff(fm)).mean()), 4)
                          if len(fm) > 1 else 0.0)
        return (batch.drop_columns(["payload"])
                .append_column("n_frames", pa.array(
                    [self.n_frames] * len(payloads), pa.int32()))
                .append_column("frame_means", pa.array(
                    means, pa.list_(pa.float64())))
                .append_column("temporal_delta",
                               pa.array(deltas, pa.float64())))


def video_frame_features(media_path: str, *, backend: str = "fake",
                         n_frames: int = 4, batch_size: int = 32,
                         concurrency: int = 2):
    """media parquet (media_ref, payload) -> frame-sampled features."""
    return _map_payloads(VideoFrameSampleStage, media_path,
                         batch_size=batch_size, concurrency=concurrency,
                         backend=backend, n_frames=n_frames)
