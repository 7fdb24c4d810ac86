"""Versioned binary checkpoint container.

Layout: an 8-byte magic, a little-endian uint32 manifest length, the manifest
JSON (sorted keys, so identical states produce identical bytes), then the raw
little-endian float64 array payloads in manifest order. The manifest records
the network config, a hash of it, the training iteration, array shapes, and
per-norm calibration flags.

Arrays are named ``<layer>.<param>`` (``stage1.block0.conv1.weight``) and
``<norm>.mu``/``<norm>.sigma``. A checkpoint loads only if its arrays, shapes
and flags are exactly those of the net its config describes and nothing
follows the payload; anything else raises CheckpointError.
"""

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np

from ..imagery.io import _atomic_write
from .model import DepthNet, NetConfig

MAGIC = b"RDCKPT01"
VERSION = 1


class CheckpointError(ValueError):
    pass


def config_hash(config: NetConfig):
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def state_arrays(net: DepthNet):
    """Every array a checkpoint holds, by name."""
    arrays = {name: t.values for name, t in net.named_params()}
    for name, norm in net.named_norms():
        arrays[f"{name}.mu"] = norm.mu
        arrays[f"{name}.sigma"] = norm.sigma
    return arrays


def calibrated_flags(net: DepthNet):
    return {name: norm.calibrated for name, norm in net.named_norms()}


def load_state(net: DepthNet, arrays, calibrated):
    """Copy arrays and calibration flags, named as state_arrays and
    calibrated_flags name them, into net."""
    for name, t in net.named_params():
        t.values = arrays[name].astype(np.float64)
        t.zero_grad()
    for name, norm in net.named_norms():
        norm.mu = arrays[f"{name}.mu"].astype(np.float64)
        norm.sigma = arrays[f"{name}.sigma"].astype(np.float64)
        norm.calibrated = bool(calibrated[name])


def _check_layout(net, entries, calibrated):
    """Raise CheckpointError unless the (name, shape) entries and the flags
    are exactly the net's own."""
    want = {name: a.shape for name, a in state_arrays(net).items()}
    for what, got, own in (("arrays", [name for name, _ in entries], want),
                           ("calibration flags", calibrated, calibrated_flags(net))):
        missing, unexpected = sorted(set(own) - set(got)), sorted(set(got) - set(own))
        if missing or unexpected:
            raise CheckpointError(f"checkpoint {what} do not match the net: "
                                  f"missing {missing}, unexpected {unexpected}")
    bad = [name for name, shape in entries if shape != want[name]]
    if bad or len(entries) != len(want):
        raise CheckpointError(f"checkpoint array shapes or count do not match the net: {bad}")


def save_checkpoint(net: DepthNet, path, iteration=0):
    arrays = state_arrays(net)
    names = sorted(arrays)
    manifest = {
        "version": VERSION,
        "iteration": int(iteration),
        "config": asdict(net.config),
        "config_hash": config_hash(net.config),
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
        "calibrated": calibrated_flags(net),
    }
    blob = json.dumps(manifest, sort_keys=True).encode()
    with _atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild the network from a checkpoint; returns (net, iteration)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        try:
            (blob_len,) = struct.unpack("<I", fh.read(4))
            manifest = json.loads(fh.read(blob_len))
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"corrupt manifest: {exc}") from None
        if not isinstance(manifest, dict):
            raise CheckpointError("manifest is not a JSON object")
        if manifest.get("version") != VERSION:
            raise CheckpointError(f"unsupported version {manifest.get('version')}")
        try:
            config = NetConfig(**manifest["config"])
            net = DepthNet(config)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad config in manifest: {exc}") from None
        if manifest.get("config_hash") != config_hash(config):
            raise CheckpointError("config hash mismatch")
        try:
            entries = [(str(e["name"]), tuple(int(d) for d in e["shape"]))
                       for e in manifest["arrays"]]
            calibrated = dict(manifest["calibrated"])
            iteration = int(manifest["iteration"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed manifest: {exc!r}") from None
        _check_layout(net, entries, calibrated)
        arrays = {}
        for name, shape in entries:
            count = int(np.prod(shape))
            data = fh.read(count * 8)
            if len(data) != count * 8:
                raise CheckpointError(f"truncated payload at {name}")
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape)
        if fh.read(1):
            raise CheckpointError("trailing bytes after the payload")
    load_state(net, arrays, calibrated)
    return net, iteration
