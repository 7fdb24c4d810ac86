"""Readers and writers for binary netpbm images (P5/P6) and PFM float maps.

PFM files follow the usual convention: a ``Pf``/``PF`` magic, a dimensions
line, a scale line whose sign encodes endianness (negative = little endian,
the only variant written here), and rows stored bottom-to-top. Depth maps
mark invalid pixels with a -inf sentinel in the payload and recover them
into the validity mask on load.

Every writer here, and the pair CSV, checkpoint and manifest writers, goes
through ``_atomic_write``: a crashed or failed write leaves the old file or
no file, never a partly written one.
"""

import math
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .types import DEPTH, DepthMap, Image

PFM_INVALID = np.float32(-np.inf)


class ImageIOError(ValueError):
    """Base class for image decoding failures."""


class UnsupportedFormatError(ImageIOError):
    """Magic number is not one of P5, P6, Pf, PF."""


class MalformedHeaderError(ImageIOError):
    """Header tokens missing, non-numeric, or out of range."""


class MalformedPayloadError(ImageIOError):
    """Pixel payload truncated or inconsistent with the header."""


@contextmanager
def _atomic_write(path, mode):
    """Open a hidden temporary file next to path for writing ("w" or "wb")
    and move it onto path once the block completes. On any exception the
    temporary file is removed and path is left as it was. Text mode writes
    UTF-8 with no newline translation. The file gets the permissions a
    plain open() would give it."""
    directory, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **text) as fh:
            fd = None  # closed with fh from here on
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if fd is not None:
            os.close(fd)
        os.unlink(tmp)
        raise


def _read_token(buf, pos):
    """Next whitespace-delimited header token, skipping # comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise MalformedHeaderError("unexpected end of header")
    return buf[start:pos], pos


def _parse(convert, token, what):
    try:
        return convert(token)
    except ValueError:
        raise MalformedHeaderError(f"{what}: {token!r}") from None


def _header(buf):
    """(width, height, third token, payload offset) of a netpbm or PFM file:
    after the magic come the positive width and height, one more token
    (maxval or scale) and a single whitespace byte before the payload."""
    tokens, pos = [], 2
    for _ in range(3):
        token, pos = _read_token(buf, pos)
        tokens.append(token)
    width = _parse(int, tokens[0], "non-integer width")
    height = _parse(int, tokens[1], "non-integer height")
    if width < 1 or height < 1:
        raise MalformedHeaderError("dimensions must be positive")
    return width, height, tokens[2], pos + 1


def _payload(buf, pos, count, dtype):
    """The count values of dtype stored from buf[pos] on, as float32."""
    size = count * dtype.itemsize
    payload = buf[pos:pos + size]
    if len(payload) != size:
        raise MalformedPayloadError(
            f"malformed payload: expected {size} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=dtype).astype(np.float32)


def load_image(path) -> Image:
    """Load a P5/P6/PFM file as a unit-range Image.

    Integer formats are divided by their maxval; PFM payloads are scaled by
    the header's |scale| and must already lie in [0, 1].
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 2:
        raise MalformedHeaderError("file too short for a magic number")
    magic = buf[:2]
    if magic in (b"P5", b"P6"):
        return _decode_netpbm(buf, channels=1 if magic == b"P5" else 3)
    if magic in (b"Pf", b"PF"):
        arr = _decode_pfm(buf)
        if arr.min() < 0.0 or arr.max() > 1.0 or not np.all(np.isfinite(arr)):
            raise MalformedPayloadError("PFM image values outside [0, 1]")
        return Image(arr)
    raise UnsupportedFormatError(f"unsupported magic {magic!r}")


def _decode_netpbm(buf, channels):
    width, height, maxval_tok, pos = _header(buf)
    maxval = _parse(int, maxval_tok, "non-integer maxval")
    if not 0 < maxval < 65536:
        raise MalformedHeaderError(f"maxval {maxval} out of range")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raw = _payload(buf, pos, width * height * channels, dtype)
    arr = (raw / maxval).reshape(height, width, channels)
    return Image(arr)


def save_image(image: Image, path, maxval=255):
    """Write an Image as binary P5 (1 channel) or P6 (3 channels)."""
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range")
    magic = b"P5" if image.channels == 1 else b"P6"
    quant = np.rint(image.data * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = b"%s\n%d %d\n%d\n" % (magic, image.width, image.height, maxval)
    with _atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(quant.astype(dtype).tobytes())


def _decode_pfm(buf):
    width, height, scale_tok, pos = _header(buf)
    scale = _parse(float, scale_tok, "non-numeric scale")
    if scale == 0.0:
        raise MalformedHeaderError("scale must be non-zero")
    shape = (height, width, 3) if buf[:2] == b"PF" else (height, width)
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    raw = _payload(buf, pos, math.prod(shape), dtype)
    # rows stored bottom-to-top; the product is a new C-ordered array
    return raw.reshape(shape)[::-1] * np.float32(abs(scale))


def save_pfm(dmap: DepthMap, path):
    """Write a DepthMap as single-channel little-endian PFM.

    Invalid pixels are stored as -inf and restored to the mask on load.
    """
    values = dmap.values.astype(np.float32).copy()
    values[~dmap.mask] = PFM_INVALID
    header = b"Pf\n%d %d\n-1.0\n" % (dmap.width, dmap.height)
    with _atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(values[::-1].astype("<f4").tobytes())


def load_pfm(path, kind=DEPTH) -> DepthMap:
    """Load a single-channel PFM as a DepthMap, its -inf sentinels as
    invalid pixels; a NaN or +inf in the payload is malformed."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"PF":
        raise UnsupportedFormatError("depth maps must be single-channel PFM")
    if buf[:2] != b"Pf":
        raise UnsupportedFormatError(f"unsupported magic {buf[:2]!r}")
    values = _decode_pfm(buf)
    mask = np.isfinite(values)
    if (values[~mask] != PFM_INVALID).any():
        raise MalformedPayloadError("payload holds NaN or +inf; only -inf marks invalid pixels")
    values[~mask] = 0.0
    return DepthMap(values, mask, kind=kind)
