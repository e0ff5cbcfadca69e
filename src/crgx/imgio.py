"""Binary PPM (P6) and PGM (P5) image files, maxval 255 only.

Pixels live as float64 planes (channels, height, width) in [0,1]; bytes map
to value/255 on read and round half-away-from-zero on write. Writes always
emit P6, replicating a single gray plane across RGB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Image:
    """Pixel planes (1 or 3, height, width) with values in [0,1]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.float64)
        if p.ndim != 3 or p.shape[0] not in (1, 3):
            raise ValueError(f"expected planes (1|3, H, W), got shape {p.shape}")
        if p.shape[1] < 1 or p.shape[2] < 1:
            raise ValueError(f"empty image shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("pixel values must be finite")
        if np.min(p) < 0.0 or np.max(p) > 1.0:
            raise ValueError("pixel values must lie in [0,1]; clamp first")
        object.__setattr__(self, "pixels", p)

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


class _HeaderScanner:
    """Tracks the byte offset while pulling whitespace-separated header
    tokens, so parse errors can say where the file went wrong."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, reason: str):
        raise ValueError(f"malformed image file at byte {self.pos}: {reason}")

    def token(self, what: str) -> bytes:
        data, n = self.data, len(self.data)
        while self.pos < n:
            ch = self.data[self.pos:self.pos + 1]
            if ch == b"#":  # comment runs to end of line
                while self.pos < n and data[self.pos:self.pos + 1] not in (b"\n", b"\r"):
                    self.pos += 1
            elif ch.isspace():
                self.pos += 1
            else:
                break
        if self.pos >= n:
            self.fail(f"ran out of data reading {what}")
        start = self.pos
        while self.pos < n and not data[self.pos:self.pos + 1].isspace():
            self.pos += 1
        return data[start:self.pos]

    def number(self, what: str) -> int:
        tok = self.token(what)
        if not tok.isdigit():
            self.pos -= len(tok)
            self.fail(f"{what} must be a decimal integer, got {tok!r}")
        return int(tok)


def parse_image_bytes(data: bytes) -> Image:
    scanner = _HeaderScanner(data)
    magic = scanner.token("magic number")
    if magic not in (b"P6", b"P5"):
        scanner.pos = 0
        scanner.fail(f"unsupported magic {magic!r}; only binary P6/P5 are accepted")
    channels = 3 if magic == b"P6" else 1

    width = scanner.number("width")
    height = scanner.number("height")
    if width < 1 or height < 1:
        scanner.fail(f"image dims must be positive, got {width}x{height}")
    maxval = scanner.number("maxval")
    if maxval != 255:
        scanner.fail(f"maxval {maxval} unsupported; only 255 is accepted")

    if scanner.pos >= len(data) or not data[scanner.pos:scanner.pos + 1].isspace():
        scanner.fail("expected a single whitespace byte before the pixel payload")
    scanner.pos += 1

    expected = width * height * channels
    payload = data[scanner.pos:scanner.pos + expected]
    if len(payload) < expected:
        scanner.pos = len(data)
        scanner.fail(f"pixel payload truncated: expected {expected} bytes, "
                     f"got {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    planes = raw.reshape(height, width, channels).transpose(2, 0, 1)
    return Image(planes / 255.0)


def read_image(path) -> Image:
    with open(path, "rb") as f:
        return parse_image_bytes(f.read())


def encode_image_bytes(image: Image) -> bytes:
    pixels = image.pixels
    if pixels.shape[0] == 1:
        pixels = np.broadcast_to(pixels, (3,) + pixels.shape[1:])
    # round half away from zero; values are non-negative so this is half-up
    quantized = np.floor(pixels * 255.0 + 0.5)
    raster = np.clip(quantized, 0, 255).astype(np.uint8).transpose(1, 2, 0)
    header = f"P6\n{image.width} {image.height}\n255\n".encode()
    return header + raster.tobytes()


def write_image(path, image: Image) -> None:
    with open(path, "wb") as f:
        f.write(encode_image_bytes(image))
