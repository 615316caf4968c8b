"""Low-level binary container framing shared by dataset and checkpoint files.

Layout of every container:

    magic (8 bytes) | version (u32 LE) | body ... | crc32 (u32 LE)

The trailing crc32 covers everything before it, magic included. Readers
fail with FormatError, whose message names the fault: wrong magic, a
version other than the one the code reads, a declared payload that runs
past the end of the file, trailing bytes, or a crc that does not match.
Header corruption that inflates a declared size may surface as
truncation before the checksum is consulted.
"""

import math
import struct
import zlib

import numpy as np

from .errors import FormatError

MAGIC_LEN = 8


class ContainerWriter:
    def __init__(self, magic, version):
        if len(magic) != MAGIC_LEN:
            raise ValueError(f"magic must be {MAGIC_LEN} bytes, got {len(magic)}")
        self._buf = bytearray(magic)
        self.pack("<I", version)

    def pack(self, fmt, *values):
        self._buf += struct.pack(fmt, *values)

    def array(self, arr, dtype):
        self._buf += np.ascontiguousarray(arr, dtype=dtype).tobytes()

    def to_bytes(self):
        crc = zlib.crc32(self._buf) & 0xFFFFFFFF
        return bytes(self._buf) + struct.pack("<I", crc)

    def save(self, path):
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)
        return data


class ContainerReader:
    def __init__(self, raw, magic, current_version):
        if len(raw) < MAGIC_LEN:
            raise FormatError(
                f"file holds {len(raw)} bytes, shorter than the {MAGIC_LEN}-byte magic"
            )
        if raw[:MAGIC_LEN] != magic:
            raise FormatError(
                f"bad magic {raw[:MAGIC_LEN]!r}, expected {magic!r}"
            )
        # body ends where the trailing crc begins
        if len(raw) < MAGIC_LEN + 4 + 4:
            raise FormatError("file too short for version and checksum fields")
        self._raw = raw
        self._end = len(raw) - 4
        self._pos = MAGIC_LEN
        (self.version,) = self.unpack("<I")
        if self.version != current_version:
            raise FormatError(
                f"container version {self.version} is not the supported version {current_version}"
            )

    def unpack(self, fmt):
        size = struct.calcsize(fmt)
        if self._pos + size > self._end:
            raise FormatError(
                f"needed {size} bytes at offset {self._pos}, body ends at {self._end}"
            )
        values = struct.unpack_from(fmt, self._raw, self._pos)
        self._pos += size
        return values

    def array(self, dtype, shape):
        dtype = np.dtype(dtype)
        # Python ints: a declared shape too large for int64 must still
        # compare as too large rather than wrap
        count = math.prod(int(s) for s in shape)
        size = count * dtype.itemsize
        if self._pos + size > self._end:
            raise FormatError(
                f"needed {size} bytes at offset {self._pos}, body ends at {self._end}"
            )
        arr = np.frombuffer(self._raw, dtype=dtype, count=count, offset=self._pos)
        self._pos += size
        return arr.reshape(shape).copy()

    def finish(self):
        """Verify position, then the trailing checksum. Call after the last field."""
        if self._pos != self._end:
            raise FormatError(
                f"{self._end - self._pos} unexpected trailing bytes in body"
            )
        (stored,) = struct.unpack_from("<I", self._raw, self._end)
        actual = zlib.crc32(self._raw[: self._end]) & 0xFFFFFFFF
        if stored != actual:
            raise FormatError(
                f"crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )


def read_file(path):
    with open(path, "rb") as fh:
        return fh.read()
