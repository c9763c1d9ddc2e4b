"""Bit-sequence helpers shared by the generator, the test battery, and the CLI."""

from __future__ import annotations

import functools

import numpy as np


def as_bit_array(bits) -> np.ndarray:
    """Normalize a bit sequence to a uint8 array of 0/1 values.

    Accepts a '0'/'1' string, a sequence of 0/1 numbers, or a numpy
    array.  Packed bytes are not auto-detected; use `unpack_bits` first.
    A uint8 or bool array is returned without a copy.
    """
    if isinstance(bits, str):
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    elif isinstance(bits, (bytes, bytearray)):
        raise TypeError("raw bytes are ambiguous here; unpack_bits() them first")
    else:
        arr = np.asarray(bits)
        if arr.dtype == np.bool_:
            arr = arr.view(np.uint8)
        elif arr.dtype.kind in "US":
            arr = arr.astype(np.int64)  # a sequence of digit strings: read each as a number
    if arr.ndim != 1:
        raise ValueError(f"expected a flat bit sequence, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        binary = not arr.size or arr.max() <= 1
    else:
        # checked before narrowing, which would wrap 257 and -255 to 1 and cut 1.7 to 1
        binary = bool(((arr == 0) | (arr == 1)).all())
    if not binary:
        raise ValueError("bit sequence contains values other than 0 and 1")
    return arr.astype(np.uint8, copy=False)


def bits_to_str(bits) -> str:
    arr = as_bit_array(bits)
    return (arr + ord("0")).astype(np.uint8).tobytes().decode("ascii")


def pack_bits(bits) -> bytes:
    """Pack bits MSB-first into bytes; the bit count must be a multiple of 8."""
    arr = as_bit_array(bits)
    if arr.size % 8:
        raise ValueError(f"bit count {arr.size} is not a multiple of 8")
    return np.packbits(arr).tobytes()


def unpack_bits(data: bytes) -> np.ndarray:
    """Inverse of pack_bits: bytes to a uint8 array of bits, MSB-first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def state_bits(states, n_bits: int) -> np.ndarray:
    """Concatenated big-endian n_bits-wide bit patterns of the given states.

    Each state's low n_bits, shifted to the top of the narrowest
    big-endian word of 1, 2, 4 or 8 bytes that holds them, unpacked
    MSB-first: one byte per output bit, and a word per state besides.
    The generator's streams expand their states this way only at the
    widths they do not pack directly (byte_stream at N other than 2, 4,
    8 and 16) or gather from `state_codes` (bit_stream at N > 8).
    """
    arr = np.asarray(states, dtype=np.int64)
    size = 1 << max(0, (n_bits - 1).bit_length() - 3)  # bytes per word
    words = arr.astype(f">u{size}")  # keeps the low 8 * size bits, as the shifts do
    if n_bits == 8 * size:
        return np.unpackbits(words.view(np.uint8))
    words <<= 8 * size - n_bits
    return np.unpackbits(words.view(np.uint8).reshape(-1, size), axis=1, count=n_bits).ravel()


def state_codes(n_bits: int) -> np.ndarray:
    """(2^n_bits, n_bits) uint8 array whose row x holds the ASCII '0'/'1'
    digits of state x, most significant first.

    Widths up to 8 come read-only from a cache, which holds one table per
    width asked for, at most 3586 bytes for all of widths 1-8: building
    one took 5-10 us, as long as gathering 4096 bytes of stream from it
    (2-core Xeon, min of 40 calls).  A wider table (1 MiB at 16) is built
    afresh on each call, for the DOT export, which reads it once.
    """
    return _cached_state_codes(n_bits) if n_bits <= 8 else _build_state_codes(n_bits)


def _build_state_codes(n_bits: int) -> np.ndarray:
    codes = ((np.arange(1 << n_bits)[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1).astype(np.uint8)
    codes += ord("0")
    return codes


@functools.cache
def _cached_state_codes(n_bits: int) -> np.ndarray:
    codes = _build_state_codes(n_bits)
    codes.flags.writeable = False
    return codes
