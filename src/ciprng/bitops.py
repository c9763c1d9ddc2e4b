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

    One uint8 0/1 per bit: each state's low n_bits (a larger or negative
    state keeps just those, as in two's complement) pick its row of
    `state_codes`, less '0', so n_bits is 1 to 16 as there.  On the way
    it holds one int64 index per state besides.  `CiGenerator.byte_stream`
    packs these bits.
    """
    index = np.asarray(states, dtype=np.int64) & ((1 << n_bits) - 1)
    bits = state_codes(n_bits).take(index, axis=0)
    bits -= ord("0")
    return bits.ravel()


@functools.cache
def state_codes(n_bits: int) -> np.ndarray:
    """(2^n_bits, n_bits) uint8 array whose row x holds the ASCII '0'/'1'
    digits of state x, most significant first; widths 1 to 16.

    Read-only and cached, one table per width asked for (1 MiB at 16,
    1.9 MiB for all of widths 1-16): `state_bits`,
    `CiGenerator.bit_stream` and the DOT export read it.  It is unpacked
    from big-endian uint16 words x << (16 - n_bits), so nothing built on
    the way is larger than the table.
    """
    if not 1 <= n_bits <= 16:
        raise ValueError(f"n_bits must be in [1, 16], got {n_bits}")
    words = np.arange(0, 1 << 16, 1 << (16 - n_bits), dtype=">u2")
    codes = np.unpackbits(words.view(np.uint8).reshape(-1, 2), axis=1, count=n_bits)
    codes += ord("0")
    codes.flags.writeable = False
    return codes
