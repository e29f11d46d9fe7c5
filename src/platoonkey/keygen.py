"""Gray-coded secret key extraction from quantization bin indices.

Each retained slot contributes the Q-bit reflected-binary Gray codeword
of its bin (the direct map of Jana et al., MobiCom 2009, and Patwari et
al., IEEE TMC 2010), so neighboring bins differ in a single key bit and
a one-bin quantization disagreement costs at most one bit of the slot's
codeword.  :func:`codeword_table` lays the map out as one read-only
table, built once per ``(Q, L)``, and :func:`extract_key` gathers that
table's rows at every row's bin indices in one take.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "CodebookTooSmall",
    "KeygenConfig",
    "SecretKey",
    "bmmr",
    "codeword_table",
    "extract_key",
]


class CodebookTooSmall(ValueError):
    """The codebook cannot represent all L bins (L > 2**Q)."""


@dataclass(frozen=True)
class KeygenConfig:
    """codeword_bits = 0 selects ceil(log2(n_intervals)) automatically."""

    codeword_bits: int = 0

    def __post_init__(self) -> None:
        if self.codeword_bits < 0:
            raise ValueError("codeword_bits must be >= 0")

    def resolve_bits(self, n_intervals: int) -> int:
        if self.codeword_bits:
            return self.codeword_bits
        return max(1, (int(n_intervals) - 1).bit_length())  # ceil(log2(L))


@dataclass(frozen=True, eq=False)
class SecretKey:
    """A key: a read-only uint8 array of 0/1 bits; equal bits, equal keys."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        uint8 = bits.dtype == np.uint8
        # exactly 0 or 1 before the cast, which would truncate 0.5 and wrap -1
        if bits.size and (bits.max() > 1 if uint8 else not ((bits == 0) | (bits == 1)).all()):
            raise ValueError("key bits must be 0 or 1")
        bits = bits.astype(np.uint8).ravel()  # the key's own copy
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SecretKey)
                and np.array_equal(self.bits, other.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def to01(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def to_hex(self) -> str:
        """Hex of the bit string packed MSB-first, zero-padded to a byte."""
        return np.packbits(self.bits).tobytes().hex()


@cache
def codeword_table(codeword_bits: int, n_bins: int) -> np.ndarray:
    """The read-only ``(n_bins, Q)`` uint8 table of the direct Gray map.

    Row l - 1 holds bin l's codeword, the (l - 1)-th reflected-binary Gray
    codeword ``(l - 1) ^ ((l - 1) >> 1)``, most significant bit first, so
    adjacent bins are Gray-adjacent.  Raises :class:`CodebookTooSmall`
    when L > 2**Q, so no bin's codeword index exceeds the codebook.
    """
    q, L = codeword_bits, n_bins
    if q < 1 or L < 1:
        raise ValueError("codeword_bits and n_bins must be >= 1")
    if L > 2 ** q:
        raise CodebookTooSmall(f"{L} bins exceed the {2 ** q}-codeword codebook")
    index = np.arange(L)
    gray = index ^ (index >> 1)
    table = ((gray[:, None] >> np.arange(q - 1, -1, -1)) & 1).astype(np.uint8)
    # shared by every caller, so over immutable bytes: no flag makes it writeable
    return np.frombuffer(table.tobytes(), dtype=np.uint8).reshape(L, q)


def extract_key(bin_rows, table: np.ndarray) -> list[SecretKey]:
    """One key per row of a ``(rows, slots)`` block of 1-based bin indices:
    the :func:`codeword_table` rows of its bins, concatenated in slot order."""
    idx = np.asarray(bin_rows, dtype=np.intp)
    if idx.ndim != 2 or idx.size and (idx.min() < 1 or idx.max() > len(table)):
        raise ValueError("bin indices must be a (rows, slots) block in [1, n_bins]")
    return [SecretKey(row) for row in table.take(idx - 1, axis=0)]


def bmmr(key_a: SecretKey, key_b: SecretKey) -> float:
    """Bit mismatch rate: fraction of positions where the keys differ."""
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    if len(key_a) == 0:
        raise ValueError("keys must be non-empty")
    return float(np.count_nonzero(key_a.bits != key_b.bits) / len(key_a))
