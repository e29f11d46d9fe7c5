"""Gray-coded secret key extraction from quantization bin indices.

Each retained slot contributes the Q-bit reflected-binary Gray codeword
of its bin, so neighboring bins differ in a single key bit and a
one-bin quantization disagreement costs at most one bit of the slot's
codeword.  Two bin-to-codeword maps are provided:

* ``direct`` (default): bin l maps to codeword l - 1.  Requires
  L <= 2**Q and keeps adjacent bins Gray-adjacent.
* ``grouped``: bin l maps to codeword floor((l - 1) / 4) mod 2**Q, with
  an optional per-bin complement bit appended to restore within-group
  distinction.

The codebook also carries the per-bin complement-bit sequence, which
enters a key only when ``append_complement`` is set.

:func:`extract_key` lays the selected map out as an ``(n_bins, Q)``
uint8 table, one codeword row per bin, with the complement bit as an
extra column when appended; a key is the table's rows gathered at the
slots' bin indices and flattened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CodebookTooSmall",
    "GrayCodebook",
    "KeygenConfig",
    "MAP_MODES",
    "SecretKey",
    "bmmr",
    "complement_bit",
    "extract_key",
    "gray_codeword",
]

MAP_MODES = ("direct", "grouped")


class CodebookTooSmall(ValueError):
    """The codebook cannot represent all L bins (L > 2**Q)."""


def gray_codeword(index: int, q: int) -> np.ndarray:
    """The index-th reflected-binary Gray codeword as q bits (MSB first)."""
    if q < 1:
        raise ValueError("codeword length must be >= 1")
    if not 0 <= index < 2 ** q:
        raise ValueError(f"index {index} out of range for {q}-bit codewords")
    g = index ^ (index >> 1)
    return np.array([(g >> (q - 1 - k)) & 1 for k in range(q)], dtype=np.uint8)


def complement_bit(l: int) -> int:
    """Complement bit of bin l: 1 iff l mod 4 >= 2."""
    if l < 1:
        raise ValueError("bin index must be >= 1")
    return int(l % 4 >= 2)


@dataclass(frozen=True)
class KeygenConfig:
    """codeword_bits = 0 selects ceil(log2(n_intervals)) automatically."""

    codeword_bits: int = 0
    map_mode: str = "direct"
    append_complement: bool = False

    def __post_init__(self) -> None:
        if self.codeword_bits < 0:
            raise ValueError("codeword_bits must be >= 0")
        if self.map_mode not in MAP_MODES:
            raise ValueError(f"map_mode must be one of {MAP_MODES}")

    def resolve_bits(self, n_intervals: int) -> int:
        if self.codeword_bits:
            return self.codeword_bits
        return max(1, int(np.ceil(np.log2(n_intervals))))


@dataclass(frozen=True)
class GrayCodebook:
    """Gray codeword list plus the bin-wise sequences derived from it.

    ``codewords`` holds all 2**Q codewords.  ``plus_codewords[l-1]`` is
    the grouped codeword of bin l and ``complement_bits[l-1]`` its
    complement bit.
    """

    codeword_bits: int
    n_bins: int
    codewords: tuple[tuple[int, ...], ...] = field(init=False)
    complement_bits: tuple[int, ...] = field(init=False)
    plus_codewords: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        q, L = self.codeword_bits, self.n_bins
        if q < 1 or L < 1:
            raise ValueError("codeword_bits and n_bins must be >= 1")
        words = tuple(tuple(int(b) for b in gray_codeword(i, q))
                      for i in range(2 ** q))
        object.__setattr__(self, "codewords", words)
        object.__setattr__(self, "complement_bits",
                           tuple(complement_bit(l) for l in range(1, L + 1)))
        plus = tuple(words[((l - 1) // 4) % (2 ** q)] for l in range(1, L + 1))
        object.__setattr__(self, "plus_codewords", plus)


@dataclass(frozen=True)
class SecretKey:
    """A bit-string key owned by one vehicle (0 is the eavesdropper)."""

    bits: tuple[int, ...]
    owner: int = 0

    def __len__(self) -> int:
        return len(self.bits)

    def to01(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_hex(self) -> str:
        """Hex of the bit string packed MSB-first, zero-padded to a byte."""
        if not self.bits:
            return ""
        arr = np.packbits(np.array(self.bits, dtype=np.uint8))
        return arr.tobytes().hex()

    @classmethod
    def from01(cls, text: str, owner: int = 0) -> "SecretKey":
        return cls(bits=tuple(int(c) for c in text.strip()), owner=owner)

    def as_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)


def extract_key(bin_indices, codebook: GrayCodebook,
                map_mode: str = "direct", append_complement: bool = False,
                owner: int = 0) -> SecretKey:
    """Concatenate per-slot codewords for a sequence of bin indices.

    ``direct`` maps bin l to codeword l - 1 and requires every bin to fit
    the codebook; ``grouped`` maps bin l to the grouped codeword, with
    the complement bit appended when requested.  Both are one lookup in
    the codeword table described in the module docstring.
    """
    if map_mode not in MAP_MODES:
        raise ValueError(f"map_mode must be one of {MAP_MODES}")
    q, L = codebook.codeword_bits, codebook.n_bins
    if L > 2 ** q:
        raise CodebookTooSmall(f"{L} bins exceed the {2 ** q}-codeword codebook")
    idx = np.asarray(bin_indices, dtype=np.int64)
    if idx.size and (idx.min() < 1 or idx.max() > L):
        raise ValueError("bin indices must lie in [1, n_bins]")
    words = codebook.codewords[:L] if map_mode == "direct" else codebook.plus_codewords
    table = np.array(words, dtype=np.uint8)
    if append_complement:
        table = np.column_stack(
            [table, np.array(codebook.complement_bits, dtype=np.uint8)])
    return SecretKey(bits=tuple(table[idx - 1].ravel().tolist()), owner=owner)


def bmmr(key_a: SecretKey, key_b: SecretKey) -> float:
    """Bit mismatch rate: fraction of positions where the keys differ."""
    if len(key_a) != len(key_b):
        raise ValueError("keys must have equal length")
    if len(key_a) == 0:
        raise ValueError("keys must be non-empty")
    return float(np.mean(key_a.as_array() != key_b.as_array()))
