"""Gray coding, key extraction, and mismatch-rate metrics."""

import numpy as np
import pytest

from platoonkey.keygen import (
    CodebookTooSmall,
    GrayCodebook,
    KeygenConfig,
    SecretKey,
    bmmr,
    complement_bit,
    extract_key,
    gray_codeword,
)
from platoonkey.quantizer import mismatch_count

from _oracles import gray_list, reference_key_bits


class TestGrayCodeword:
    def test_origin(self):
        assert gray_codeword(0, 3).tolist() == [0, 0, 0]

    def test_first_step(self):
        assert gray_codeword(1, 3).tolist() == [0, 0, 1]
        assert int(np.sum(gray_codeword(1, 3) != gray_codeword(0, 3))) == 1

    def test_full_list_q3(self):
        words = ["".join(map(str, gray_codeword(i, 3))) for i in range(8)]
        assert words == ["000", "001", "011", "010", "110", "111", "101", "100"]

    @pytest.mark.parametrize("q", range(1, 11))
    def test_adjacency_and_bijectivity(self, q):
        words = [tuple(gray_codeword(i, q)) for i in range(2 ** q)]
        assert len(set(words)) == 2 ** q
        for i in range(2 ** q):
            nxt = words[(i + 1) % (2 ** q)]
            assert sum(a != b for a, b in zip(words[i], nxt)) == 1

    @pytest.mark.parametrize("q", range(1, 9))
    def test_matches_mirror_construction(self, q):
        ours = ["".join(map(str, gray_codeword(i, q))) for i in range(2 ** q)]
        assert ours == gray_list(q)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            gray_codeword(8, 3)
        with pytest.raises(ValueError):
            gray_codeword(-1, 3)


class TestComplementBit:
    def test_small_cases(self):
        assert complement_bit(2) == 1
        assert complement_bit(4) == 0

    def test_first_twelve(self):
        assert [complement_bit(l) for l in range(1, 13)] == \
            [0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0]

    def test_thousand(self):
        for l in range(1, 1001):
            assert complement_bit(l) == (1 if l % 4 in (2, 3) else 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            complement_bit(0)


class TestCodebook:
    def test_sizes(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=5)
        assert len(cb.codewords) == 8
        assert len(cb.complement_bits) == 5
        assert len(cb.plus_codewords) == 5

    def test_grouped_codewords_collapse_groups_of_four(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=8)
        assert cb.plus_codewords[0] == cb.plus_codewords[3]
        assert cb.plus_codewords[4] == cb.plus_codewords[7]
        assert cb.plus_codewords[0] != cb.plus_codewords[4]


class TestExtractKey:
    def test_constant_input(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=5)
        key = extract_key([1, 1, 1, 1], cb)
        assert key.to01() == "000" * 4

    def test_deterministic(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=5)
        seq = [2, 4, 1, 5, 3]
        assert extract_key(seq, cb).bits == extract_key(list(seq), cb).bits

    def test_direct_map_matches_per_slot_recomputation(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=5)
        key = extract_key([1, 2, 3, 4, 5], cb)
        expected = "".join("".join(map(str, gray_codeword(l - 1, 3)))
                           for l in [1, 2, 3, 4, 5])
        assert key.to01() == expected == "000001011010110"

    def test_grouped_map_with_complement(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=8)
        key = extract_key([1, 2, 5, 8], cb, map_mode="grouped",
                          append_complement=True)
        # slot key = grouped codeword + complement bit
        expected = ""
        for l in [1, 2, 5, 8]:
            expected += "".join(map(str, cb.plus_codewords[l - 1]))
            expected += str(complement_bit(l))
        assert key.to01() == expected

    def test_codebook_too_small(self):
        cb = GrayCodebook(codeword_bits=2, n_bins=5)
        with pytest.raises(CodebookTooSmall):
            extract_key([1, 2], cb)

    def test_bad_bin_rejected(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=5)
        with pytest.raises(ValueError):
            extract_key([0, 1], cb)
        with pytest.raises(ValueError):
            extract_key([6], cb)

    def test_neighbor_bin_flip_costs_at_most_one_bit(self):
        cb = GrayCodebook(codeword_bits=3, n_bins=8)
        rng = np.random.default_rng(8)
        slots = 20
        for _ in range(30):
            seq = rng.integers(1, 9, slots)
            pos = int(rng.integers(0, slots))
            other = seq.copy()
            if seq[pos] == 8:
                other[pos] -= 1
            elif seq[pos] == 1 or rng.random() < 0.5:
                other[pos] += 1
            else:
                other[pos] -= 1
            a = extract_key(seq, cb)
            b = extract_key(other, cb)
            assert bmmr(a, b) <= 1.0 / (slots * 3)

    @pytest.mark.parametrize("map_mode", ["direct", "grouped"])
    @pytest.mark.parametrize("append_complement", [False, True])
    @pytest.mark.parametrize("q,L", [(1, 2), (3, 5), (3, 8), (4, 11)])
    def test_matches_per_slot_oracle(self, map_mode, append_complement, q, L):
        cb = GrayCodebook(codeword_bits=q, n_bins=L)
        rng = np.random.default_rng([q, L])
        for bins in ([], [L], list(range(1, L + 1)),
                     rng.integers(1, L + 1, 50).tolist()):
            key = extract_key(np.asarray(bins, dtype=np.int64), cb, map_mode,
                              append_complement, owner=3)
            assert list(key.bits) == reference_key_bits(
                bins, q, L, map_mode, append_complement)
            assert all(type(b) is int for b in key.bits)
            assert key.owner == 3

    def test_hex_round_trip_prefix(self):
        key = SecretKey.from01("10110100")
        assert key.to_hex() == "b4"


class TestBmmr:
    def test_identical(self):
        k = SecretKey.from01("0101")
        assert bmmr(k, k) == 0.0

    def test_complementary(self):
        assert bmmr(SecretKey.from01("0101"), SecretKey.from01("1010")) == 1.0

    def test_hand_count(self):
        assert bmmr(SecretKey.from01("10110"), SecretKey.from01("10011")) == \
            pytest.approx(0.4)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = SecretKey(bits=tuple(rng.integers(0, 2, 40).tolist()))
            b = SecretKey(bits=tuple(rng.integers(0, 2, 40).tolist()))
            assert bmmr(a, b) == bmmr(b, a)
            assert 0.0 <= bmmr(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bmmr(SecretKey.from01("01"), SecretKey.from01("011"))

    def test_consistency_with_chained_mismatch_at_two_bins(self):
        # L=2, Q=1: per-interval chained counts equal slots * sum of pairwise
        # adjacent bmmr values, for each interval index
        rng = np.random.default_rng(17)
        slots = 40
        rows = [rng.integers(1, 3, slots) for _ in range(4)]
        cb = GrayCodebook(codeword_bits=1, n_bins=2)
        keys = [extract_key(r, cb) for r in rows]
        pair_sum = sum(bmmr(a, b) for a, b in zip(keys[:-1], keys[1:]))
        for l in (1, 2):
            assert mismatch_count(rows, l) == pytest.approx(slots * pair_sum)


class TestKeygenConfig:
    def test_auto_bits(self):
        assert KeygenConfig().resolve_bits(2) == 1
        assert KeygenConfig().resolve_bits(5) == 3
        assert KeygenConfig().resolve_bits(16) == 4

    def test_explicit_bits(self):
        assert KeygenConfig(codeword_bits=6).resolve_bits(5) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            KeygenConfig(map_mode="zigzag")
