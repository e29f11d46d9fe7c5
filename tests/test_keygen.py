"""Gray coding, key extraction, and mismatch-rate metrics."""

import numpy as np
import pytest

from platoonkey.keygen import SecretKey, bmmr, codeword_table, extract_key
from platoonkey.randomness import bits_from_ascii

from _oracles import chained_mismatch, gray_list, reference_key_bits


def key01(text):
    return SecretKey(bits_from_ascii(text))


def words(table):
    return ["".join(map(str, row)) for row in table.tolist()]


def key_of(bins, table):
    """The key of one sequence of bins: the one row of a one-row block."""
    (key,) = extract_key([bins], table)
    return key


class TestGrayCodeword:
    def test_origin(self):
        assert codeword_table(8)[0].tolist() == [0, 0, 0]

    def test_first_step(self):
        table = codeword_table(8)
        assert table[1].tolist() == [0, 0, 1]
        assert int(np.sum(table[1] != table[0])) == 1

    def test_full_list_q3(self):
        assert words(codeword_table(8)) == \
            ["000", "001", "011", "010", "110", "111", "101", "100"]

    @pytest.mark.parametrize("q", range(1, 11))
    def test_adjacency_and_bijectivity(self, q):
        rows = words(codeword_table(2 ** q))
        assert len(set(rows)) == 2 ** q
        for i in range(2 ** q):
            nxt = rows[(i + 1) % (2 ** q)]
            assert sum(a != b for a, b in zip(rows[i], nxt)) == 1

    @pytest.mark.parametrize("q", range(1, 9))
    def test_matches_mirror_construction(self, q):
        assert words(codeword_table(2 ** q)) == gray_list(q)

    def test_range_checks(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="n_bins must be >= 1"):
                codeword_table(bad)


class TestCodebook:
    def test_sizes(self):
        table = codeword_table(5)
        assert table.shape == (5, 3) and table.dtype == np.uint8
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    @pytest.mark.parametrize("q,L", [(1, 2), (3, 5), (3, 8)])
    def test_equal_arguments_share_one_read_only_table(self, q, L):
        table = codeword_table(L)
        assert codeword_table(L) is table
        assert words(table) == gray_list(q)[:L]
        with pytest.raises(ValueError):
            table[L - 1, 0] ^= 1
        with pytest.raises(ValueError):
            table.flags.writeable = True
        assert words(codeword_table(L)) == gray_list(q)[:L]

    def test_width_is_ceil_log2_of_the_bins(self):
        widths = [codeword_table(L).shape[1] for L in range(1, 17)]
        assert widths == [1, 1, 2, 2] + [3] * 4 + [4] * 8
        # a numpy integer, as code may build a QuantizerConfig with, too
        assert codeword_table(np.int64(40)).shape == (40, 6)


class TestExtractKey:
    def test_constant_input(self):
        key = key_of([1, 1, 1, 1], codeword_table(5))
        assert key.to01() == "000" * 4

    def test_deterministic(self):
        table = codeword_table(5)
        seq = [2, 4, 1, 5, 3]
        assert key_of(np.array(seq), table) == key_of(list(seq), table)

    def test_direct_map_matches_per_slot_recomputation(self):
        key = key_of([1, 2, 3, 4, 5], codeword_table(5))
        expected = "".join(gray_list(3)[l - 1] for l in [1, 2, 3, 4, 5])
        assert key.to01() == expected == "000001011010110"

    def test_bad_bin_rejected(self):
        table = codeword_table(5)
        with pytest.raises(ValueError):
            key_of([0, 1], table)
        with pytest.raises(ValueError):
            key_of([6], table)
        # one bad bin in any row rejects the block
        with pytest.raises(ValueError):
            extract_key([[1, 2], [5, 6]], table)

    @pytest.mark.parametrize("bins", [[1, 2], 3, [[[1]]]])
    def test_a_block_other_than_rows_by_slots_is_rejected(self, bins):
        with pytest.raises(ValueError, match="block"):
            extract_key(bins, codeword_table(5))

    @pytest.mark.parametrize("q,L", [(1, 2), (3, 5), (4, 11)])
    def test_one_key_per_row_equal_to_its_own_row_key(self, q, L):
        table = codeword_table(L)
        block = np.random.default_rng([q, L, 1]).integers(1, L + 1, (5, 40))
        keys = extract_key(block, table)
        assert keys == [key_of(row, table) for row in block]
        assert [k.bits.tolist() for k in keys] == \
            [reference_key_bits(row, q) for row in block.tolist()]
        assert extract_key(block[:0], table) == []
        assert [len(k) for k in extract_key(block[:, :0], table)] == [0] * 5

    def test_every_key_checks_its_bits(self):
        # a table row other than 0/1 bits fails the key that gathers it
        table = np.array([[0], [2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="0 or 1"):
            extract_key([[1, 1], [1, 2]], table)

    def test_neighbor_bin_flip_costs_at_most_one_bit(self):
        table = codeword_table(8)
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
            a, b = extract_key([seq, other], table)
            assert bmmr(a, b) <= 1.0 / (slots * 3)

    @pytest.mark.parametrize("q,L", [(1, 2), (3, 5), (3, 8), (4, 11)])
    def test_matches_per_slot_oracle(self, q, L):
        table = codeword_table(L)
        rng = np.random.default_rng([q, L])
        for bins in ([], [L], list(range(1, L + 1)),
                     rng.integers(1, L + 1, 50).tolist()):
            key = key_of(np.asarray(bins, dtype=np.int64), table)
            assert key.bits.tolist() == reference_key_bits(bins, q)
            assert key.bits.dtype == np.uint8

    def test_hex_round_trip_prefix(self):
        key = key01("10110100")
        assert key.to_hex() == "b4"


class TestSecretKey:
    def test_empty_key(self):
        key = key01("")
        assert (len(key), key.to01(), key.to_hex()) == (0, "", "")

    # a cast to uint8 would truncate 0.5 and 1.2 and wrap -1 (or overflow)
    @pytest.mark.parametrize("bits", [
        [1, 2], [0, 1, 255], [3], [0.5, 1.0], [1.2, 0], [-1, 0],
        np.array([0.5, 1.0]), np.array([1.2, 0.0]), np.array([-1.0, 0.0])])
    def test_rejects_bits_other_than_0_and_1(self, bits):
        with pytest.raises(ValueError, match="key bits must be 0 or 1"):
            SecretKey(bits)

    def test_bits_are_read_only(self):
        source = np.array([0, 1, 1], dtype=np.uint8)
        key = SecretKey(source)
        with pytest.raises(ValueError):
            key.bits[0] = 1
        source[0] = 1  # the key holds its own copy
        assert key.to01() == "011"

    def test_equal_by_value(self):
        assert key01("0110") == SecretKey([0, 1, 1, 0])
        assert key01("0110") != key01("0111")
        assert key01("0110") != key01("011")


class TestBmmr:
    def test_identical(self):
        k = key01("0101")
        assert bmmr(k, k) == 0.0

    def test_complementary(self):
        assert bmmr(key01("0101"), key01("1010")) == 1.0

    def test_hand_count(self):
        assert bmmr(key01("10110"), key01("10011")) == pytest.approx(0.4)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = SecretKey(bits=tuple(rng.integers(0, 2, 40).tolist()))
            b = SecretKey(bits=tuple(rng.integers(0, 2, 40).tolist()))
            assert bmmr(a, b) == bmmr(b, a)
            assert 0.0 <= bmmr(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bmmr(key01("01"), key01("011"))

    @pytest.mark.parametrize("n", [1, 7, 126, 1000, 3001, 65537])
    def test_a_float_equal_to_the_mean_of_the_mismatches(self, n):
        # a count over n is the exact mean of a bool array; the rate stays a
        # Python float, whose repr (unlike numpy's float64) is the bare number
        rng = np.random.default_rng(n)
        for flip in (0.0, 0.1, 0.5, 1.0):
            a = rng.integers(0, 2, n, dtype=np.uint8)
            b = a ^ (rng.random(n) < flip)
            rate = bmmr(SecretKey(a), SecretKey(b))
            assert type(rate) is float
            assert rate == np.mean(a != b)

    def test_consistency_with_chained_mismatch_at_two_bins(self):
        # L=2, Q=1: per-interval chained counts equal slots * sum of pairwise
        # adjacent bmmr values, for each interval index
        rng = np.random.default_rng(17)
        slots = 40
        rows = [rng.integers(1, 3, slots) for _ in range(4)]
        keys = extract_key(rows, codeword_table(2))
        pair_sum = sum(bmmr(a, b) for a, b in zip(keys[:-1], keys[1:]))
        for l in (1, 2):
            assert chained_mismatch([r.tolist() for r in rows], l) == \
                pytest.approx(slots * pair_sum)

