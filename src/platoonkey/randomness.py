"""Statistical randomness battery for generated key streams.

Eight tests returning p-values: frequency, block frequency, cumulative
sums (forward and reverse), runs, longest run of ones, discrete Fourier
transform, approximate entropy, and serial (which yields two p-values).
A stream passes a test when every p-value exceeds 0.01.  The battery
holds the stream as one validated ``uint8`` array, which its tests share.

:func:`run_battery` runs the spectral (DFT) test on the calling thread
and the other seven, in battery order, on one worker thread that it
joins before returning.  The spectral test takes about half the
battery's time, and nearly all of that is ``np.fft.rfft``, which
releases the interpreter lock, so the two halves overlap.  Fresh pages
on the caller stalled the worker thread, so the spectral test reuses
a +-1 stream buffer and a spectrum buffer per thread: each thread keeps
16 bytes per bit of the longest stream it has tested.

Each test enforces one minimum input length, its entry in
:data:`DEFAULT_FLOORS`, which follows the usual recommendations.  The
numerical core is the complementary error function and the regularized
upper incomplete gamma ratio; accuracy of both is pinned against a
high-precision reference in the test suite.  Their ``scipy.special``
loads at the first test call: it takes most of a package import, and a
key agreement cycle runs no test.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_FLOORS",
    "InsufficientData",
    "RandomnessReport",
    "TestResult",
    "approx_entropy_test",
    "bits_from_ascii",
    "block_frequency_test",
    "cusum_test",
    "dft_test",
    "frequency_test",
    "longest_run_test",
    "run_battery",
    "runs_test",
    "serial_test",
]

PASS_THRESHOLD = 0.01

DEFAULT_FLOORS = {
    "frequency": 100,
    "block_frequency": 100,
    "cusum": 100,
    "runs": 100,
    "longest_run": 128,
    "dft": 1000,
    "approx_entropy": 64,
    "serial": 16,
}


def _special():
    import scipy.special  # deferred: a key agreement cycle never needs it
    return scipy.special


class InsufficientData(ValueError):
    """Input stream is shorter than the test's minimum length."""


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits).reshape(-1)  # a uint8 stream is not copied
    uint8 = arr.dtype == np.uint8
    # exactly 0 or 1 before the cast, which would truncate 0.5 and wrap -1
    if arr.size and (arr.max() > 1 if uint8 else not ((arr == 0) | (arr == 1)).all()):
        raise ValueError("input must contain only bits 0/1")
    return arr.astype(np.uint8, copy=False)


def bits_from_ascii(text: str) -> np.ndarray:
    """The bits of the ``0``/``1`` characters of ``text`` as uint8; every
    other character is ignored.  Non-ASCII text raises
    ``UnicodeEncodeError``."""
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return chars[(chars == ord("0")) | (chars == ord("1"))] - ord("0")


def _check_floor(n: int, name: str) -> None:
    need = DEFAULT_FLOORS[name]
    if n < need:
        raise InsufficientData(f"{name} test needs >= {need} bits, got {n}")


def frequency_test(bits) -> float:
    """Monobit test: p = erfc(|S_n| / sqrt(2 n)) for the +-1 sum S_n."""
    eps = _as_bits(bits)
    _check_floor(len(eps), "frequency")
    s = abs(2 * np.count_nonzero(eps) - len(eps))
    return float(_special().erfc(s / math.sqrt(2.0 * len(eps))))


def block_frequency_test(bits, block_size: int | None = None) -> float:
    """Chi-square of per-block one-proportions against 1/2."""
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "block_frequency")
    m = _default_block_size(n) if block_size is None else block_size
    if not 1 <= m <= n:
        raise ValueError("block_size must be in [1, n]")
    k = n // m
    pi = eps[:k * m].reshape(k, m).mean(axis=1)
    chi2 = 4.0 * m * float(np.sum((pi - 0.5) ** 2))
    return float(_special().gammaincc(k / 2.0, chi2 / 2.0))


def _default_block_size(n: int) -> int:
    # >= 20 bits per block and at most ~100 blocks
    return max(20, -(-n // 100))


# For each byte of packed bits (first bit highest), read as eight +-1
# steps: the walk's change over the byte, and its highest and lowest
# point after each step, measured from the byte's end.
_BYTE_WALKS = np.cumsum(
    2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    .astype(np.int8) - 1, axis=1, dtype=np.int8)
_BYTE_STEP = _BYTE_WALKS[:, -1]
_BYTE_HIGH = _BYTE_WALKS.max(axis=1) - _BYTE_STEP
_BYTE_LOW = _BYTE_WALKS.min(axis=1) - _BYTE_STEP


def _walk_range(eps: np.ndarray) -> tuple[int, int, int]:
    """(max, min, S_n) of the +-1 walk S_0 = 0, ..., S_n over the stream,
    read a byte of steps at a time."""
    n8 = len(eps) - len(eps) % 8
    packed = np.packbits(eps[:n8])
    # S_8, S_16, ...; they lie in [-n, n], which a dtype holding -n - 1 holds
    ends = np.cumsum(_BYTE_STEP[packed], dtype=np.min_scalar_type(-len(eps) - 1))
    # initial=0 counts S_0
    high = int((ends + _BYTE_HIGH[packed]).max(initial=0))
    low = int((ends + _BYTE_LOW[packed]).min(initial=0))
    s = int(ends[-1]) if n8 else 0
    for bit in eps[n8:].tolist():
        s += 2 * bit - 1
        high, low = max(high, s), min(low, s)
    return high, low, s


def cusum_test(bits, direction: str = "forward") -> float:
    """Maximal partial-sum excursion of the +-1 walk.

    The reverse direction processes the reversed sequence.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError("direction must be 'forward' or 'reverse'")
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "cusum")
    high, low, end = _walk_range(eps)
    # reversed, the walk starts at S_n and visits S_{n-1}..S_0
    z = max(high, -low) if direction == "forward" else max(high - end, end - low)
    # z >= 1: the first step of either walk is +-1
    sqn = math.sqrt(n)
    k1 = np.arange((-n // z + 1) // 4, (n // z - 1) // 4 + 1)
    k2 = np.arange((-n // z - 3) // 4, (n // z - 1) // 4 + 1)
    ndtr = _special().ndtr
    term1 = np.sum(ndtr((4 * k1 + 1) * z / sqn)
                   - ndtr((4 * k1 - 1) * z / sqn))
    term2 = np.sum(ndtr((4 * k2 + 3) * z / sqn)
                   - ndtr((4 * k2 + 1) * z / sqn))
    return float(min(max(1.0 - term1 + term2, 0.0), 1.0))


def runs_test(bits) -> float:
    """Total number of runs; returns 0.0 when the frequency precheck, the
    share of ones within ``2 / sqrt(n)`` of 1/2, fails."""
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "runs")
    pi = np.count_nonzero(eps) / n
    if not abs(pi - 0.5) < 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + np.count_nonzero(eps[1:] != eps[:-1])
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(_special().erfc(num / den))


_LONGEST_RUN_TABLES = (
    # (min_n, block_size, categories, probabilities)
    (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def longest_run_test(bits) -> float:
    """Longest run of ones per block, chi-squared against tabulated bins."""
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "longest_run")
    for min_n, m, cats, probs in _LONGEST_RUN_TABLES:
        if n >= min_n:
            break
    k = n // m
    # A zero on both sides of every block row closes each run of ones
    # inside its own row, so the rises (+1) and falls (-1) of the
    # flattened rows pair up in order, one pair per run.
    padded = np.zeros((k, m + 2), dtype=np.int8)
    padded[:, 1:-1] = eps[:k * m].reshape(k, m)
    edges = np.diff(padded.ravel())
    del padded
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1)
    del edges
    lengths -= starts
    starts //= m + 2  # each run's block row
    longest = np.zeros(k, dtype=np.int64)
    np.maximum.at(longest, starts, lengths)
    # every category table is a run of consecutive lengths, the first
    # and last bins open-ended
    nu = np.bincount(np.clip(longest, cats[0], cats[-1]) - cats[0],
                     minlength=len(cats))
    expected = k * np.asarray(probs)
    chi2 = float(np.sum((nu - expected) ** 2 / expected))
    return float(_special().gammaincc((len(cats) - 1) / 2.0, chi2 / 2.0))


# per thread: the float64 +-1 stream and the complex128 spectrum of dft_test
_DFT_SCRATCH = threading.local()


def dft_test(bits) -> float:
    """Spectral test: fraction of DFT peaks under the 95 % threshold.  The
    calling thread keeps 16 bytes per bit of the longest stream it tested."""
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "dft")
    x, spec = getattr(_DFT_SCRATCH, "buffers", ((), ()))
    if len(x) < n:  # reused while the stream fits, grown when it does not
        x, spec = _DFT_SCRATCH.buffers = np.empty(n), np.empty(n // 2 + 1, np.complex128)
    x = np.multiply(eps, 2.0, out=x[:n])
    x -= 1
    spectrum = np.fft.rfft(x, out=spec[: n // 2 + 1])
    modulus = np.abs(spectrum[: n // 2], out=x[: n // 2])
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = np.count_nonzero(modulus < threshold)
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return float(_special().erfc(abs(d) / math.sqrt(2.0)))


_BINCOUNT_SLICE = 1 << 14


def _pattern_counts(eps: np.ndarray, m: int) -> list[np.ndarray]:
    """``counts[k][c]``: how many of the n overlapping k-bit windows of the
    stream, read cyclically, hold the pattern with code c, for k = 0..m
    (``m >= 1``)."""
    n = len(eps)
    # overlapping m-pattern codes, first bit highest, narrowest uint for m bits
    ext = np.concatenate([eps, eps[: m - 1]]).astype(np.min_scalar_type((1 << m) - 1))
    codes = ext[:n].copy()
    for k in range(1, m):
        codes <<= 1
        codes |= ext[k:k + n]
    # bincount widens its input to intp: a slice at a time keeps that small
    counts = [np.zeros(1 << m, dtype=np.intp)]
    for start in range(0, n, _BINCOUNT_SLICE):
        counts[0] += np.bincount(codes[start:start + _BINCOUNT_SLICE],
                                 minlength=1 << m)
    # a k-bit window is the prefix of the (k+1)-bit window at the same
    # position, so pairs of codes sharing all but the last bit merge
    for _ in range(m):
        counts.append(counts[-1].reshape(-1, 2).sum(axis=1))
    return counts[::-1]


def approx_entropy_test(bits, m: int | None = None) -> float:
    """Approximate entropy of overlapping m- and (m+1)-patterns."""
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "approx_entropy")
    if m is None:
        m = _default_apen_m(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    if 1 << (m + 1) > n:
        raise ValueError(f"approximate entropy test needs 2**(m+1) <= n, "
                         f"got m={m}, n={n}")
    phi = []
    for c in _pattern_counts(eps, m + 1)[m:]:
        c = c[c > 0] / n
        phi.append(float(np.sum(c * np.log(c))))
    apen = phi[0] - phi[1]
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return float(_special().gammaincc(2 ** (m - 1), chi2 / 2.0))


def _default_apen_m(n: int) -> int:
    return max(1, min(3, int(math.log2(n)) - 5))


def serial_test(bits, m: int | None = None) -> tuple[float, float]:
    """Overlapping m-pattern uniformity; returns two p-values."""
    eps = _as_bits(bits)
    n = len(eps)
    _check_floor(n, "serial")
    if m is None:
        m = _default_serial_m(n)
    if m < 2:
        raise ValueError("m must be >= 2")
    if 1 << m > n:
        raise ValueError(f"serial test needs 2**m <= n, got m={m}, n={n}")
    counts = _pattern_counts(eps, m)
    psi_m, psi_m1, psi_m2 = (
        float((1 << k) / n * np.sum(counts[k].astype(float) ** 2) - n)
        if k else 0.0
        for k in (m, m - 1, m - 2))
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = float(_special().gammaincc(2 ** (m - 2), d1 / 2.0))
    p2 = float(_special().gammaincc(2 ** (m - 3), d2 / 2.0))
    return p1, p2


def _default_serial_m(n: int) -> int:
    return max(2, min(5, int(math.log2(n)) - 7))


@dataclass(frozen=True)
class TestResult:
    name: str
    p_values: tuple[float, ...]
    passed: bool


@dataclass
class RandomnessReport:
    """Battery outcome: one row per test, plus the recorded parameters."""

    input_length: int
    results: list[TestResult] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        """True when every test that ran passed (skipped tests excluded)."""
        ran = [r for r in self.results if r.p_values]
        return bool(ran) and all(r.passed for r in ran)

    def rows(self) -> list[tuple[str, str, str]]:
        out = []
        for r in self.results:
            ps = ", ".join(f"{p:.6f}" for p in r.p_values)
            verdict = "skipped" if not r.p_values else "pass" if r.passed else "FAIL"
            out.append((r.name, ps, verdict))
        return out


# (row name, p-values given the stream).  The lambdas look each test up
# by name when called, so a wrapper set on a module attribute (the bench
# tracer sets one per test) also sees the battery's calls.
_BATTERY = (
    ("frequency", lambda e: (frequency_test(e),)),
    ("block_frequency", lambda e: (block_frequency_test(e),)),
    ("cusum_forward", lambda e: (cusum_test(e, "forward"),)),
    ("cusum_reverse", lambda e: (cusum_test(e, "reverse"),)),
    ("runs", lambda e: (runs_test(e),)),
    ("longest_run", lambda e: (longest_run_test(e),)),
    ("dft", lambda e: (dft_test(e),)),
    ("approx_entropy", lambda e: (approx_entropy_test(e),)),
    ("serial", lambda e: serial_test(e)),
)
# the rows run_battery runs on its worker thread and on the calling
# thread; see the module docstring
_ON_WORKER = tuple(t for t in _BATTERY if t[0] != "dft")
_ON_CALLER = tuple(t for t in _BATTERY if t[0] == "dft")


def _p_values(tests, eps: np.ndarray) -> dict[str, tuple[float, ...]]:
    """Each row's p-values, or () for a test below its length floor."""
    out = {}
    for name, test in tests:
        try:
            out[name] = test(eps)
        except InsufficientData:
            out[name] = ()
    return out


def run_battery(bits) -> RandomnessReport:
    """Run all eight tests at their defaults and collect a pass/fail report.

    A test whose minimum length (:data:`DEFAULT_FLOORS`) is not met is
    recorded as skipped rather than failing the battery.  Any other
    exception from a test is raised here, after the worker thread ends.
    """
    eps = _as_bits(bits)
    n = len(eps)
    # parameters as the tests derive them; a skipped test's are at its floor
    report = RandomnessReport(input_length=n, parameters={
        "block_size": _default_block_size(n),
        "apen_m": _default_apen_m(max(n, DEFAULT_FLOORS["approx_entropy"])),
        "serial_m": _default_serial_m(max(n, DEFAULT_FLOORS["serial"])),
    })
    with ThreadPoolExecutor(max_workers=1) as worker:
        rest = worker.submit(_p_values, _ON_WORKER, eps)
        p_values = _p_values(_ON_CALLER, eps) | rest.result()
    for name, _ in _BATTERY:
        ps = p_values[name]
        passed = bool(ps) and all(p > PASS_THRESHOLD for p in ps)
        report.results.append(TestResult(name, ps, passed))
    return report
