"""Battery p-values pinned exactly, as ``float.hex``, on six streams.

The tolerance tests in ``test_randomness`` would let a rewrite of a test
move its last digits; ``nist.csv`` and ``platoonkey nist`` print these
values, so any change that moves one altered the output.  A skipped test
(below its length floor) is pinned as an empty tuple.

The spectral test keeps its buffers per thread and reuses them, so its
pins are also checked across lengths and threads, and a warm call must not
allocate stream-sized memory.
"""

import sys
import threading
import tracemalloc

import pytest

from platoonkey.randomness import dft_test, run_battery

from test_randomness import PI_100, biased_bits, random_bits

STREAMS = {
    "uniform_200k": lambda: random_bits(200_000, 2024),
    "p047_68179": lambda: biased_bits(68_179, 0.47, 12),
    "pi_100": lambda: PI_100,
    "floor_100": lambda: random_bits(100, 100),
    "floor_128": lambda: random_bits(128, 128),
    "floor_1000": lambda: random_bits(1000, 1000),
}

PINNED = {
    "uniform_200k": {
        "frequency": ('0x1.c9d3e1aecb134p-2',),
        "block_frequency": ('0x1.273cdc6be27bfp-1',),
        "cusum_forward": ('0x1.615470b0c0980p-2',),
        "cusum_reverse": ('0x1.3b15bd7279680p-1',),
        "runs": ('0x1.1a5753f79a953p-4',),
        "longest_run": ('0x1.1088d26255e47p-1',),
        "dft": ('0x1.6181899ebe472p-2',),
        "approx_entropy": ('0x1.024787fffd52fp-4',),
        "serial": ('0x1.880ace170043cp-3', '0x1.52ec976da8e7ap-1'),
    },
    "p047_68179": {
        "frequency": ('0x1.0ab17094f357ep-162',),
        "block_frequency": ('0x1.5af8ec78c6d2dp-72',),
        "cusum_forward": ('0x1.7b0c18152bff9p-164',),
        "cusum_reverse": ('0x1.5237172391f5dp-164',),
        "runs": ('0x0.0p+0',),
        "longest_run": ('0x1.45fca74ffa7f8p-12',),
        "dft": ('0x1.8e4b1995b6686p-1',),
        "approx_entropy": ('0x1.e126722d6567bp-146',),
        "serial": ('0x1.c4a78816432dbp-135', '0x1.bbd4d1bf5c17bp-1'),
    },
    "pi_100": {
        "frequency": ('0x1.c0ea71b631b11p-4',),
        "block_frequency": ('0x1.f936e8b197084p-2',),
        "cusum_forward": ('0x1.c0e8c7cc00d39p-3',),
        "cusum_reverse": ('0x1.d67df4e23be7ep-4',),
        "runs": ('0x1.006895ae75bb8p-1',),
        "longest_run": (),
        "dft": (),
        "approx_entropy": ('0x1.c31e748cb1a9bp-3',),
        "serial": ('0x1.06d2152cb9d44p-2', '0x1.60d91f7ac9038p-1'),
    },
    "floor_100": {
        "frequency": ('0x1.c0ea71b631b11p-4',),
        "block_frequency": ('0x1.3774d6fe6c8bdp-1',),
        "cusum_forward": ('0x1.6d143175b8540p-3',),
        "cusum_reverse": ('0x1.c0e8c7cc00d39p-3',),
        "runs": ('0x1.14b44f2b478b6p-3',),
        "longest_run": (),
        "dft": (),
        "approx_entropy": ('0x1.6ec0e7ad832a1p-4',),
        "serial": ('0x1.152aaa3bf81ccp-3', '0x1.d7534b65d1dc6p-3'),
    },
    "floor_128": {
        "frequency": ('0x1.0000000000000p+0',),
        "block_frequency": ('0x1.03333a165dc36p-2',),
        "cusum_forward": ('0x1.c8b73b9ac9a20p-1',),
        "cusum_reverse": ('0x1.c8b73b9ac9a20p-1',),
        "runs": ('0x1.c9296beb09cf1p-4',),
        "longest_run": ('0x1.adb88a82f1969p-1',),
        "dft": (),
        "approx_entropy": ('0x1.4147a966b150dp-2',),
        "serial": ('0x1.ad48bc25771c7p-3', '0x1.3bcd133aa100ep-4'),
    },
    "floor_1000": {
        "frequency": ('0x1.236ff8b1da50ap-1',),
        "block_frequency": ('0x1.177e73fabdd83p-1',),
        "cusum_forward": ('0x1.a571ab9618070p-1',),
        "cusum_reverse": ('0x1.640ddedd363d2p-2',),
        "runs": ('0x1.113d5ff01be2ep-1',),
        "longest_run": ('0x1.e48787725efd9p-1',),
        "dft": ('0x1.1f91999b0de0cp-1',),
        "approx_entropy": ('0x1.c573c994a78d9p-1',),
        "serial": ('0x1.647f1f5d52eb0p-1', '0x1.0ddea4a09f184p-1'),
    },
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_battery_p_values_pinned(stream):
    report = run_battery(STREAMS[stream]())
    got = {r.name: tuple(p.hex() for p in r.p_values) for r in report.results}
    assert got == PINNED[stream]


def pinned_dft(stream):
    (p,) = PINNED[stream]["dft"]
    return float.fromhex(p)


def run_threads(targets):
    """Start a thread per target and join each within a minute."""
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


def test_dft_pins_hold_as_the_streams_shrink_and_grow_back():
    # a new thread starts with no buffers: the first stream sizes them, the
    # next two outgrow the buffers they find, shorter ones use leading
    # slices, and the last fits again
    order = ["floor_1000", "p047_68179", "uniform_200k",
             "p047_68179", "floor_1000", "uniform_200k"]
    streams = {name: STREAMS[name]() for name in order}
    before = {name: bits.copy() for name, bits in streams.items()}
    got = []
    run_threads([lambda: got.extend(dft_test(streams[name]) for name in order)])
    assert got == [pinned_dft(name) for name in order]
    assert all((streams[name] == before[name]).all() for name in order)


def test_dft_pins_hold_on_three_threads_at_once():
    # each thread keeps its own buffers: a shared pair would mix the streams
    names = ["uniform_200k", "p047_68179", "floor_1000"]
    streams = {name: STREAMS[name]() for name in names}
    start, got = threading.Barrier(len(names)), {name: [] for name in names}

    def run(name):
        start.wait(timeout=60)
        got[name].extend(dft_test(streams[name]) for _ in range(5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_threads([lambda name=name: run(name) for name in names])
    finally:
        sys.setswitchinterval(interval)
    assert got == {name: [pinned_dft(name)] * 5 for name in names}


def test_a_warm_dft_call_allocates_no_stream_sized_buffer():
    # a 200-kbit stream's float copy alone is 1.6 MB; the buffers this
    # thread kept from the warm-up call must serve the traced one
    bits = STREAMS["uniform_200k"]()
    dft_test(bits)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert dft_test(bits) == pinned_dft("uniform_200k")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 256 * 1024
