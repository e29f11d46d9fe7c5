"""Leader keys pinned by digest at the two benchmark cycle shapes, on two
noisy channels, and at the larger shape with noisy (distinct) passes.

A declared model change updates these digests and says so in CHANGES.md;
any other change that moves them altered the keys by accident.
"""

import hashlib

import pytest

from platoonkey.channel import ChannelParams, PlatoonGeometry
from platoonkey.keygen import KeygenConfig
from platoonkey.protocol import ProtocolConfig, run_cycle
from platoonkey.quantizer import QuantizerConfig

# (n_vehicles, slots, z_iterations, n_intervals) -> sha256 of to01() per seed 0..3
PINNED = {
    (4, 200, 1, 2): (
        "8be8a537ab89cd55885614d85376575a0809f4e9dec806486c5c9b138c67b9a3",
        "f5915037530abb46c39daa7caf7748ae8c2096b17a116e53809128594cb267c4",
        "2845fc60470160ae036e43a3b933a4c9b905fabbc6af2cc2d77bb018f1ef28ca",
        "52d18203ed94af986c71b8ffa0f6e21e7b55c97acf5f0ec655ce22fc6ba28ca1",
    ),
    (10, 1000, 10, 8): (
        "9b1a6c1e42f64725a9f9a432c20c0529bb328eff74712dd682c72404574e0feb",
        "b0539cc18abd19cd8c6144d3ec0cd96074e3e080c565d79a54e6417e0fc59401",
        "abc8d6507f7886c51199895314cb82c4a07c3eb61f1984242e89cb40f87770d2",
        "e9fa37bc02a35f6efbc0fc889c9fa55143aa011e5d2a8d997696877c28b0bf93",
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_leader_key_digests(shape):
    n, slots, z, L = shape
    digests = []
    for seed in range(4):
        rep = run_cycle(ChannelParams(),
                        PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0),
                        ProtocolConfig(z_iterations=z),
                        QuantizerConfig(n_intervals=L, grid_size=64),
                        KeygenConfig(), slots, seed)
        digests.append(hashlib.sha256(rep.leader_key.to01().encode()).hexdigest())
    assert tuple(digests) == PINNED[shape]


# channel noise -> (sha256 of the leader key's to01(), bits in which
# vehicle 2's key differs from it) per seed 0..3, at N=6, T=200, Z=3, L=4
NOISY_PINNED = {
    (("measurement_noise_db", 0.1), ("reciprocity_sigma_db", 0.5)): (
        ("7e7f920ee50e791b19ee46d4f55e2a21a8786c7dd448217f30d2eabd4939d9ec", 5),
        ("075f2813cb48db03e95ef4430a43777577a33c795a576938041badbd12b3749f", 7),
        ("c5188269c96102b4714c5b3718edaa17799829ae1d7d048673f16a14ece32ead", 7),
        ("23a6d10ec1a24663d2835a90552dea507bce0970c70f37826f0cf3052c8d6e4d", 9),
    ),
    # the measurement noise of zero sigma is still drawn, so the
    # reciprocity noise keeps its place in the stream; only vehicle 2,
    # outside the quantizer's fit chain, reads it, so the leader keys
    # equal the noiseless ones and the mismatch counts pin the draws
    (("reciprocity_sigma_db", 0.5),): (
        ("f4ae97a1a095675523e584ab3a06ddd37723cdffa7fa2cb5a3e707baa4a4cb58", 6),
        ("fbefd2373782d40f75a5b45d54aacda55517d6c29614ec5e5fd4ebb711192c86", 4),
        ("2970b588d2ab4498a2c3562c2e684035697cbe606f6e43ac1db59042a904ff92", 6),
        ("4b6b44388da23cdb33005f83cf1544c411df6b5e192a3021a519b844a8785230", 6),
    ),
}


def _noisy_pins(params, n, slots, z, L):
    pins = []
    for seed in range(4):
        rep = run_cycle(params, PlatoonGeometry(n_vehicles=n, pair_distance_m=2.0),
                        ProtocolConfig(z_iterations=z),
                        QuantizerConfig(n_intervals=L, grid_size=64),
                        KeygenConfig(), slots, seed)
        pins.append((hashlib.sha256(rep.leader_key.to01().encode()).hexdigest(),
                     round(rep.bmmr_per_vehicle[2] * rep.agreed_key_bits)))
    return tuple(pins)


@pytest.mark.parametrize("noise", sorted(NOISY_PINNED))
def test_noisy_leader_key_digests(noise):
    assert _noisy_pins(ChannelParams(**dict(noise)), 6, 200, 3, 4) == NOISY_PINNED[noise]


# (sha256 of the leader key's to01(), bits in which vehicle 2's key
# differs from it) per seed 0..3 at the cycle_large shape (N=10, T=1000,
# Z=10, L=8) with measurement noise: the Z passes are distinct arrays,
# so the averaged trace sums ten different values per slot
NOISY_Z10_PINNED = (
    ("7b918866f96aed21b3c7964c76fabd32e59bcab461e5f6f50e4e1db602d645a6", 1),
    ("339ed53562d3730486608540bcfe079332e77c4eb172cb048c57d619fc8d181f", 2),
    ("4c81d32c141551e1f5216950ffa1bb8163b7c75080587413d26d637a1176f9b9", 1),
    ("ba8b941dce0e78ed2c3b6aa44a072215421cbb8be549861a8ac79fe493846722", 4),
)


def test_noisy_z10_leader_key_digests():
    params = ChannelParams(measurement_noise_db=0.05)
    assert _noisy_pins(params, 10, 1000, 10, 8) == NOISY_Z10_PINNED
