"""Leader keys pinned by digest at the two benchmark cycle shapes.

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
        "9ac1e5afa79d8e291e3d96933677c57fd4c0031771fe7aa77d68f7e922314377",
        "21efff08681b13041e1cd2a4bd2521924ddb601c99d17a1a5b7898c69c1a3332",
        "cb2633906ae0b145de5252737a990cc6ce31cb4f65f9db17e213448a7744a3d0",
        "580feedab652d689c1000151ede60f51a3efdfae912623018614a0fb7420d66d",
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
