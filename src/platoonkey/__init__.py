"""Cooperative physical-layer key agreement for vehicle platoons.

The library simulates a platoon in which every vehicle derives a shared
secret key from quantized received-signal-strength (RSS) readings of the
leader-pair radio link: the two lead vehicles measure the link directly,
every follower estimates it from its own beacon receptions, quantization
boundaries are fitted by dynamic programming to minimize cross-vehicle
bit mismatch, and bin indices are Gray-coded into key bits.  A passive
eavesdropper on an independent fading channel is modeled alongside, and
an 8-test statistical randomness battery validates the generated keys.
"""

from .channel import (
    ChannelParams,
    PlatoonGeometry,
    RssTrace,
    distance_from_rss,
    generate_trace,
    rss_of_link,
)
from .keygen import (
    CodebookTooSmall,
    KeygenConfig,
    SecretKey,
    bmmr,
    codeword_table,
    extract_key,
)
from .protocol import (
    AgreementReport,
    CycleAbort,
    CycleLog,
    DisseminationFailure,
    ProtocolConfig,
    TransmissionEvent,
    run_cska,
    run_cycle,
    run_evcd,
    xor_cipher,
)
from .quantizer import (
    InfeasiblePartition,
    IntervalSet,
    MismatchTable,
    QuantizerConfig,
    optimize_boundaries,
    optimize_intervals,
    quantize_trace,
)
from .randomness import (
    InsufficientData,
    RandomnessReport,
    approx_entropy_test,
    block_frequency_test,
    cusum_test,
    dft_test,
    frequency_test,
    longest_run_test,
    run_battery,
    runs_test,
    serial_test,
)
from .scenario import ParseError, Scenario, parse_scenario, serialize_scenario
from .sweep import emit_plots, run_sweep

__version__ = "0.1.0"
