"""Cooperative physical-layer key agreement for vehicle platoons.

The library simulates a platoon in which every vehicle derives a shared
secret key from quantized received-signal-strength (RSS) readings of the
leader-pair radio link: the two lead vehicles measure the link directly,
every follower estimates it from its own beacon receptions, quantization
boundaries are fitted by dynamic programming to minimize cross-vehicle
bit mismatch, and bin indices are Gray-coded into key bits.  A passive
eavesdropper on an independent fading channel is modeled alongside, and
an 8-test statistical randomness battery validates the generated keys.

Import each name from its module (``channel``, ``keygen``, ``quantizer``,
``protocol``, ``randomness``, ``scenario``, ``sweep`` or ``cli``), where
``__all__`` lists it; the package itself binds none of them.
"""
