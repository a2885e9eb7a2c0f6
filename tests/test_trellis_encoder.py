"""The byte-step RSC encoder is bit-identical to the per-bit reference.

``RscTrellis.encode_bits_batch`` encodes eight info bits per step from
``(state, byte)`` tables plus a per-bit tail; ``encode_bits`` walks one bit
at a time and is the reference semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.turbo.trellis import UMTS_TRELLIS, RscTrellis

TRELLISES = {"umts-13-15": UMTS_TRELLIS, "23-35": RscTrellis(0o23, 0o35, 5)}


@pytest.mark.parametrize("name", sorted(TRELLISES))
@given(
    length=st.integers(min_value=0, max_value=40),
    batch=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batch_encoder_matches_per_row_encode_bits(name, length, batch, seed):
    trellis = TRELLISES[name]
    bits = np.random.default_rng(seed).integers(0, 2, (batch, length)).astype(np.int8)
    for initial_state in range(trellis.num_states):
        parity, final_states = trellis.encode_bits_batch(bits, initial_state)
        assert parity.shape == (batch, length) and parity.dtype == np.int8
        assert final_states.shape == (batch,) and final_states.dtype == np.int64
        for row in range(batch):
            expected, expected_state = trellis.encode_bits(bits[row], initial_state)
            np.testing.assert_array_equal(parity[row], expected)
            assert final_states[row] == expected_state


def test_byte_tables_cover_every_state_and_byte():
    trellis = TRELLISES["23-35"]
    byte_parity, byte_next_index = trellis.byte_tables
    assert byte_parity.shape == (trellis.num_states * 256, 8)
    for state in (0, trellis.num_states - 1):
        for byte in (0, 0b10110001, 255):
            bits = np.array([(byte >> (7 - k)) & 1 for k in range(8)])
            parity, final_state = trellis.encode_bits(bits, state)
            np.testing.assert_array_equal(byte_parity[state * 256 + byte], parity)
            assert byte_next_index[state * 256 + byte] == 256 * final_state
