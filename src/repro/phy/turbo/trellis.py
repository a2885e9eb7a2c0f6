"""Trellis description of a recursive systematic convolutional (RSC) encoder.

The UMTS/HSPA turbo code uses the 8-state RSC code with feedback polynomial
``1 + D^2 + D^3`` (octal 13) and feed-forward polynomial ``1 + D + D^3``
(octal 15).  This module precomputes the state-transition and output tables
the encoder and the max-log-MAP decoder need, plus the reverse tables
(predecessor states) used by the vectorised forward recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.utils.validation import ensure_positive_int


def _octal_to_taps(octal_value: int, constraint_length: int) -> np.ndarray:
    """Convert an octal generator (e.g. 0o13) to a tap array [g0, g1, ..]."""
    binary = np.array(
        [(octal_value >> i) & 1 for i in range(constraint_length - 1, -1, -1)],
        dtype=np.int8,
    )
    return binary


@dataclass(frozen=True)
class RscTrellis:
    """Precomputed trellis tables for a rate-1/2 RSC encoder.

    Parameters
    ----------
    feedback:
        Feedback polynomial in octal (13 for UMTS).
    feedforward:
        Feed-forward (parity) polynomial in octal (15 for UMTS).
    constraint_length:
        Number of taps including the current input (4 for UMTS, 8 states).

    Attributes
    ----------
    next_state:
        ``next_state[s, u]`` — state after input bit ``u`` from state ``s``.
    parity:
        ``parity[s, u]`` — parity output bit for that transition.
    prev_state:
        ``prev_state[s', k]`` (k = 0, 1) — the two predecessor states of
        ``s'``.
    prev_input:
        ``prev_input[s', k]`` — the input bit on the branch from
        ``prev_state[s', k]`` to ``s'``.
    termination_input:
        ``termination_input[s]`` — input bit that drives the encoder from
        state ``s`` towards the all-zero state (the feedback bit itself).
    """

    feedback: int = 0o13
    feedforward: int = 0o15
    constraint_length: int = 4

    next_state: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    parity: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    prev_state: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    prev_input: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    termination_input: np.ndarray = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        ensure_positive_int(self.constraint_length, "constraint_length")
        memory = self.constraint_length - 1
        num_states = 1 << memory
        fb_taps = _octal_to_taps(self.feedback, self.constraint_length)
        ff_taps = _octal_to_taps(self.feedforward, self.constraint_length)

        next_state = np.zeros((num_states, 2), dtype=np.int64)
        parity = np.zeros((num_states, 2), dtype=np.int8)
        termination_input = np.zeros(num_states, dtype=np.int8)

        for state in range(num_states):
            # Shift register contents, most recent bit first.
            register = np.array(
                [(state >> (memory - 1 - i)) & 1 for i in range(memory)], dtype=np.int8
            )
            # The feedback contribution from the register (excluding input tap).
            fb_from_register = int(np.dot(fb_taps[1:], register) % 2)
            termination_input[state] = fb_from_register
            for u in (0, 1):
                # Recursive bit entering the register.
                d = (u ^ fb_from_register) & 1
                full = np.concatenate([[d], register])
                parity[state, u] = int(np.dot(ff_taps, full) % 2)
                new_register = full[:-1]
                new_state = 0
                for bit in new_register:
                    new_state = (new_state << 1) | int(bit)
                next_state[state, u] = new_state

        prev_state = np.zeros((num_states, 2), dtype=np.int64)
        prev_input = np.zeros((num_states, 2), dtype=np.int64)
        counts = np.zeros(num_states, dtype=np.int64)
        for state in range(num_states):
            for u in (0, 1):
                target = next_state[state, u]
                slot = counts[target]
                prev_state[target, slot] = state
                prev_input[target, slot] = u
                counts[target] += 1
        if not np.all(counts == 2):
            raise RuntimeError("invalid trellis: every state must have two predecessors")

        object.__setattr__(self, "next_state", next_state)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "prev_state", prev_state)
        object.__setattr__(self, "prev_input", prev_input)
        object.__setattr__(self, "termination_input", termination_input)

    @cached_property
    def byte_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(parity, next_index)`` for eight-bit encoder steps, built on first use.

        ``parity[s * 256 + b]`` holds the 8 parity bits of input byte ``b``
        (most significant bit first) from state ``s``; ``next_index[s * 256
        + b]`` is ``256 * s'`` for the state ``s'`` that byte leads to — the
        row base of the next byte's lookup.  Both come from running the
        per-bit recursion once over every (state, byte) pair.
        """
        pairs = np.arange(self.num_states * 256)
        state = pairs >> 8
        parity = np.empty((pairs.size, 8), dtype=np.int8)
        for k in range(8):
            u = (pairs >> (7 - k)) & 1
            parity[:, k] = self.parity[state, u]
            state = self.next_state[state, u]
        return parity, state * 256

    @property
    def num_states(self) -> int:
        """Number of trellis states (8 for the UMTS code)."""
        return int(self.next_state.shape[0])

    def encode_bits(self, bits: np.ndarray, initial_state: int = 0) -> tuple[np.ndarray, int]:
        """Run the RSC encoder over *bits*; return (parity bits, final state)."""
        state = int(initial_state)
        out = np.empty(len(bits), dtype=np.int8)
        for i, u in enumerate(np.asarray(bits, dtype=np.int64)):
            out[i] = self.parity[state, u]
            state = int(self.next_state[state, u])
        return out, state

    def encode_bits_batch(
        self, bits: np.ndarray, initial_state: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise :meth:`encode_bits` for a ``(batch, length)`` bit matrix.

        Eight input bits per step through the byte tables, then one bit per
        step for the ``length % 8`` tail.  Both are exact integer table
        lookups, bit-identical to encoding each row alone; returns
        ``(parity_matrix, final_states)``.
        """
        info = np.asarray(bits)
        if info.ndim != 2:
            raise ValueError(f"expected a 2-D bit matrix, got shape {info.shape}")
        batch, length = info.shape
        whole = length - length % 8
        byte_parity, byte_next_index = self.byte_tables
        # Row base (256 * state) of the current byte lookup.
        base = np.full(batch, 256 * int(initial_state), dtype=np.int64)
        steps = np.empty((whole // 8, batch), dtype=np.int64)
        byte_columns = np.packbits(info[:, :whole].astype(np.uint8), axis=1).T
        for j, column in enumerate(byte_columns):
            index = steps[j]
            np.add(base, column, out=index)
            base = byte_next_index[index]
        out = np.empty((batch, length), dtype=np.int8)
        out[:, :whole] = byte_parity[steps.T].reshape(batch, whole)
        state = base >> 8
        parity, next_state = self.parity, self.next_state
        for i in range(whole, length):
            u = info[:, i].astype(np.int64)
            out[:, i] = parity[state, u]
            state = next_state[state, u]
        return out, state


#: The UMTS / HSPA constituent-code trellis (octal generators 13 / 15).
UMTS_TRELLIS = RscTrellis()
