"""The HARQ LLR soft buffer backed by a (possibly faulty) memory array.

This is the component the whole paper revolves around: "The received data
packets are buffered in the LLR storage prior to decoding ... the HARQ
operation combines the retransmitted data packet with the (stored)
information (i.e., LLRs) of previous transmissions."

The buffer quantizes LLRs with the configured
:class:`~repro.phy.quantization.LlrQuantizer` and stores each one as a
packed integer word (the Hamming codeword when ECC is on), and every
read-back goes through the die's fault map — so memory defects corrupt
exactly the bits the paper's fault simulator corrupts.  A buffer is one
``(num_slots, words_per_slot)`` word array over one die-wide
:class:`~repro.memory.faults.FaultMap`; each slot reads through row views of
the map's packed ``(keep, flip)`` masks with
:func:`~repro.memory.array.read_stored_words`, the same read as
:class:`~repro.memory.array.MemoryArray`.

The link advances a whole round of packets at once, so the buffer work is
round-level too: :func:`store_transmission_batch`,
:func:`load_transmission_batch` and :func:`combine_and_store_batch` quantize,
store and read the ``(rows, words)`` matrix of a round in a few numpy calls,
one row per buffer.  Each buffer's transient upsets are drawn from its own
stream in exactly the order per-buffer calls would draw them, so a batch is
byte-identical to looping over its buffers; the per-buffer methods are the
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.array import draw_upsets, read_stored_words
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, unpack_words
from repro.phy.quantization import LlrQuantizer
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_positive_int, ensure_probability

#: Stored-word format of a buffer: its quantizer and its optional ECC.
_Format = Tuple[LlrQuantizer, Optional[HammingCode]]


class _SlotWords:
    """Word storage shared by both buffer organisations.

    ``_words[slot]`` holds one slot's stored words; ``_keep[slot]`` and
    ``_flip[slot]`` are row views of the die map's packed read masks.
    """

    quantizer: LlrQuantizer
    ecc: Optional[HammingCode]
    fault_map: Optional[FaultMap]
    soft_error_rate: float
    soft_error_rng: RngLike

    def _init_words(self, num_slots: int, words_per_slot: int) -> None:
        ensure_probability(self.soft_error_rate, "soft_error_rate")
        if self.ecc is not None and self.ecc.data_bits != self.quantizer.num_bits:
            raise ValueError(
                f"ECC data width {self.ecc.data_bits} does not match "
                f"the {self.quantizer.num_bits}-bit quantizer"
            )
        stored_bits = (
            self.ecc.codeword_bits if self.ecc is not None else self.quantizer.num_bits
        )
        total_words = num_slots * words_per_slot
        if self.fault_map is None:
            keep = np.full(total_words, (1 << stored_bits) - 1, dtype=np.int64)
            flip = np.zeros(total_words, dtype=np.int64)
        else:
            if self.fault_map.num_words != total_words:
                raise ValueError(
                    f"fault map covers {self.fault_map.num_words} words, "
                    f"buffer needs {total_words}"
                )
            if self.fault_map.bits_per_word != stored_bits:
                raise ValueError(
                    f"fault map covers {self.fault_map.bits_per_word} bit columns, "
                    f"buffer stores {stored_bits}"
                )
            keep, flip = self.fault_map.word_masks()
        self._keep = keep.reshape(num_slots, words_per_slot)
        self._flip = flip.reshape(num_slots, words_per_slot)
        self._words = np.zeros((num_slots, words_per_slot), dtype=np.int64)
        self._stored_bits = stored_bits
        self._soft_rng = as_rng(self.soft_error_rng) if self.soft_error_rate > 0.0 else None

    def _draw_upsets(self) -> Optional[np.ndarray]:
        """Packed transient upsets of one slot read (``None`` when disabled)."""
        if self._soft_rng is None:
            return None
        _, words_per_slot = self._words.shape
        return draw_upsets(self._soft_rng, self.soft_error_rate, words_per_slot, self._stored_bits)

    @property
    def num_cells(self) -> int:
        """Number of bit cells the buffer occupies."""
        return self._words.size * self._stored_bits

    def defect_rate(self) -> float:
        """Fraction of faulty cells in the underlying array."""
        return self.fault_map.defect_rate if self.fault_map is not None else 0.0

    def stored_bit_matrix(self) -> np.ndarray:
        """Raw stored bits of every word (before fault injection), for analyses.

        One row per stored word, slot after slot; with ECC the row is the
        whole codeword ``[data | parity]``.
        """
        return unpack_words(self._words.reshape(-1), self._stored_bits)


# --------------------------------------------------------------------------- #
# round-level word I/O (one row per buffer)
# --------------------------------------------------------------------------- #
def _per_format(
    buffers: Sequence[_SlotWords],
    rows: np.ndarray,
    convert: Callable[[_Format, np.ndarray], np.ndarray],
    dtype,
) -> np.ndarray:
    """Apply *convert* to each stored format's rows of *rows* (one row per buffer)."""
    groups: Dict[_Format, List[int]] = {}
    for index, buffer in enumerate(buffers):
        groups.setdefault((buffer.quantizer, buffer.ecc), []).append(index)
    if len(groups) == 1:
        return convert(next(iter(groups)), rows)
    out = np.empty(rows.shape, dtype=dtype)
    for word_format, indices in groups.items():
        out[indices] = convert(word_format, rows[indices])
    return out


def _llrs_to_stored(word_format: _Format, llrs: np.ndarray) -> np.ndarray:
    quantizer, ecc = word_format
    words = quantizer.llrs_to_words(llrs)
    return words if ecc is None else ecc.encode_words(words)


def _stored_to_llrs(word_format: _Format, read: np.ndarray) -> np.ndarray:
    quantizer, ecc = word_format
    return quantizer.words_to_llrs(read if ecc is None else ecc.decode_words(read))


def _check_rows(buffers: Sequence[_SlotWords], llrs: np.ndarray) -> np.ndarray:
    """*llrs* as a float64 matrix with one row of slot words per buffer."""
    values = np.asarray(llrs, dtype=np.float64)
    words_per_slot = buffers[0]._words.shape[1]
    if values.shape != (len(buffers), words_per_slot):
        raise ValueError(
            f"expected {len(buffers)} rows of {words_per_slot} LLRs, got shape {values.shape}"
        )
    return values


def _write_rows(buffers: Sequence[_SlotWords], slot: int, llrs: np.ndarray) -> None:
    """Quantize a ``(rows, words)`` LLR matrix and store row ``i`` in ``buffers[i]``."""
    values = _check_rows(buffers, llrs)
    stored = _per_format(buffers, values, _llrs_to_stored, np.int64)
    for buffer, row in zip(buffers, stored):
        buffer._words[slot] = row


def _read_rows(
    buffers: Sequence[_SlotWords], slot: int, upsets: Sequence[Optional[np.ndarray]]
) -> np.ndarray:
    """Read *slot* of every buffer through its faults: a ``(rows, words)`` LLR matrix.

    ``upsets[i]`` holds the transient upsets already drawn for row ``i``'s
    read (``None`` without soft errors).
    """
    stored = np.stack([buffer._words[slot] for buffer in buffers])
    keep = np.stack([buffer._keep[slot] for buffer in buffers])
    flip = np.stack([buffer._flip[slot] for buffer in buffers])
    transient = None
    if any(row is not None for row in upsets):
        transient = np.zeros_like(stored)
        for index, row in enumerate(upsets):
            if row is not None:
                transient[index] = row
    read = read_stored_words(stored, keep, flip, transient)
    return _per_format(buffers, read, _stored_to_llrs, np.float64)


@dataclass
class LlrSoftBuffer(_SlotWords):
    """Soft buffer holding the combined LLRs of one HARQ process.

    Parameters
    ----------
    num_llrs:
        Number of LLR words the buffer holds (the mother-code length for an
        incremental-redundancy virtual buffer).
    quantizer:
        Fixed-point format of the stored LLRs.
    fault_map:
        Fault locations of the underlying SRAM (defect-free by default).  The
        map must cover ``num_llrs`` words of ``quantizer.num_bits`` columns
        (the ECC codeword width with *ecc*).
    ecc:
        Optional Hamming code protecting every stored word (conventional
        full-ECC alternative).
    soft_error_rate:
        Per-read transient upset probability per cell (composes with the
        persistent fault map; see :class:`~repro.memory.array.MemoryArray`).
    soft_error_rng:
        Seed or generator driving the transient upsets.
    """

    num_llrs: int
    quantizer: LlrQuantizer = field(default_factory=LlrQuantizer)
    fault_map: Optional[FaultMap] = None
    ecc: Optional[HammingCode] = None
    soft_error_rate: float = 0.0
    soft_error_rng: RngLike = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_llrs, "num_llrs")
        self._init_words(1, self.num_llrs)
        self._occupied = False

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """Whether the buffer holds no packet yet (start of a HARQ process)."""
        return not self._occupied

    # ------------------------------------------------------------------ #
    def store(self, llrs: np.ndarray) -> None:
        """Quantize and store *llrs* (length must equal ``num_llrs``)."""
        values = np.asarray(llrs, dtype=np.float64).reshape(-1)
        if values.size != self.num_llrs:
            raise ValueError(f"expected {self.num_llrs} LLRs, got {values.size}")
        _write_rows([self], 0, values[None])
        self._occupied = True

    def load(self) -> np.ndarray:
        """Read the stored LLRs back through the faulty memory.

        Returns zeros when the buffer is empty (first transmission).
        """
        if not self._occupied:
            return np.zeros(self.num_llrs, dtype=np.float64)
        return _read_rows([self], 0, [self._draw_upsets()])[0]

    def combine_and_store(self, new_llrs: np.ndarray) -> np.ndarray:
        """Add *new_llrs* to the stored soft values, store and return the result.

        The returned array is what the channel decoder sees: it is read back
        through the faulty memory *after* the combined value has been written,
        matching the hardware dataflow (decoder reads from the LLR SRAM).
        """
        values = np.asarray(new_llrs, dtype=np.float64).reshape(1, -1)
        return combine_and_store_batch([self], values)[0]

    def clear(self) -> None:
        """Flush the soft buffer (ACK received or process re-used)."""
        self._words = np.zeros_like(self._words)
        self._occupied = False


@dataclass
class TransmissionSoftBuffer(_SlotWords):
    """Soft buffer storing each HARQ transmission's received LLRs separately.

    This models the alternative (and, for HSDPA terminals, common) buffer
    organisation in which the LLR memory is sized for the channel bits of up
    to ``num_slots`` transmissions and the soft combining is performed when
    the decoder reads the buffer: every stored transmission is read back
    (through the fault map), de-rate-matched with its redundancy version and
    summed in the mother-code domain.

    Compared with :class:`LlrSoftBuffer` (which stores the already-combined
    mother-domain values), a faulty cell here corrupts only *one*
    transmission's contribution, so retransmissions dilute the damage — the
    behaviour responsible for the paper's finding that the system still meets
    its throughput requirement at surprisingly high defect rates.

    Parameters
    ----------
    words_per_transmission:
        Stored LLR words per transmission (the channel-bit count).
    num_slots:
        Maximum number of transmissions retained (the HARQ budget).
    quantizer:
        Fixed-point format of the stored LLRs.
    fault_map:
        Die-wide fault map covering ``num_slots * words_per_transmission``
        words; slot ``s`` occupies its rows
        ``[s * words_per_transmission, (s + 1) * words_per_transmission)``.
    ecc:
        Optional Hamming code protecting every stored word.
    soft_error_rate:
        Per-read transient upset probability per cell (composes with the
        persistent fault map; see :class:`~repro.memory.array.MemoryArray`).
    soft_error_rng:
        Seed or generator driving the transient upsets; one stream is
        shared by all slots (reads visit slots in a fixed order).
    """

    words_per_transmission: int
    num_slots: int
    quantizer: LlrQuantizer = field(default_factory=LlrQuantizer)
    fault_map: Optional[FaultMap] = None
    ecc: Optional[HammingCode] = None
    soft_error_rate: float = 0.0
    soft_error_rng: RngLike = None

    def __post_init__(self) -> None:
        ensure_positive_int(self.words_per_transmission, "words_per_transmission")
        ensure_positive_int(self.num_slots, "num_slots")
        self._init_words(self.num_slots, self.words_per_transmission)
        self._slot_redundancy_versions: list[Optional[int]] = [None] * self.num_slots
        self._occupied = [False] * self.num_slots

    # ------------------------------------------------------------------ #
    @property
    def num_words(self) -> int:
        """Total stored LLR words across all slots."""
        return self.words_per_transmission * self.num_slots

    @property
    def num_stored_transmissions(self) -> int:
        """How many transmissions are currently buffered."""
        return sum(self._occupied)

    def slot_occupied(self, slot: int) -> bool:
        """Whether *slot* currently holds a transmission."""
        _check_slot(self, slot)
        return bool(self._occupied[slot])

    def slot_redundancy_version(self, slot: int) -> int:
        """Redundancy version stored in *slot* (which must be occupied)."""
        if not self._occupied[slot]:
            raise ValueError(f"slot {slot} is empty")
        return int(self._slot_redundancy_versions[slot])

    # ------------------------------------------------------------------ #
    def store_transmission(
        self, slot: int, llrs: np.ndarray, redundancy_version: int
    ) -> None:
        """Quantize and store one transmission's channel LLRs into *slot*."""
        values = np.asarray(llrs, dtype=np.float64).reshape(1, -1)
        store_transmission_batch([self], slot, values, redundancy_version)

    def load_transmission(self, slot: int) -> tuple[np.ndarray, int]:
        """Read one stored transmission back (fault injection applied).

        Returns ``(llrs, redundancy_version)``.
        """
        llrs, versions = load_transmission_batch([self], slot)
        return llrs[0], versions[0]

    def combined_mother_llrs(self, derate_match) -> np.ndarray:
        """Sum all stored transmissions in the mother-code domain.

        Parameters
        ----------
        derate_match:
            Callable ``(channel_llrs, redundancy_version) -> mother_llrs``
            (typically the receiver's de-interleave + de-rate-match stage).
        """
        combined: Optional[np.ndarray] = None
        for slot in range(self.num_slots):
            if not self._occupied[slot]:
                continue
            llrs, redundancy_version = self.load_transmission(slot)
            mother = np.asarray(derate_match(llrs, redundancy_version), dtype=np.float64)
            combined = mother if combined is None else combined + mother
        if combined is None:
            raise ValueError("no transmissions stored yet")
        return combined

    def clear(self) -> None:
        """Flush all slots (ACK received or process re-used)."""
        self._words = np.zeros_like(self._words)
        self._slot_redundancy_versions = [None] * self.num_slots
        self._occupied = [False] * self.num_slots


# --------------------------------------------------------------------------- #
# round-level calls used by the link
# --------------------------------------------------------------------------- #
def _check_slot(buffer: TransmissionSoftBuffer, slot: int) -> None:
    if not 0 <= slot < buffer.num_slots:
        raise ValueError(f"slot must be in [0, {buffer.num_slots})")


def store_transmission_batch(
    buffers: Sequence[TransmissionSoftBuffer],
    slot: int,
    llrs: np.ndarray,
    redundancy_version: int,
) -> None:
    """Store one round's transmissions: row ``i`` of *llrs* into ``buffers[i]``'s *slot*.

    The ``(len(buffers), words_per_transmission)`` LLR matrix is quantized
    (and ECC-encoded) in one pass.  Equivalent to calling
    :meth:`TransmissionSoftBuffer.store_transmission` on each buffer in turn.
    """
    for buffer in buffers:
        _check_slot(buffer, slot)
    _write_rows(buffers, slot, llrs)
    version = int(redundancy_version)
    for buffer in buffers:
        buffer._slot_redundancy_versions[slot] = version
        buffer._occupied[slot] = True


def load_transmission_batch(
    buffers: Sequence[TransmissionSoftBuffer], slot: int
) -> tuple[np.ndarray, List[int]]:
    """Read *slot* of every buffer back through its faults.

    Returns the ``(len(buffers), words_per_transmission)`` LLR matrix and
    each row's redundancy version.  Each buffer draws its transient upsets
    for this read from its own stream, in row order — the draws of
    :meth:`TransmissionSoftBuffer.load_transmission` called on each buffer
    in turn.
    """
    for buffer in buffers:
        if not buffer.slot_occupied(slot):
            raise ValueError(f"slot {slot} is empty")
    upsets = [buffer._draw_upsets() for buffer in buffers]
    versions = [buffer._slot_redundancy_versions[slot] for buffer in buffers]
    return _read_rows(buffers, slot, upsets), versions


def combine_and_store_batch(
    buffers: Sequence[LlrSoftBuffer], new_llrs: np.ndarray
) -> np.ndarray:
    """:meth:`LlrSoftBuffer.combine_and_store` for a round, row ``i`` into ``buffers[i]``.

    Reads the stored soft values (zeros for empty buffers), adds *new_llrs*,
    stores the sums and returns them as read back through the faulty
    memory.  The transient upsets are drawn before any read, buffer by
    buffer (the read before the write, then the one after it), which is the
    order per-buffer calls draw them in even when buffers share a stream.
    """
    new = _check_rows(buffers, new_llrs)
    upsets_before = []
    upsets_after = []
    for buffer in buffers:
        upsets_before.append(buffer._draw_upsets() if buffer._occupied else None)
        upsets_after.append(buffer._draw_upsets())
    previous = np.zeros(new.shape, dtype=np.float64)
    occupied = [index for index, buffer in enumerate(buffers) if buffer._occupied]
    if occupied:
        previous[occupied] = _read_rows(
            [buffers[index] for index in occupied],
            0,
            [upsets_before[index] for index in occupied],
        )
    _write_rows(buffers, 0, previous + new)
    for buffer in buffers:
        buffer._occupied = True
    return _read_rows(buffers, 0, upsets_after)
