"""Behavioural model of an SRAM array with an explicit fault map.

The :class:`MemoryArray` is the word-organised memory the HARQ soft buffer
models: it stores fixed-width words (one per LLR), and reads them back
through the array's fault map, flipping (or forcing) the bits that land on
faulty cells — exactly the injection mechanism of the paper's system-level
fault simulator.

Optionally the array can protect its words with a Hamming code
(:class:`~repro.memory.ecc.HammingCode`), modelling the conventional
full-ECC alternative of Section 6.2: the parity bits are stored in (and read
back through) additional columns of the same unreliable fabric.

Storage is one integer per word — the codeword when ECC is on — with the
cells of a word as its bits (column 0 the MSB).  A read is
:func:`read_stored_words`: the persistent faults through the fault map's
packed ``(keep, flip)`` masks, then the transient upsets of that read
(:func:`draw_upsets`) XORed in, then the ECC decode.  The soft buffers of
:mod:`repro.harq.buffer` read whole rounds of packets through the same
functions; the bit-matrix methods (:meth:`MemoryArray.read_bits`,
:meth:`MemoryArray.read_word_bits`) unpack the words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, pack_bits, unpack_words
from repro.utils.rng import as_rng
from repro.utils.validation import ensure_positive_int, ensure_probability


def read_stored_words(
    stored: np.ndarray,
    keep: np.ndarray,
    flip: np.ndarray,
    upsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stored words as read back through faulty cells (no ECC decode).

    ``(stored & keep) ^ flip`` applies the persistent faults (see
    :meth:`~repro.memory.faults.FaultMap.word_masks`); the packed transient
    *upsets* of this read, if any, are XORed in afterwards.  All arrays
    broadcast elementwise, so one call reads any number of words or rows.
    """
    read = stored & keep
    read ^= flip
    if upsets is not None:
        read ^= upsets
    return read


def draw_upsets(
    rng: np.random.Generator, rate: float, num_words: int, width: int
) -> np.ndarray:
    """Packed transient upsets of one read of *num_words* words.

    Draws ``rng.random((num_words, width)) < rate`` — one uniform per cell,
    in cell order — and packs each word's flips into one integer.
    """
    return pack_bits(rng.random((num_words, width)) < rate)


@dataclass
class MemoryArray:
    """A word-organised SRAM array with fault injection on read.

    Parameters
    ----------
    num_words:
        Number of storage words (one per quantized LLR in the HARQ buffer).
    bits_per_word:
        Data bits per word (the LLR quantizer width).
    fault_map:
        Fault locations and semantics; defaults to a defect-free array.  The
        fault map must cover the *stored* word width, i.e.
        ``bits_per_word`` columns without ECC or ``ecc.codeword_bits``
        columns with ECC.
    ecc:
        Optional Hamming code protecting every word.
    soft_error_rate:
        Probability that any cell suffers a *transient* (non-persistent)
        upset per read — the paper's soft-error mechanism.  Unlike the
        persistent fault map, these flips are redrawn on every read and
        compose with the persistent faults (a flipped faulty cell flips the
        already-corrupted value).  The default 0.0 disables the mechanism
        and consumes no randomness.
    soft_error_rng:
        Seed or generator driving the per-read upsets (required for
        reproducible soft-error runs; fresh OS entropy when omitted).
    """

    num_words: int
    bits_per_word: int
    fault_map: Optional[FaultMap] = None
    ecc: Optional[HammingCode] = None
    soft_error_rate: float = 0.0
    soft_error_rng: object = None

    _words: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_words, "num_words")
        ensure_positive_int(self.bits_per_word, "bits_per_word")
        ensure_probability(self.soft_error_rate, "soft_error_rate")
        if self.soft_error_rate > 0.0:
            self.soft_error_rng = as_rng(self.soft_error_rng)
        if self.ecc is not None and self.ecc.data_bits != self.bits_per_word:
            raise ValueError(
                f"ECC data width {self.ecc.data_bits} does not match "
                f"bits_per_word {self.bits_per_word}"
            )
        if self.fault_map is None:
            self.fault_map = FaultMap.empty(self.num_words, self.stored_bits_per_word)
        if self.fault_map.num_words != self.num_words:
            raise ValueError(
                f"fault map covers {self.fault_map.num_words} words, array has {self.num_words}"
            )
        if self.fault_map.bits_per_word != self.stored_bits_per_word:
            raise ValueError(
                f"fault map covers {self.fault_map.bits_per_word} bit columns, "
                f"array stores {self.stored_bits_per_word}"
            )
        self._words = np.zeros(self.num_words, dtype=np.int64)

    # ------------------------------------------------------------------ #
    @property
    def stored_bits_per_word(self) -> int:
        """Physical columns per word (data bits, plus parity bits with ECC)."""
        return self.ecc.codeword_bits if self.ecc is not None else self.bits_per_word

    @property
    def num_cells(self) -> int:
        """Total number of bit cells in the array."""
        return self.num_words * self.stored_bits_per_word

    @property
    def defect_rate(self) -> float:
        """Fraction of faulty cells in the array."""
        return self.fault_map.defect_rate

    # ------------------------------------------------------------------ #
    def write_words(self, words: np.ndarray, word_bits: np.ndarray | None = None) -> None:
        """Write unsigned word values into the array.

        Parameters
        ----------
        words:
            Integer array of length :attr:`num_words` (each fitting in
            ``bits_per_word`` bits).  Ignored when *word_bits* is given.
        word_bits:
            Alternative interface: a ``(num_words, bits_per_word)`` bit
            matrix (MSB first).
        """
        if word_bits is not None:
            bits = np.asarray(word_bits, dtype=np.int8)
            if bits.shape != (self.num_words, self.bits_per_word):
                raise ValueError(
                    f"expected shape ({self.num_words}, {self.bits_per_word}), got {bits.shape}"
                )
            values = pack_bits(bits)
        else:
            values = np.array(words, dtype=np.int64)
            if values.shape != (self.num_words,):
                raise ValueError(f"expected {self.num_words} words, got {values.shape}")
            if values.size and (values.min() < 0 or values.max() >= (1 << self.bits_per_word)):
                raise ValueError(f"word values must fit in {self.bits_per_word} bits")
        self._words = self.ecc.encode_words(values) if self.ecc is not None else values

    def _read_stored(self) -> np.ndarray:
        """One read of the stored words (persistent faults, then this read's upsets)."""
        keep, flip = self.fault_map.word_masks()
        upsets = None
        if self.soft_error_rate > 0.0:
            upsets = draw_upsets(
                self.soft_error_rng,
                self.soft_error_rate,
                self.num_words,
                self.stored_bits_per_word,
            )
        return read_stored_words(self._words, keep, flip, upsets)

    def read_bits(self) -> np.ndarray:
        """Read the raw stored bits back through the fault map (no ECC decode).

        Transient soft errors (if enabled) are drawn independently on every
        read, *after* the persistent fault map is applied.
        """
        return unpack_words(self._read_stored(), self.stored_bits_per_word)

    def read_words(self) -> np.ndarray:
        """Read back word values, applying fault injection and ECC correction."""
        read = self._read_stored()
        return self.ecc.decode_words(read) if self.ecc is not None else read

    def read_word_bits(self) -> np.ndarray:
        """Read back the data-bit matrix (fault injection + ECC correction applied)."""
        return unpack_words(self.read_words(), self.bits_per_word)

    # ------------------------------------------------------------------ #
    def corrupted_word_count(self) -> int:
        """Number of words whose read-back data differs from what was written."""
        written = self._words >> (self.stored_bits_per_word - self.bits_per_word)
        return int(np.count_nonzero(self.read_words() != written))

    def clear(self) -> None:
        """Reset the stored contents to all zeros (fault map unchanged)."""
        self._words = np.zeros_like(self._words)
