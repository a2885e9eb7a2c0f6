"""Fixed-point quantization of log-likelihood ratios (LLRs).

The HARQ soft buffer stores *quantized* LLRs.  The paper uses a 10-bit
quantization ("to avoid any throughput-loss due to quantization noise") and
Section 6.4 studies 10/11/12-bit widths jointly with hardware defects.  The
fault-injection point of the whole study is the bit pattern produced by this
quantizer, so its word format is the contract between the PHY and the
unreliable-memory model.

Two word formats are provided:

* ``sign-magnitude`` (default) — bit 0 (the MSB of the stored word) is the
  sign, the remaining bits the magnitude.  This is the natural format for the
  paper's discussion ("the sign information is of higher importance than the
  rest bits").
* ``twos-complement`` — standard two's complement integer representation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_choice, ensure_positive_int

_FORMATS = ("sign-magnitude", "twos-complement")


@dataclass(frozen=True)
class LlrQuantizer:
    """Uniform saturating quantizer mapping real LLRs to fixed-point words.

    Parameters
    ----------
    num_bits:
        Total word width (sign included).  The paper's default is 10.
    max_abs:
        Saturation level: LLRs are clipped to ``[-max_abs, +max_abs]`` before
        quantization.  Chosen large enough that clipping is rare for the
        operating SNRs (default 32.0, i.e. very confident bits saturate).
    word_format:
        ``"sign-magnitude"`` or ``"twos-complement"``.
    """

    num_bits: int = 10
    max_abs: float = 32.0
    word_format: str = "sign-magnitude"

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_bits, "num_bits")
        if self.num_bits < 2:
            raise ValueError("num_bits must be at least 2 (sign + magnitude)")
        if self.max_abs <= 0:
            raise ValueError(f"max_abs must be positive, got {self.max_abs}")
        ensure_choice(self.word_format, "word_format", _FORMATS)

    # ------------------------------------------------------------------ #
    # scalar properties
    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        """Number of distinct magnitude levels on each side of zero."""
        return (1 << (self.num_bits - 1)) - 1

    @property
    def step(self) -> float:
        """Quantization step size."""
        return self.max_abs / self.num_levels

    # ------------------------------------------------------------------ #
    # float <-> integer code
    # ------------------------------------------------------------------ #
    def quantize_to_index(self, llrs: np.ndarray) -> np.ndarray:
        """Quantize real LLRs to signed integer codes in [-num_levels, +num_levels]."""
        llrs = np.asarray(llrs, dtype=np.float64)
        clipped = np.clip(llrs, -self.max_abs, self.max_abs)
        return np.rint(clipped / self.step).astype(np.int32)

    def index_to_value(self, indices: np.ndarray) -> np.ndarray:
        """Map signed integer codes back to real LLR values."""
        return np.asarray(indices, dtype=np.float64) * self.step

    def quantize(self, llrs: np.ndarray) -> np.ndarray:
        """Round-trip a real LLR array through the quantizer (float output)."""
        return self.index_to_value(self.quantize_to_index(llrs))

    # ------------------------------------------------------------------ #
    # integer code <-> stored word bits
    # ------------------------------------------------------------------ #
    def index_to_words(self, indices: np.ndarray) -> np.ndarray:
        """Encode signed integer codes as unsigned memory words.

        Returns an ``int32`` array of non-negative word values, each fitting
        in :attr:`num_bits` bits, in the configured :attr:`word_format`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        levels = self.num_levels
        idx = np.clip(idx, -levels, levels)
        if self.word_format == "sign-magnitude":
            sign = (idx < 0).astype(np.int64)
            magnitude = np.abs(idx)
            words = (sign << (self.num_bits - 1)) | magnitude
        else:  # twos-complement
            words = np.where(idx < 0, idx + (1 << self.num_bits), idx)
        return words.astype(np.int64)

    def words_to_index(self, words: np.ndarray) -> np.ndarray:
        """Decode unsigned memory words back to signed integer codes."""
        w = np.asarray(words, dtype=np.int64)
        if w.size and (w.min() < 0 or w.max() >= (1 << self.num_bits)):
            raise ValueError(f"words must fit in {self.num_bits} bits")
        if self.word_format == "sign-magnitude":
            sign_mask = 1 << (self.num_bits - 1)
            magnitude = w & (sign_mask - 1)
            sign = (w & sign_mask) != 0
            idx = np.where(sign, -magnitude, magnitude)
        else:  # twos-complement
            half = 1 << (self.num_bits - 1)
            idx = np.where(w >= half, w - (1 << self.num_bits), w)
        return idx.astype(np.int32)

    # ------------------------------------------------------------------ #
    # end-to-end helpers used by the HARQ buffer
    # ------------------------------------------------------------------ #
    def llrs_to_words(self, llrs: np.ndarray) -> np.ndarray:
        """Quantize real LLRs directly into unsigned memory words."""
        return self.index_to_words(self.quantize_to_index(llrs))

    def words_to_llrs(self, words: np.ndarray) -> np.ndarray:
        """Decode unsigned memory words directly into real LLR values.

        One gather from a ``2**num_bits`` table holding
        ``index_to_value(words_to_index(w))`` for every word ``w``.
        """
        w = np.asarray(words, dtype=np.int64)
        if w.size and (w.min() < 0 or w.max() >> self.num_bits):
            raise ValueError(f"words must fit in {self.num_bits} bits")
        return _llr_table(self)[w]

    def words_to_bits(self, words: np.ndarray) -> np.ndarray:
        """Expand memory words into a (num_words, num_bits) bit matrix, MSB first.

        Bit column 0 is the most significant stored bit — the sign bit for the
        sign-magnitude format.  This is the layout the fault-injection and
        preferential-protection machinery operates on.
        """
        w = np.asarray(words, dtype=np.int64)
        shifts = np.arange(self.num_bits - 1, -1, -1, dtype=np.int64)
        return ((w[:, None] >> shifts[None, :]) & 1).astype(np.int8)

    def bits_to_words(self, bits: np.ndarray) -> np.ndarray:
        """Pack a (num_words, num_bits) bit matrix (MSB first) into words."""
        mat = np.asarray(bits, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[1] != self.num_bits:
            raise ValueError(
                f"expected shape (n, {self.num_bits}), got {mat.shape}"
            )
        weights = 1 << np.arange(self.num_bits - 1, -1, -1, dtype=np.int64)
        return mat @ weights

    def quantization_noise_power(self) -> float:
        """Variance of the quantization error for uniformly distributed inputs."""
        return self.step**2 / 12.0


#: Widest word :meth:`LlrQuantizer.words_to_llrs` builds a lookup table for.
MAX_TABLE_BITS = 16


@functools.lru_cache(maxsize=64)
def _llr_table(quantizer: LlrQuantizer) -> np.ndarray:
    """LLR value of every ``num_bits``-bit word of *quantizer* (read-only)."""
    if quantizer.num_bits > MAX_TABLE_BITS:
        raise ValueError(
            f"words_to_llrs covers at most {MAX_TABLE_BITS}-bit words, "
            f"got {quantizer.num_bits}"
        )
    table = quantizer.index_to_value(
        quantizer.words_to_index(np.arange(1 << quantizer.num_bits))
    )
    table.flags.writeable = False
    return table
