"""Hamming error-correcting codes for memory words.

Section 6.2 of the paper argues that protecting all 10 LLR bits with a
single-error-correcting (SEC) Hamming code costs about 35 % area overhead
(4 redundant bits for 10 data bits) and that higher-order ECC exceeds 50 %.
This module implements SEC and SEC-DED Hamming codes over configurable data
widths so those overheads — and the actual error-correction behaviour — can
be reproduced rather than assumed.

The memory arrays store whole codewords as packed integers, so the code also
works on words: :meth:`HammingCode.encode_words` is a lookup in a
``2**data_bits`` table and :meth:`HammingCode.decode_words` corrects through
a ``2**r`` per-syndrome table, both built from the bit-matrix
:meth:`~HammingCode.encode` / :meth:`~HammingCode.decode` they must agree
with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.memory.faults import pack_bits, unpack_words
from repro.utils.validation import ensure_positive_int

#: Widest data word the lookup tables of the word-level codec cover.
MAX_TABLE_DATA_BITS = 16


def _num_parity_bits(data_bits: int) -> int:
    """Minimum r with 2**r >= data_bits + r + 1 (Hamming bound for SEC)."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


@dataclass(frozen=True)
class HammingCode:
    """Systematic Hamming single-error-correcting code.

    Parameters
    ----------
    data_bits:
        Number of information bits per word (e.g. 10 for a 10-bit LLR).
    extended:
        If ``True``, add an overall parity bit for double-error detection
        (SEC-DED).

    Notes
    -----
    The code is built in systematic form: the generator matrix is
    ``[I | P]`` and codewords are ``[data | parity]``.  Decoding computes the
    syndrome, corrects at most one flipped bit and reports whether a
    correction was applied / an uncorrectable error was detected.
    """

    data_bits: int = 10
    extended: bool = False

    _parity_matrix: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        ensure_positive_int(self.data_bits, "data_bits")
        r = _num_parity_bits(self.data_bits)
        # Columns of the parity-check matrix for data positions: all r-bit
        # patterns with weight >= 2 (so they are distinct from the identity
        # columns used for the parity bits themselves).
        data_columns = []
        for value in range(3, 1 << r):
            if bin(value).count("1") >= 2:
                data_columns.append([(value >> (r - 1 - i)) & 1 for i in range(r)])
            if len(data_columns) == self.data_bits:
                break
        if len(data_columns) < self.data_bits:
            raise ValueError(f"data_bits={self.data_bits} too large for {r} parity bits")
        parity_matrix = np.array(data_columns, dtype=np.int8).T  # (r, data_bits)
        object.__setattr__(self, "_parity_matrix", parity_matrix)

    # ------------------------------------------------------------------ #
    @property
    def num_parity_bits(self) -> int:
        """Number of parity bits (excluding the DED bit)."""
        return int(self._parity_matrix.shape[0])

    @property
    def codeword_bits(self) -> int:
        """Total stored bits per word."""
        return self.data_bits + self.num_parity_bits + (1 if self.extended else 0)

    @property
    def overhead(self) -> float:
        """Storage overhead relative to the unprotected word."""
        return (self.codeword_bits - self.data_bits) / self.data_bits

    # ------------------------------------------------------------------ #
    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode data words.

        Parameters
        ----------
        data:
            Bit array of shape ``(num_words, data_bits)``.

        Returns
        -------
        numpy.ndarray
            Codeword bits of shape ``(num_words, codeword_bits)``.
        """
        bits = np.asarray(data, dtype=np.int8)
        if bits.ndim != 2 or bits.shape[1] != self.data_bits:
            raise ValueError(f"expected shape (n, {self.data_bits}), got {bits.shape}")
        parity = (bits @ self._parity_matrix.T) % 2
        codewords = np.concatenate([bits, parity], axis=1)
        if self.extended:
            overall = codewords.sum(axis=1, keepdims=True) % 2
            codewords = np.concatenate([codewords, overall], axis=1)
        return codewords.astype(np.int8)

    def decode(self, codewords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode (possibly corrupted) codewords.

        Returns
        -------
        tuple
            ``(data, corrected, uncorrectable)`` — decoded data bits, a
            boolean flag per word indicating whether a single-bit correction
            was applied, and a boolean flag per word for detected-but-
            uncorrectable errors (always ``False`` for the plain SEC code,
            which miscorrects double errors instead).
        """
        received = np.asarray(codewords, dtype=np.int8)
        if received.ndim != 2 or received.shape[1] != self.codeword_bits:
            raise ValueError(
                f"expected shape (n, {self.codeword_bits}), got {received.shape}"
            )
        ded_bit = None
        body = received
        if self.extended:
            ded_bit = received[:, -1]
            body = received[:, :-1]

        data_part = body[:, : self.data_bits]
        parity_part = body[:, self.data_bits :]
        syndrome = (data_part @ self._parity_matrix.T + parity_part) % 2  # (n, r)

        corrected_data = data_part.copy()
        corrected = np.zeros(received.shape[0], dtype=bool)
        uncorrectable = np.zeros(received.shape[0], dtype=bool)

        nonzero = syndrome.any(axis=1)
        if nonzero.any():
            # Match each nonzero syndrome against the data columns first,
            # then against the parity identity columns.
            columns = self._parity_matrix.T  # (data_bits, r)
            for idx in np.nonzero(nonzero)[0]:
                s = syndrome[idx]
                matches = np.nonzero((columns == s).all(axis=1))[0]
                if matches.size:
                    corrected_data[idx, matches[0]] ^= 1
                    corrected[idx] = True
                else:
                    weight = int(s.sum())
                    if weight == 1:
                        # Error in a parity bit: data unaffected.
                        corrected[idx] = True
                    else:
                        uncorrectable[idx] = True

        if self.extended and ded_bit is not None:
            overall_parity = (body.sum(axis=1) + ded_bit) % 2
            # Even overall parity with nonzero syndrome indicates a double error.
            double_error = nonzero & (overall_parity == 0)
            uncorrectable |= double_error
            corrected &= ~double_error
        return corrected_data.astype(np.int8), corrected, uncorrectable

    def encode_words(self, data_words: np.ndarray) -> np.ndarray:
        """Encode packed data words into packed codewords (data in the MSBs).

        Word-level :meth:`encode`: bit ``j`` of the codeword layout
        ``[data | parity | (DED)]`` is bit ``codeword_bits - 1 - j`` of the
        returned integer.
        """
        words = np.asarray(data_words, dtype=np.int64)
        if words.size and (words.min() < 0 or words.max() >> self.data_bits):
            raise ValueError(f"data words must fit in {self.data_bits} bits")
        encode_table, _, _ = _word_tables(self.data_bits, self.extended)
        return encode_table[words]

    def decode_words(self, codewords: np.ndarray) -> np.ndarray:
        """Decode packed (possibly corrupted) codewords into data words.

        Word-level :meth:`decode` (data only): the syndrome is the stored
        parity XOR the parity of the stored data, and the per-syndrome table
        flips the data bit :meth:`decode` would correct.
        """
        _, parity_table, correction_table = _word_tables(self.data_bits, self.extended)
        words = np.asarray(codewords, dtype=np.int64)
        check_bits = self.codeword_bits - self.data_bits
        data = words >> check_bits
        syndrome = (words >> int(self.extended)) & ((1 << self.num_parity_bits) - 1)
        syndrome ^= parity_table[data]
        data ^= correction_table[syndrome]
        return data

    # ------------------------------------------------------------------ #
    def word_failure_probability(self, cell_failure_probability: float) -> float:
        """Probability that a word is *not* fully corrected.

        With SEC protection a stored word fails only when two or more of its
        cells are faulty — the standard reliability-improvement computation
        the paper cites for ECC-protected arrays.
        """
        from scipy.stats import binom

        n = self.codeword_bits
        p = float(cell_failure_probability)
        return float(1.0 - binom.cdf(1, n, p))


@functools.lru_cache(maxsize=None)
def _word_tables(data_bits: int, extended: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(codeword, parity, correction)`` lookup tables of one code.

    ``codeword[d]`` is the packed codeword of data word ``d`` and
    ``parity[d]`` its parity field; ``correction[s]`` is the data-bit flip
    :meth:`HammingCode.decode` applies for syndrome ``s`` (read off by
    decoding an all-zero data word whose parity field is ``s``).
    """
    if data_bits > MAX_TABLE_DATA_BITS:
        raise ValueError(
            f"word-level ECC covers at most {MAX_TABLE_DATA_BITS} data bits, got {data_bits}"
        )
    code = HammingCode(data_bits, extended)
    r = code.num_parity_bits
    codewords = pack_bits(code.encode(unpack_words(np.arange(1 << data_bits), data_bits)))
    parity = (codewords >> int(extended)) & ((1 << r) - 1)
    received = np.zeros((1 << r, code.codeword_bits), dtype=np.int8)
    received[:, data_bits : data_bits + r] = unpack_words(np.arange(1 << r), r)
    corrected, _, _ = code.decode(received)
    correction = pack_bits(corrected)
    for table in (codewords, parity, correction):
        table.flags.writeable = False
    return codewords, parity, correction
