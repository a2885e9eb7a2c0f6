"""Fault-location maps and fault models for memory arrays.

The system-level fault simulator (paper Section 4) creates, "for various
number of defects Nf, an array instance with random fault locations"; when a
stored bit maps to a faulty cell "the bit is inverted to indicate a
bit-error".  This module generates those fault maps (exactly-Nf, Bernoulli
per-cell, or clustered) and applies the chosen fault semantics (bit-flip,
stuck-at-0/1) to stored data.

Stored data is word-level: each word is one integer whose bits are the
word's cells, column 0 the most significant (:func:`pack_bits` /
:func:`unpack_words`).  A map therefore compiles, once, into two packed
per-word masks ``(keep, flip)`` (:meth:`FaultMap.word_masks`), and reading a
stored word through the faulty cells is ``(stored & keep) ^ flip``: bit-flip
faults keep every bit and flip the faulty ones, stuck-at faults clear the
faulty bits and set those stuck at 1.  :meth:`FaultMap.apply_to_bits` keeps
the bit-matrix form of the same semantics as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import ensure_non_negative_int, ensure_positive_int, ensure_probability


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., width)`` bit matrix (column 0 the MSB) into int64 words."""
    mat = np.asarray(bits, dtype=np.int64)
    weights = 1 << np.arange(mat.shape[-1] - 1, -1, -1, dtype=np.int64)
    return mat @ weights


def unpack_words(words: np.ndarray, width: int) -> np.ndarray:
    """Expand integer words into a ``(..., width)`` int8 bit matrix, MSB first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(words, dtype=np.int64)[..., None] >> shifts) & 1).astype(np.int8)


class FaultModel(str, Enum):
    """Semantics of a faulty cell on read-out."""

    #: The stored bit is inverted (the paper's model).
    BIT_FLIP = "bit-flip"
    #: The cell always reads 0 regardless of what was written.
    STUCK_AT_0 = "stuck-at-0"
    #: The cell always reads 1 regardless of what was written.
    STUCK_AT_1 = "stuck-at-1"
    #: Each faulty cell is independently assigned stuck-at-0 or stuck-at-1.
    STUCK_AT_RANDOM = "stuck-at-random"


@dataclass(frozen=True)
class FaultModelSpec:
    """A fault model plus the spatial placement of the faulty cells.

    The historical tokens (``"bit-flip"``, ``"stuck-at-0"``, ...) keep their
    uniform placement; ``"clustered:<r>"`` places the same exact fault count
    in spatially-correlated clusters of Chebyshev radius ``r`` on the
    ``(word, bit)`` grid (shared-well / multi-cell defects), with the
    paper's bit-flip read-out semantics.

    Attributes
    ----------
    model:
        Read-out semantics of faulty cells.
    placement:
        ``"uniform"`` (independent random locations) or ``"clustered"``.
    cluster_radius:
        Chebyshev radius of one cluster (``0`` for uniform placement).
    """

    model: FaultModel = FaultModel.BIT_FLIP
    placement: str = "uniform"
    cluster_radius: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", FaultModel(self.model))
        if self.placement not in ("uniform", "clustered"):
            raise ValueError(
                f"placement must be 'uniform' or 'clustered', got {self.placement!r}"
            )
        if self.placement == "clustered":
            ensure_positive_int(self.cluster_radius, "cluster_radius")
        elif self.cluster_radius != 0:
            raise ValueError("cluster_radius applies to clustered placement only")

    @property
    def token(self) -> str:
        """The canonical string token naming this spec."""
        if self.placement == "clustered":
            return f"clustered:{self.cluster_radius}"
        return self.model.value

    @classmethod
    def parse(cls, value: "FaultModelSpec | FaultModel | str") -> "FaultModelSpec":
        """Resolve a fault-model token (or instance) to a spec.

        Accepts an existing spec (returned unchanged), a :class:`FaultModel`
        and the string tokens ``"bit-flip"`` / ``"stuck-at-*"`` (uniform
        placement) or ``"clustered:<r>"`` (clustered bit-flips of radius
        *r*).
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, FaultModel):
            return cls(model=value)
        token = str(value).strip().lower()
        if token.startswith("clustered:"):
            try:
                radius = int(token[10:])
            except ValueError:
                raise ValueError(
                    f"bad fault-model token {value!r}: clustered:<r> needs an integer"
                ) from None
            return cls(placement="clustered", cluster_radius=radius)
        try:
            return cls(model=FaultModel(token))
        except ValueError:
            raise ValueError(
                f"unknown fault-model token {value!r}; use one of "
                f"{[m.value for m in FaultModel]} or 'clustered:<r>'"
            ) from None


def coerce_fault_model(
    value: "FaultModelSpec | FaultModel | str",
) -> "FaultModel | FaultModelSpec":
    """Normalise a fault-model token for storage on a work item.

    Uniform placements reduce to the plain :class:`FaultModel` (keeping the
    historical task contents byte-for-byte); clustered placements keep the
    full :class:`FaultModelSpec`.
    """
    spec = FaultModelSpec.parse(value)
    return spec.model if spec.placement == "uniform" else spec


@dataclass
class FaultMap:
    """Fault locations of one memory-array instance (one manufactured die).

    Attributes
    ----------
    num_words, bits_per_word:
        Array organisation: one stored word per LLR, one column per LLR bit.
    fault_mask:
        Boolean array of shape ``(num_words, bits_per_word)``; ``True`` marks
        a faulty cell.
    fault_model:
        Read-out semantics of faulty cells.
    stuck_values:
        For stuck-at models, the value (0 or 1) each faulty cell is stuck at
        (same shape as :attr:`fault_mask`; ignored for bit-flip faults).

    The masks and stuck values must not be mutated after construction: the
    packed read masks of :meth:`word_masks` are built from them once.
    """

    num_words: int
    bits_per_word: int
    fault_mask: np.ndarray
    fault_model: FaultModel = FaultModel.BIT_FLIP
    stuck_values: Optional[np.ndarray] = None
    _word_masks: Optional[tuple] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        ensure_positive_int(self.num_words, "num_words")
        ensure_positive_int(self.bits_per_word, "bits_per_word")
        mask = np.asarray(self.fault_mask, dtype=bool)
        if mask.shape != (self.num_words, self.bits_per_word):
            raise ValueError(
                f"fault_mask shape {mask.shape} does not match "
                f"({self.num_words}, {self.bits_per_word})"
            )
        self.fault_mask = mask
        self.fault_model = FaultModel(self.fault_model)
        if self.fault_model in (FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1):
            value = 0 if self.fault_model is FaultModel.STUCK_AT_0 else 1
            self.stuck_values = np.full(mask.shape, value, dtype=np.int8)
        elif self.stuck_values is not None:
            stuck = np.asarray(self.stuck_values)
            if stuck.shape != mask.shape:
                raise ValueError(
                    f"stuck_values shape {stuck.shape} does not match fault_mask {mask.shape}"
                )
            if not ((stuck == 0) | (stuck == 1)).all():
                raise ValueError("stuck_values must all be 0 or 1")
            self.stuck_values = stuck.astype(np.int8, copy=False)
        elif self.fault_model is FaultModel.STUCK_AT_RANDOM:
            raise ValueError("stuck_values required for the stuck-at-random fault model")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, num_words: int, bits_per_word: int) -> "FaultMap":
        """A defect-free array instance."""
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        return cls(num_words, bits_per_word, mask)

    @classmethod
    def with_exact_fault_count(
        cls,
        num_words: int,
        bits_per_word: int,
        num_faults: int,
        rng: RngLike = None,
        fault_model: FaultModel = FaultModel.BIT_FLIP,
        protected_columns: Optional[np.ndarray] = None,
    ) -> "FaultMap":
        """Place exactly *num_faults* faults uniformly at random.

        This is the paper's selection-criterion model: the worst-case die that
        passes inspection has exactly ``Nf`` faulty cells at unknown random
        locations.

        Parameters
        ----------
        protected_columns:
            Optional boolean array of length *bits_per_word*; ``True`` marks
            bit positions implemented in robust cells that cannot fail.  The
            ``num_faults`` faults are then distributed over the unprotected
            columns only (the hybrid-array acceptance criterion of Section 6).
        """
        ensure_positive_int(num_words, "num_words")
        ensure_positive_int(bits_per_word, "bits_per_word")
        num_faults = ensure_non_negative_int(num_faults, "num_faults")
        generator = as_rng(rng)

        if protected_columns is None:
            eligible_columns = np.arange(bits_per_word)
        else:
            protected = np.asarray(protected_columns, dtype=bool)
            if protected.shape != (bits_per_word,):
                raise ValueError("protected_columns must have length bits_per_word")
            eligible_columns = np.nonzero(~protected)[0]

        num_eligible = num_words * eligible_columns.size
        if num_faults > num_eligible:
            raise ValueError(
                f"cannot place {num_faults} faults in {num_eligible} eligible cells"
            )
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        if num_faults and eligible_columns.size:
            flat_choice = generator.choice(num_eligible, size=num_faults, replace=False)
            rows = flat_choice // eligible_columns.size
            cols = eligible_columns[flat_choice % eligible_columns.size]
            mask[rows, cols] = True

        stuck = None
        if fault_model is FaultModel.STUCK_AT_RANDOM:
            stuck = generator.integers(0, 2, size=mask.shape, dtype=np.int8)
        return cls(num_words, bits_per_word, mask, fault_model, stuck)

    @classmethod
    def from_cell_failure_probability(
        cls,
        num_words: int,
        bits_per_word: int,
        cell_failure_probability: float,
        rng: RngLike = None,
        fault_model: FaultModel = FaultModel.BIT_FLIP,
        column_failure_probabilities: Optional[np.ndarray] = None,
    ) -> "FaultMap":
        """Draw each cell independently faulty with probability ``Pcell``.

        Models the population of manufactured dies at a given operating point
        (rather than the worst accepted die).

        Parameters
        ----------
        column_failure_probabilities:
            Optional per-bit-position probabilities overriding the scalar
            (used for hybrid 6T/8T arrays where columns differ).
        """
        ensure_positive_int(num_words, "num_words")
        ensure_positive_int(bits_per_word, "bits_per_word")
        generator = as_rng(rng)
        if column_failure_probabilities is None:
            p = ensure_probability(cell_failure_probability, "cell_failure_probability")
            probabilities = np.full(bits_per_word, p)
        else:
            probabilities = np.asarray(column_failure_probabilities, dtype=np.float64)
            if probabilities.shape != (bits_per_word,):
                raise ValueError(
                    "column_failure_probabilities must have length bits_per_word"
                )
        mask = generator.random((num_words, bits_per_word)) < probabilities[None, :]
        stuck = None
        if fault_model is FaultModel.STUCK_AT_RANDOM:
            stuck = generator.integers(0, 2, size=mask.shape, dtype=np.int8)
        return cls(num_words, bits_per_word, mask, fault_model, stuck)

    @classmethod
    def with_clustered_fault_count(
        cls,
        num_words: int,
        bits_per_word: int,
        num_faults: int,
        cluster_radius: int,
        rng: RngLike = None,
        fault_model: FaultModel = FaultModel.BIT_FLIP,
        protected_columns: Optional[np.ndarray] = None,
    ) -> "FaultMap":
        """Place exactly *num_faults* faults in spatially-correlated clusters.

        The clustered counterpart of :meth:`with_exact_fault_count` (same
        marginal defect rate by construction, same acceptance-criterion
        semantics): cluster centres are drawn uniformly over the eligible
        cells, and each cluster marks the eligible cells within Chebyshev
        radius *cluster_radius* of its centre on the ``(word, bit)`` grid —
        nearest first — until the fault budget is spent.  Models multi-cell
        defects (shared wells, supply droop) whose burst errors the channel
        interleaver is supposed to break up.

        Parameters
        ----------
        cluster_radius:
            Chebyshev radius of one cluster; radius ``r`` covers up to
            ``(2r + 1)^2`` cells.
        protected_columns:
            Optional boolean array of length *bits_per_word*; ``True`` marks
            robust bit positions that cannot fail (clusters flow around
            them).
        """
        ensure_positive_int(num_words, "num_words")
        ensure_positive_int(bits_per_word, "bits_per_word")
        num_faults = ensure_non_negative_int(num_faults, "num_faults")
        cluster_radius = ensure_positive_int(cluster_radius, "cluster_radius")
        generator = as_rng(rng)

        if protected_columns is None:
            eligible_columns = np.arange(bits_per_word)
        else:
            protected = np.asarray(protected_columns, dtype=bool)
            if protected.shape != (bits_per_word,):
                raise ValueError("protected_columns must have length bits_per_word")
            eligible_columns = np.nonzero(~protected)[0]

        num_eligible = num_words * eligible_columns.size
        if num_faults > num_eligible:
            raise ValueError(
                f"cannot place {num_faults} faults in {num_eligible} eligible cells"
            )
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        placed = 0
        while placed < num_faults:
            flat = int(generator.integers(0, num_eligible))
            centre_row = flat // eligible_columns.size
            centre_col = int(eligible_columns[flat % eligible_columns.size])
            rows = np.arange(
                max(0, centre_row - cluster_radius),
                min(num_words, centre_row + cluster_radius + 1),
            )
            cols = eligible_columns[
                np.abs(eligible_columns - centre_col) <= cluster_radius
            ]
            grid_rows, grid_cols = np.meshgrid(rows, cols, indexing="ij")
            grid_rows, grid_cols = grid_rows.ravel(), grid_cols.ravel()
            fresh = ~mask[grid_rows, grid_cols]
            grid_rows, grid_cols = grid_rows[fresh], grid_cols[fresh]
            if not grid_rows.size:
                continue  # the whole neighbourhood is already faulty
            distance = np.maximum(
                np.abs(grid_rows - centre_row), np.abs(grid_cols - centre_col)
            )
            order = np.lexsort((grid_cols, grid_rows, distance))
            take = order[: num_faults - placed]
            mask[grid_rows[take], grid_cols[take]] = True
            placed += take.size

        stuck = None
        if fault_model is FaultModel.STUCK_AT_RANDOM:
            stuck = generator.integers(0, 2, size=mask.shape, dtype=np.int8)
        return cls(num_words, bits_per_word, mask, fault_model, stuck)

    @classmethod
    def clustered(
        cls,
        num_words: int,
        bits_per_word: int,
        num_clusters: int,
        cluster_size: int,
        rng: RngLike = None,
        fault_model: FaultModel = FaultModel.BIT_FLIP,
    ) -> "FaultMap":
        """Faults grouped in word-adjacent clusters (e.g. shared-well defects).

        Each cluster corrupts ``cluster_size`` consecutive words in one random
        bit column.  Used to study whether spatial correlation of defects
        changes the resilience conclusions (it should not, thanks to the
        channel interleaver).
        """
        ensure_positive_int(num_words, "num_words")
        ensure_positive_int(bits_per_word, "bits_per_word")
        ensure_non_negative_int(num_clusters, "num_clusters")
        ensure_positive_int(cluster_size, "cluster_size")
        generator = as_rng(rng)
        mask = np.zeros((num_words, bits_per_word), dtype=bool)
        for _ in range(num_clusters):
            col = int(generator.integers(0, bits_per_word))
            start = int(generator.integers(0, max(num_words - cluster_size + 1, 1)))
            mask[start : start + cluster_size, col] = True
        stuck = None
        if fault_model is FaultModel.STUCK_AT_RANDOM:
            stuck = generator.integers(0, 2, size=mask.shape, dtype=np.int8)
        return cls(num_words, bits_per_word, mask, fault_model, stuck)

    # ------------------------------------------------------------------ #
    # properties and application
    # ------------------------------------------------------------------ #
    @property
    def num_cells(self) -> int:
        """Total number of cells in the array."""
        return self.num_words * self.bits_per_word

    @property
    def num_faults(self) -> int:
        """Number of faulty cells."""
        return int(self.fault_mask.sum())

    @property
    def defect_rate(self) -> float:
        """Fraction of faulty cells."""
        return self.num_faults / self.num_cells

    def faults_per_column(self) -> np.ndarray:
        """Number of faulty cells in each bit position (column)."""
        return self.fault_mask.sum(axis=0)

    def apply_to_bits(self, stored_bits: np.ndarray) -> np.ndarray:
        """Return the bits as read out through the faulty cells.

        Parameters
        ----------
        stored_bits:
            Array of shape ``(num_words, bits_per_word)`` of written values.
        """
        bits = np.asarray(stored_bits, dtype=np.int8)
        if bits.shape != self.fault_mask.shape:
            raise ValueError(
                f"stored_bits shape {bits.shape} does not match fault map "
                f"{self.fault_mask.shape}"
            )
        out = bits.copy()
        if self.fault_model is FaultModel.BIT_FLIP:
            out[self.fault_mask] ^= 1
        else:
            out[self.fault_mask] = self.stuck_values[self.fault_mask]
        return out

    def word_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed per-word read masks ``(keep, flip)``, built once per map.

        A stored word ``w`` (column 0 its MSB) reads back as
        ``(w & keep) ^ flip`` — the word-level form of :meth:`apply_to_bits`.
        Bit-flip faults keep every bit and flip the faulty cells; stuck-at
        faults clear the faulty cells and set those stuck at 1.  Both are
        int64 arrays of length :attr:`num_words`; callers must not modify
        them.
        """
        if self._word_masks is None:
            faulty = pack_bits(self.fault_mask)
            if self.fault_model is FaultModel.BIT_FLIP:
                keep = np.full(self.num_words, (1 << self.bits_per_word) - 1, dtype=np.int64)
                flip = faulty
            else:
                keep = ((1 << self.bits_per_word) - 1) & ~faulty
                flip = pack_bits(self.stuck_values & self.fault_mask)
            self._word_masks = (keep, flip)
        return self._word_masks

    def row_slice(self, start: int, stop: int) -> "FaultMap":
        """Return the fault map of a contiguous word range ``[start, stop)``.

        Used to partition one physical array among regions (e.g. one region
        per stored HARQ transmission) while keeping a single die-wide fault
        map.
        """
        if not 0 <= start < stop <= self.num_words:
            raise ValueError(f"invalid row range [{start}, {stop}) for {self.num_words} words")
        mask = self.fault_mask[start:stop].copy()
        stuck = self.stuck_values[start:stop].copy() if self.stuck_values is not None else None
        return FaultMap(stop - start, self.bits_per_word, mask, self.fault_model, stuck)

    def restrict_to_columns(self, columns: np.ndarray) -> "FaultMap":
        """Return a copy with faults only in the selected bit positions."""
        cols = np.asarray(columns, dtype=np.int64)
        mask = np.zeros_like(self.fault_mask)
        mask[:, cols] = self.fault_mask[:, cols]
        return FaultMap(
            self.num_words, self.bits_per_word, mask, self.fault_model, self.stuck_values
        )
