"""Byte-identity properties of the word-level, round-batched HARQ soft buffer.

The soft buffer stores one packed integer per LLR word (the codeword under
ECC) and reads it through the fault map's packed ``(keep, flip)`` masks, a
whole round of packets per numpy call.  These tests pin that design against
the bit-matrix semantics it replaces — ``FaultMap.apply_to_bits``, the
per-read transient-upset XOR, ``HammingCode.decode`` and the arithmetic
``LlrQuantizer`` word decoding — and pin the round-level calls against
looping the per-buffer methods: same bytes out, same random-stream state
afterwards, for every fault model and placement, ECC off / SEC / SEC-DED,
with and without soft errors, and on batches mixing all of them.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harq.buffer import (
    LlrSoftBuffer,
    TransmissionSoftBuffer,
    combine_and_store_batch,
    load_transmission_batch,
    store_transmission_batch,
)
from repro.memory.array import MemoryArray
from repro.memory.ecc import HammingCode
from repro.memory.faults import FaultMap, FaultModel
from repro.phy.quantization import LlrQuantizer

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
MODELS = st.sampled_from(list(FaultModel))
PLACEMENTS = st.sampled_from(["uniform", "clustered"])
PROTECTIONS = st.sampled_from([None, "sec", "sec-ded"])
WIDTHS = st.integers(min_value=10, max_value=12)
RATES = st.sampled_from([0.0, 0.05])


def _ecc(protection, width):
    if protection is None:
        return None
    return HammingCode(width, extended=protection == "sec-ded")


def _fault_map(num_words, width, model, placement, fill, rng):
    num_faults = int(fill * num_words * width)
    if placement == "clustered":
        return FaultMap.with_clustered_fault_count(
            num_words, width, num_faults, 1, rng=rng, fault_model=model
        )
    return FaultMap.with_exact_fault_count(
        num_words, width, num_faults, rng=rng, fault_model=model
    )


def _reference_read(fault_map, stored_bits, ecc, rate, rng):
    """One bit-level read: persistent faults, this read's upsets, ECC decode."""
    read = fault_map.apply_to_bits(stored_bits)
    if rate > 0.0:
        read ^= (rng.random(read.shape) < rate).astype(np.int8)
    data = ecc.decode(read)[0] if ecc is not None else read
    return read, data


def _reference_llrs(quantizer, data_bits):
    """Data bits -> LLRs through the arithmetic word decoding."""
    return quantizer.index_to_value(
        quantizer.words_to_index(quantizer.bits_to_words(data_bits))
    )


class _BitMatrixSlots:
    """The bit-matrix soft buffer the word format replaces.

    One ``(words, stored_bits)`` int8 matrix per slot, each read through the
    slot's ``row_slice`` of the die map with ``apply_to_bits``.
    """

    def __init__(self, fault_map, num_slots, words, quantizer, ecc, rate, rng):
        self.maps = [fault_map.row_slice(s * words, (s + 1) * words) for s in range(num_slots)]
        self.bits = [None] * num_slots
        self.quantizer, self.ecc, self.rate, self.rng = quantizer, ecc, rate, rng

    def store(self, slot, llrs):
        bits = self.quantizer.words_to_bits(self.quantizer.llrs_to_words(llrs))
        self.bits[slot] = self.ecc.encode(bits) if self.ecc is not None else bits

    def load(self, slot):
        _, data = _reference_read(self.maps[slot], self.bits[slot], self.ecc, self.rate, self.rng)
        return _reference_llrs(self.quantizer, data)


# --------------------------------------------------------------------------- #
# word-level reads == bit-level reference
# --------------------------------------------------------------------------- #
class TestWordReads:
    @given(
        num_words=st.integers(min_value=1, max_value=40),
        width=WIDTHS,
        model=MODELS,
        placement=PLACEMENTS,
        protection=PROTECTIONS,
        rate=RATES,
        fill=st.floats(min_value=0.0, max_value=0.4),
        seed=SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_memory_array_reads_match_bit_reference(
        self, num_words, width, model, placement, protection, rate, fill, seed
    ):
        rng = np.random.default_rng(seed)
        ecc = _ecc(protection, width)
        stored_width = ecc.codeword_bits if ecc is not None else width
        fault_map = _fault_map(num_words, stored_width, model, placement, fill, rng)
        words = rng.integers(0, 1 << width, num_words)
        quantizer = LlrQuantizer(num_bits=width)
        stored = quantizer.words_to_bits(words)
        if ecc is not None:
            stored = ecc.encode(stored)

        array = MemoryArray(
            num_words, width, fault_map, ecc, rate, np.random.default_rng(seed + 1)
        )
        array.write_words(words)
        reference_rng = np.random.default_rng(seed + 1)
        for _ in range(3):
            raw, data = _reference_read(fault_map, stored, ecc, rate, reference_rng)
            np.testing.assert_array_equal(array.read_words(), quantizer.bits_to_words(data))
            raw, data = _reference_read(fault_map, stored, ecc, rate, reference_rng)
            np.testing.assert_array_equal(array.read_bits(), raw)
            raw, data = _reference_read(fault_map, stored, ecc, rate, reference_rng)
            np.testing.assert_array_equal(array.read_word_bits(), data)
        if rate > 0.0:
            assert array.soft_error_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("data_bits", [4, 10, 11, 12])
    @pytest.mark.parametrize("extended", [False, True])
    def test_ecc_word_codec_matches_bit_codec(self, data_bits, extended):
        code = HammingCode(data_bits, extended=extended)
        rng = np.random.default_rng(data_bits)
        data = rng.integers(0, 1 << data_bits, 64)
        quantizer = LlrQuantizer(num_bits=data_bits)
        codeword_quantizer = LlrQuantizer(num_bits=code.codeword_bits)
        codewords = code.encode_words(data)
        expected = codeword_quantizer.bits_to_words(code.encode(quantizer.words_to_bits(data)))
        np.testing.assert_array_equal(codewords, expected)
        # Every single- and double-bit error pattern on random codewords.
        patterns = [1 << i for i in range(code.codeword_bits)]
        patterns += [
            (1 << i) | (1 << j)
            for i in range(code.codeword_bits)
            for j in range(i + 1, code.codeword_bits)
        ]
        for pattern in patterns:
            received = codewords ^ pattern
            reference, _, _ = code.decode(codeword_quantizer.words_to_bits(received))
            np.testing.assert_array_equal(
                code.decode_words(received), quantizer.bits_to_words(reference)
            )

    def test_ecc_word_codec_rejects_wide_data(self):
        with pytest.raises(ValueError):
            HammingCode(10).encode_words(np.array([1 << 10]))
        with pytest.raises(ValueError, match="at most"):
            HammingCode(20).encode_words(np.array([0]))

    @pytest.mark.parametrize("word_format", ["sign-magnitude", "twos-complement"])
    @pytest.mark.parametrize("num_bits", [2, 6, 10, 12])
    def test_words_to_llrs_table_matches_arithmetic(self, word_format, num_bits):
        quantizer = LlrQuantizer(num_bits=num_bits, word_format=word_format)
        words = np.arange(1 << num_bits)
        expected = quantizer.index_to_value(quantizer.words_to_index(words))
        assert quantizer.words_to_llrs(words).tobytes() == expected.tobytes()
        for bad in (-1, 1 << num_bits):
            with pytest.raises(ValueError):
                quantizer.words_to_llrs(np.array([bad]))

    @given(
        num_slots=st.integers(min_value=1, max_value=4),
        words=st.integers(min_value=1, max_value=24),
        model=MODELS,
        placement=PLACEMENTS,
        protection=PROTECTIONS,
        rate=RATES,
        fill=st.floats(min_value=0.0, max_value=0.4),
        seed=SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_transmission_buffer_matches_bit_matrix_slots(
        self, num_slots, words, model, placement, protection, rate, fill, seed
    ):
        rng = np.random.default_rng(seed)
        quantizer = LlrQuantizer(num_bits=10)
        ecc = _ecc(protection, 10)
        stored_width = ecc.codeword_bits if ecc is not None else 10
        fault_map = _fault_map(num_slots * words, stored_width, model, placement, fill, rng)
        buffer = TransmissionSoftBuffer(
            words, num_slots, quantizer, fault_map, ecc, rate, np.random.default_rng(seed)
        )
        reference = _BitMatrixSlots(
            fault_map, num_slots, words, quantizer, ecc, rate, np.random.default_rng(seed)
        )
        for slot in range(num_slots):
            llrs = rng.normal(0.0, 12.0, words)
            buffer.store_transmission(slot, llrs, slot)
            reference.store(slot, llrs)
            for read_slot in range(slot + 1):
                loaded, version = buffer.load_transmission(read_slot)
                assert version == read_slot
                assert loaded.tobytes() == reference.load(read_slot).tobytes()
        expected_bits = np.concatenate(reference.bits)
        np.testing.assert_array_equal(buffer.stored_bit_matrix(), expected_bits)

    @given(
        words=st.integers(min_value=1, max_value=24),
        model=MODELS,
        protection=PROTECTIONS,
        rate=RATES,
        fill=st.floats(min_value=0.0, max_value=0.4),
        seed=SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_combined_buffer_matches_bit_matrix_slot(
        self, words, model, protection, rate, fill, seed
    ):
        rng = np.random.default_rng(seed)
        quantizer = LlrQuantizer(num_bits=10)
        ecc = _ecc(protection, 10)
        stored_width = ecc.codeword_bits if ecc is not None else 10
        fault_map = _fault_map(words, stored_width, model, "uniform", fill, rng)
        buffer = LlrSoftBuffer(words, quantizer, fault_map, ecc, rate, np.random.default_rng(seed))
        reference = _BitMatrixSlots(
            fault_map, 1, words, quantizer, ecc, rate, np.random.default_rng(seed)
        )
        occupied = False
        for _ in range(3):
            new = rng.normal(0.0, 6.0, words)
            previous = reference.load(0) if occupied else np.zeros(words)
            reference.store(0, previous + new)
            occupied = True
            expected = reference.load(0)
            assert buffer.combine_and_store(new).tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# round-level calls == per-buffer loop
# --------------------------------------------------------------------------- #
DIES = st.lists(
    st.tuples(MODELS, PLACEMENTS, st.sampled_from([None, "sec"]), RATES, SEEDS),
    min_size=1,
    max_size=6,
)


def _buffers(kind, dies, words, num_slots, shared_stream):
    """One soft buffer per die spec; with *shared_stream* all upsets share one generator."""
    quantizer = LlrQuantizer(num_bits=10)
    shared = np.random.default_rng(99) if shared_stream else None
    buffers = []
    for model, placement, protection, rate, seed in dies:
        ecc = _ecc(protection, 10)
        stored_width = ecc.codeword_bits if ecc is not None else 10
        num_words = words * (num_slots if kind == "transmission" else 1)
        fault_map = _fault_map(
            num_words, stored_width, model, placement, 0.2, np.random.default_rng(seed)
        )
        stream = shared if shared_stream else np.random.default_rng(seed + 1)
        if kind == "transmission":
            buffers.append(
                TransmissionSoftBuffer(
                    words, num_slots, quantizer, fault_map, ecc, rate, stream
                )
            )
        else:
            buffers.append(LlrSoftBuffer(words, quantizer, fault_map, ecc, rate, stream))
    return buffers


def _stream_states(buffers):
    return [
        None if b._soft_rng is None else b._soft_rng.bit_generator.state for b in buffers
    ]


class TestRoundBatching:
    @given(
        dies=DIES,
        active=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=3, max_size=3),
        shared_stream=st.booleans(),
        seed=SEEDS,
    )
    @settings(max_examples=50, deadline=None)
    def test_transmission_rounds_match_per_buffer_loop(self, dies, active, shared_stream, seed):
        words, num_slots = 16, 3
        batched = _buffers("transmission", dies, words, num_slots, shared_stream)
        looped = _buffers("transmission", dies, words, num_slots, shared_stream)
        rng = np.random.default_rng(seed)
        for slot, mask in enumerate(active):
            rows = [index for index in range(len(dies)) if mask[index]]
            if not rows:
                continue
            llrs = rng.normal(0.0, 12.0, (len(rows), words))
            store_transmission_batch([batched[i] for i in rows], slot, llrs, slot + 1)
            for row, index in enumerate(rows):
                looped[index].store_transmission(slot, llrs[row], slot + 1)
            for read_slot in range(num_slots):
                readers = [i for i in rows if batched[i].slot_occupied(read_slot)]
                if not readers:
                    continue
                got, versions = load_transmission_batch(
                    [batched[i] for i in readers], read_slot
                )
                for row, index in enumerate(readers):
                    expected, version = looped[index].load_transmission(read_slot)
                    assert got[row].tobytes() == expected.tobytes()
                    assert versions[row] == version
        assert _stream_states(batched) == _stream_states(looped)
        for a, b in zip(batched, looped):
            np.testing.assert_array_equal(a.stored_bit_matrix(), b.stored_bit_matrix())

    @given(
        dies=DIES,
        active=st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=3, max_size=3),
        shared_stream=st.booleans(),
        seed=SEEDS,
    )
    @settings(max_examples=50, deadline=None)
    def test_combined_rounds_match_per_buffer_loop(self, dies, active, shared_stream, seed):
        words = 16
        batched = _buffers("combined", dies, words, 1, shared_stream)
        looped = _buffers("combined", dies, words, 1, shared_stream)
        rng = np.random.default_rng(seed)
        for mask in active:
            rows = [index for index in range(len(dies)) if mask[index]]
            if not rows:
                continue
            new = rng.normal(0.0, 6.0, (len(rows), words))
            got = combine_and_store_batch([batched[i] for i in rows], new)
            for row, index in enumerate(rows):
                expected = looped[index].combine_and_store(new[row])
                assert got[row].tobytes() == expected.tobytes()
        assert _stream_states(batched) == _stream_states(looped)

    def test_batch_rejects_empty_slots_and_bad_shapes(self):
        buffers = [TransmissionSoftBuffer(4, 2) for _ in range(2)]
        with pytest.raises(ValueError, match="empty"):
            load_transmission_batch(buffers, 0)
        with pytest.raises(ValueError, match="rows"):
            store_transmission_batch(buffers, 0, np.zeros((3, 4)), 0)
        with pytest.raises(ValueError, match="slot"):
            store_transmission_batch(buffers, 2, np.zeros((2, 4)), 0)
        with pytest.raises(ValueError, match="rows"):
            combine_and_store_batch([LlrSoftBuffer(4)], np.zeros((1, 5)))
