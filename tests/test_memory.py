"""Tests for the unreliable-silicon substrate (cells, faults, arrays, ECC, yield)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.array import MemoryArray
from repro.memory.cells import (
    CELL_6T,
    CELL_6T_UPSIZED,
    CELL_8T,
    BitCellType,
    SoftErrorModel,
    get_cell_type,
)
from repro.memory.ecc import HammingCode
from repro.memory.failure_model import FailureModel, failure_probability_with_margin
from repro.memory.faults import FaultMap, FaultModel
from repro.memory.hybrid import HybridArrayConfig
from repro.memory.power import AreaModel, PowerModel
from repro.memory.redundancy import RedundancyRepair
from repro.memory.yield_model import (
    acceptance_yield,
    acceptance_yield_curve,
    defect_free_yield,
    expected_faulty_cells,
    max_cell_failure_probability,
    min_defects_for_yield,
    yield_with_redundancy,
)


class TestCells:
    def test_failure_probability_decreases_with_voltage(self):
        assert CELL_6T.failure_probability(1.0) < CELL_6T.failure_probability(0.7)

    def test_robustness_ordering(self):
        for vdd in (0.6, 0.8, 1.0):
            assert (
                CELL_8T.failure_probability(vdd)
                < CELL_6T_UPSIZED.failure_probability(vdd)
                < CELL_6T.failure_probability(vdd)
            )

    def test_6t_nominal_voltage_anchor(self):
        assert CELL_6T.failure_probability(1.0) < 1e-8

    def test_6t_billion_fold_increase_over_500mv(self):
        ratio = CELL_6T.failure_probability(0.5) / CELL_6T.failure_probability(1.0)
        assert ratio > 1e6

    def test_min_voltage_inverse(self):
        voltage = CELL_6T.min_voltage_for_failure_probability(1e-3)
        assert CELL_6T.failure_probability(voltage) == pytest.approx(1e-3, rel=1e-6)

    def test_vectorised_matches_scalar(self):
        voltages = np.array([0.6, 0.8, 1.0])
        vector = CELL_6T.failure_probabilities(voltages)
        scalar = [CELL_6T.failure_probability(v) for v in voltages]
        assert np.allclose(vector, scalar)

    def test_area_ordering(self):
        assert CELL_6T.relative_area < CELL_6T_UPSIZED.relative_area < CELL_8T.relative_area

    def test_registry(self):
        assert get_cell_type("8T") is CELL_8T
        with pytest.raises(ValueError):
            get_cell_type("12T")

    def test_soft_error_scaling(self):
        model = SoftErrorModel()
        assert model.rate(0.5) / model.rate(1.0) == pytest.approx(3.0)
        assert model.rate(0.75) / model.rate(1.0) == pytest.approx(np.sqrt(3.0), rel=1e-6)

    def test_voltage_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CELL_6T.failure_probability(0.1)


class TestFailureModel:
    def test_total_combines_mechanisms(self):
        model = FailureModel()
        total = model.total_failure_probability(0.8)
        assert total >= model.parametric_failure_probability(0.8)
        assert total <= model.parametric_failure_probability(0.8) + model.soft_error_probability(0.8)

    def test_breakdown_sums_to_parametric(self):
        model = FailureModel()
        breakdown = model.mechanism_breakdown(0.7)
        assert sum(breakdown.values()) == pytest.approx(
            model.parametric_failure_probability(0.7)
        )

    def test_voltage_sweep_keys(self):
        sweep = FailureModel().voltage_sweep(np.array([0.7, 0.9]))
        assert set(sweep) == {"parametric", "soft", "total"}

    def test_expected_defects(self):
        model = FailureModel(soft_errors=None)
        assert model.expected_defects(0.8, 10_000) == pytest.approx(
            CELL_6T.failure_probability(0.8) * 10_000
        )

    def test_margin_reduces_probability(self):
        assert failure_probability_with_margin(1e-3, 1.0) < 1e-3
        assert failure_probability_with_margin(0.0, 1.0) == 0.0


class TestFaultMap:
    def test_exact_count(self, rng):
        fault_map = FaultMap.with_exact_fault_count(500, 10, 37, rng)
        assert fault_map.num_faults == 37
        assert fault_map.defect_rate == pytest.approx(37 / 5000)

    def test_exact_count_zero(self):
        fault_map = FaultMap.with_exact_fault_count(100, 10, 0)
        assert fault_map.num_faults == 0

    def test_exact_count_too_many(self):
        with pytest.raises(ValueError):
            FaultMap.with_exact_fault_count(10, 2, 21)

    def test_protected_columns_untouched(self, rng):
        protected = np.zeros(10, dtype=bool)
        protected[:4] = True
        fault_map = FaultMap.with_exact_fault_count(
            200, 10, 150, rng, protected_columns=protected
        )
        assert fault_map.faults_per_column()[:4].sum() == 0
        assert fault_map.num_faults == 150

    def test_bernoulli_rate(self, rng):
        fault_map = FaultMap.from_cell_failure_probability(2000, 10, 0.05, rng)
        assert fault_map.defect_rate == pytest.approx(0.05, abs=0.01)

    def test_column_probabilities(self, rng):
        probabilities = np.array([0.0, 0.0, 0.5, 0.5])
        fault_map = FaultMap.from_cell_failure_probability(
            4000, 4, 0.0, rng, column_failure_probabilities=probabilities
        )
        per_column = fault_map.faults_per_column()
        assert per_column[0] == 0 and per_column[1] == 0
        assert per_column[2] > 1500

    def test_bit_flip_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(50, 8, 30, rng)
        stored = np.zeros((50, 8), dtype=np.int8)
        read = fault_map.apply_to_bits(stored)
        assert read.sum() == 30

    def test_stuck_at_zero_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(
            50, 8, 30, rng, fault_model=FaultModel.STUCK_AT_0
        )
        stored = np.ones((50, 8), dtype=np.int8)
        read = fault_map.apply_to_bits(stored)
        assert (read == 0).sum() == 30

    def test_stuck_at_one_semantics(self, rng):
        fault_map = FaultMap.with_exact_fault_count(
            50, 8, 30, rng, fault_model=FaultModel.STUCK_AT_1
        )
        stored = np.zeros((50, 8), dtype=np.int8)
        assert fault_map.apply_to_bits(stored).sum() == 30

    def test_clustered_faults(self, rng):
        fault_map = FaultMap.clustered(1000, 10, num_clusters=5, cluster_size=20, rng=rng)
        assert 0 < fault_map.num_faults <= 100

    def test_row_slice(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 4, 40, rng)
        top = fault_map.row_slice(0, 50)
        bottom = fault_map.row_slice(50, 100)
        assert top.num_faults + bottom.num_faults == 40

    def test_row_slice_invalid(self):
        fault_map = FaultMap.empty(10, 4)
        with pytest.raises(ValueError):
            fault_map.row_slice(5, 20)

    @pytest.mark.parametrize(
        "stuck",
        [np.array([1, 1, 1]), np.ones((3, 4), dtype=np.int8), np.full((4, 3), 7)],
        ids=["wrong-shape-row", "transposed", "not-a-bit"],
    )
    def test_malformed_stuck_values_rejected(self, stuck):
        mask = np.zeros((4, 3), dtype=bool)
        mask[1, 2] = True
        with pytest.raises(ValueError, match="stuck_values"):
            FaultMap(4, 3, mask, FaultModel.STUCK_AT_RANDOM, stuck_values=stuck)

    def test_well_formed_stuck_values_read_back(self):
        mask = np.zeros((4, 3), dtype=bool)
        mask[1, 2] = mask[3, 0] = True
        stuck = np.zeros((4, 3), dtype=np.int8)
        stuck[3, 0] = 1
        fault_map = FaultMap(4, 3, mask, FaultModel.STUCK_AT_RANDOM, stuck_values=stuck)
        read = fault_map.apply_to_bits(np.ones((4, 3), dtype=np.int8))
        assert read[1, 2] == 0 and read[3, 0] == 1 and read.sum() == 11

    def test_restrict_to_columns(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 10, 80, rng)
        restricted = fault_map.restrict_to_columns(np.array([0, 1]))
        assert restricted.num_faults == fault_map.faults_per_column()[:2].sum()

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_exact_count_property(self, num_faults):
        fault_map = FaultMap.with_exact_fault_count(50, 8, num_faults, rng=num_faults)
        assert fault_map.num_faults == num_faults


class TestMemoryArray:
    def test_defect_free_roundtrip(self, rng):
        array = MemoryArray(200, 10)
        words = rng.integers(0, 1024, 200)
        array.write_words(words)
        assert np.array_equal(array.read_words(), words)

    def test_faulty_reads_corrupt_words(self, rng):
        fault_map = FaultMap.with_exact_fault_count(200, 10, 100, rng)
        array = MemoryArray(200, 10, fault_map=fault_map)
        words = rng.integers(0, 1024, 200)
        array.write_words(words)
        corrupted = array.read_words()
        assert np.any(corrupted != words)
        assert array.corrupted_word_count() > 0

    def test_faults_are_deterministic(self, rng):
        fault_map = FaultMap.with_exact_fault_count(100, 8, 50, rng)
        array = MemoryArray(100, 8, fault_map=fault_map)
        words = rng.integers(0, 256, 100)
        array.write_words(words)
        assert np.array_equal(array.read_words(), array.read_words())

    def test_ecc_corrects_single_faults(self, rng):
        ecc = HammingCode(10)
        # One fault per word at most: place faults in distinct rows.
        mask = np.zeros((100, ecc.codeword_bits), dtype=bool)
        rows = rng.choice(100, size=60, replace=False)
        mask[rows, rng.integers(0, ecc.codeword_bits, 60)] = True
        fault_map = FaultMap(100, ecc.codeword_bits, mask)
        array = MemoryArray(100, 10, fault_map=fault_map, ecc=ecc)
        words = rng.integers(0, 1024, 100)
        array.write_words(words)
        assert np.array_equal(array.read_words(), words)

    def test_ecc_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryArray(10, 8, ecc=HammingCode(10))

    def test_fault_map_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MemoryArray(10, 8, fault_map=FaultMap.empty(10, 10))

    def test_write_bits_interface(self, rng):
        array = MemoryArray(50, 6)
        bits = rng.integers(0, 2, (50, 6)).astype(np.int8)
        array.write_words(None, word_bits=bits)
        assert np.array_equal(array.read_word_bits(), bits)

    def test_clear(self, rng):
        array = MemoryArray(20, 4)
        array.write_words(rng.integers(0, 16, 20))
        array.clear()
        assert array.read_words().sum() == 0


class TestHammingCode:
    @pytest.mark.parametrize("data_bits", [4, 8, 10, 11, 12, 16])
    def test_roundtrip(self, data_bits, rng):
        code = HammingCode(data_bits)
        data = rng.integers(0, 2, (64, data_bits)).astype(np.int8)
        decoded, corrected, uncorrectable = code.decode(code.encode(data))
        assert np.array_equal(decoded, data)
        assert not corrected.any()
        assert not uncorrectable.any()

    @pytest.mark.parametrize("data_bits", [8, 10, 12])
    def test_single_error_correction(self, data_bits, rng):
        code = HammingCode(data_bits)
        data = rng.integers(0, 2, (128, data_bits)).astype(np.int8)
        codewords = code.encode(data)
        for i in range(codewords.shape[0]):
            codewords[i, rng.integers(0, code.codeword_bits)] ^= 1
        decoded, corrected, _ = code.decode(codewords)
        assert np.array_equal(decoded, data)
        assert corrected.all()

    def test_ten_bit_code_uses_four_parity_bits(self):
        code = HammingCode(10)
        assert code.num_parity_bits == 4
        assert code.overhead == pytest.approx(0.4)

    def test_extended_detects_double_errors(self, rng):
        code = HammingCode(10, extended=True)
        data = rng.integers(0, 2, (64, 10)).astype(np.int8)
        codewords = code.encode(data)
        for i in range(codewords.shape[0]):
            positions = rng.choice(code.codeword_bits - 1, size=2, replace=False)
            codewords[i, positions] ^= 1
        _, _, uncorrectable = code.decode(codewords)
        assert uncorrectable.mean() > 0.9

    def test_word_failure_probability(self):
        code = HammingCode(10)
        assert code.word_failure_probability(1e-3) < 14 * 1e-3
        assert code.word_failure_probability(0.0) == 0.0

    def test_invalid_shapes_rejected(self):
        code = HammingCode(10)
        with pytest.raises(ValueError):
            code.encode(np.zeros((4, 9), dtype=np.int8))
        with pytest.raises(ValueError):
            code.decode(np.zeros((4, 10), dtype=np.int8))


class TestYieldModel:
    def test_eq1_matches_eq2_at_zero_defects(self):
        assert defect_free_yield(1e-4, 10_000) == pytest.approx(
            acceptance_yield(1e-4, 10_000, 0), rel=1e-9
        )

    def test_yield_increases_with_accepted_defects(self):
        values = acceptance_yield_curve(1e-3, 50_000, np.array([0, 10, 50, 100]))
        assert np.all(np.diff(values) >= 0)

    def test_paper_anchor_pcell_1e3(self):
        """Pcell=1e-3 on a 200 Kb array needs ~0.1% accepted defects for 95% yield."""
        array_size = 200 * 1024
        needed = min_defects_for_yield(1e-3, array_size, 0.95)
        assert 0.0008 < needed / array_size < 0.0015

    def test_min_defects_consistent_with_yield(self):
        needed = min_defects_for_yield(1e-3, 10_000, 0.9)
        assert acceptance_yield(1e-3, 10_000, needed) >= 0.9
        if needed > 0:
            assert acceptance_yield(1e-3, 10_000, needed - 1) < 0.9

    def test_max_pcell_inverse(self):
        pcell = max_cell_failure_probability(10_000, 50, 0.95)
        assert acceptance_yield(pcell, 10_000, 50) == pytest.approx(0.95, rel=1e-3)

    def test_max_pcell_monotone_in_defect_budget(self):
        small = max_cell_failure_probability(10_000, 10, 0.95)
        large = max_cell_failure_probability(10_000, 100, 0.95)
        assert large > small

    def test_expected_faults(self):
        assert expected_faulty_cells(0.01, 1000) == pytest.approx(10.0)

    def test_redundancy_yield_improves_with_spares(self):
        no_spares = yield_with_redundancy(1e-4, 256, 10, 0)
        with_spares = yield_with_redundancy(1e-4, 256, 10, 4)
        assert with_spares > no_spares

    def test_acceptance_yield_bounds(self):
        assert acceptance_yield(0.5, 100, 100) == 1.0
        assert 0.0 <= acceptance_yield(0.5, 100, 10) <= 1.0

    @given(
        st.floats(min_value=1e-6, max_value=0.1),
        st.integers(min_value=10, max_value=5000),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_yield_is_probability_property(self, pcell, size, defects):
        value = acceptance_yield(pcell, size, defects)
        assert 0.0 <= value <= 1.0
        assert value >= defect_free_yield(pcell, size) - 1e-12


class TestRedundancyRepair:
    def test_repairs_single_fault(self):
        mask = np.zeros((10, 4), dtype=bool)
        mask[3, 2] = True
        repaired, complete = RedundancyRepair(spare_rows=1).repair(FaultMap(10, 4, mask))
        assert complete
        assert repaired.num_faults == 0

    def test_insufficient_spares(self):
        mask = np.zeros((10, 4), dtype=bool)
        mask[1, 1] = mask[5, 2] = mask[8, 0] = True
        _, complete = RedundancyRepair(spare_rows=1).repair(FaultMap(10, 4, mask))
        assert not complete

    def test_column_repair(self):
        mask = np.zeros((10, 4), dtype=bool)
        mask[:, 3] = True
        repaired, complete = RedundancyRepair(spare_columns=1).repair(FaultMap(10, 4, mask))
        assert complete

    def test_repair_yield_monotone_in_spares(self):
        base = RedundancyRepair(0, 0).repair_yield(5e-4, 64, 10, num_trials=60, rng=1)
        better = RedundancyRepair(4, 1).repair_yield(5e-4, 64, 10, num_trials=60, rng=1)
        assert better >= base


class TestHybridAndPower:
    def test_hybrid_protected_columns(self):
        config = HybridArrayConfig(bits_per_word=10, protected_msbs=4)
        assert config.protected_columns.sum() == 4
        assert config.cell_for_column(0) is CELL_8T
        assert config.cell_for_column(9) is CELL_6T

    def test_hybrid_column_probabilities(self):
        config = HybridArrayConfig(bits_per_word=10, protected_msbs=3)
        probabilities = config.column_failure_probabilities(0.7)
        assert probabilities[:3].max() < probabilities[3:].min()

    def test_hybrid_fault_map_respects_protection(self, rng):
        config = HybridArrayConfig(bits_per_word=10, protected_msbs=4)
        fault_map = config.fault_map_with_exact_faults(300, 200, rng)
        assert fault_map.faults_per_column()[:4].sum() == 0

    def test_hybrid_area_overhead_anchor(self):
        """4 of 10 bits in 8T cells costs ~12% extra area (paper: ~13%)."""
        config = HybridArrayConfig(bits_per_word=10, protected_msbs=4)
        assert 0.10 <= config.area_overhead() <= 0.14

    def test_hybrid_describe(self):
        assert "8T" in HybridArrayConfig(protected_msbs=2).describe()
        assert "unprotected" in HybridArrayConfig(protected_msbs=0).describe()

    def test_area_model_orderings(self):
        model = AreaModel()
        assert model.robust_array_area(100, 10) > model.plain_array_area(100, 10)
        assert model.hybrid_overhead(10, 0) == pytest.approx(0.0)
        assert model.hybrid_overhead(10, 10) == pytest.approx(0.30, abs=0.01)
        assert model.ecc_overhead(10, 14) > 0.35

    def test_power_scales_with_voltage_squared(self):
        model = PowerModel(dynamic_fraction=1.0)
        assert model.relative_power(0.5) == pytest.approx(0.25)

    def test_power_saving_at_08v(self):
        model = PowerModel()
        saving = model.power_saving(0.8)
        assert 0.25 <= saving <= 0.45

    def test_hybrid_power_between_pure_arrays(self):
        model = PowerModel()
        hybrid = model.hybrid_relative_power(0.8, 10, 4)
        all_6t = model.relative_power(0.8, CELL_6T)
        all_8t = model.relative_power(0.8, CELL_8T)
        assert all_6t <= hybrid <= all_8t

    def test_invalid_power_model(self):
        with pytest.raises(ValueError):
            PowerModel(dynamic_fraction=1.5)
