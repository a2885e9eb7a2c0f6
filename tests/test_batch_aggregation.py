"""Cross-work-item decode aggregation and adaptive fault-map stopping.

Aggregation is a pure throughput optimisation: pooling the packets of many
work items into shared decoder calls must reproduce the per-task results
bit-for-bit, for any grouping, worker count or scheduling.  Adaptive
stopping trades packets for confidence but must stay deterministic in the
worker count.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.protection import EccProtection, NoProtection, msb_protection_scheme
from repro.link.system import PacketGroup, simulate_packet_groups
from repro.runner.parallel import ParallelRunner
from repro.runner.tasks import (
    AdaptiveStopping,
    FaultMapTask,
    GridPoint,
    LinkChunkTask,
    fault_map_tasks_for_point,
    group_tasks_for_batching,
    resolve_adaptive,
    run_fault_map_grid,
    simulate_fault_map,
    simulate_fault_map_batch,
    simulate_link_chunk,
    simulate_link_chunk_batch,
)
from repro.utils.rng import keyed_seed_sequence


def _chunk_tasks(config, snrs, entropy=2012, packets=4):
    return [
        LinkChunkTask(
            config=config,
            snr_db=snr,
            num_packets=packets,
            entropy=entropy,
            key=(index,),
        )
        for index, snr in enumerate(snrs)
    ]


class TestGrouping:
    def test_groups_respect_packet_target_and_order(self, tiny_config):
        tasks = _chunk_tasks(tiny_config, [10.0, 12.0, 14.0, 16.0, 18.0], packets=4)
        groups = group_tasks_for_batching(tasks, aggregate_packets=8)
        assert [len(g) for g in groups] == [2, 2, 1]
        assert [t for g in groups for t in g] == tasks

    def test_incompatible_configs_split_groups(self, tiny_config, tiny_64qam_config):
        tasks = _chunk_tasks(tiny_config, [10.0]) + _chunk_tasks(tiny_64qam_config, [10.0])
        groups = group_tasks_for_batching(tasks, aggregate_packets=64)
        assert len(groups) == 2

    def test_mixed_configs_rejected_by_batch_executor(self, tiny_config, tiny_64qam_config):
        tasks = _chunk_tasks(tiny_config, [10.0]) + _chunk_tasks(tiny_64qam_config, [10.0])
        with pytest.raises(ValueError, match="share one link configuration"):
            simulate_link_chunk_batch(tasks)

    def test_invalid_aggregate_packets(self, tiny_config):
        with pytest.raises(ValueError):
            group_tasks_for_batching(_chunk_tasks(tiny_config, [10.0]), aggregate_packets=0)


class TestLinkChunkAggregation:
    def test_batched_chunks_match_solo_chunks(self, tiny_config):
        tasks = _chunk_tasks(tiny_config, [8.0, 12.0, 16.0], packets=5)
        solo = [simulate_link_chunk(task) for task in tasks]
        batched = simulate_link_chunk_batch(tasks)
        for a, b in zip(solo, batched):
            assert a.as_dict() == b.as_dict()
            assert np.array_equal(
                a.attempts_per_transmission, b.attempts_per_transmission
            )
            assert np.array_equal(
                a.failures_per_transmission, b.failures_per_transmission
            )

    def test_packet_groups_independent_of_grouping(self, tiny_config):
        """Simulating groups together or apart gives identical packets."""
        from repro.runner.tasks import _cached_link

        link = _cached_link(tiny_config)
        make = lambda key, snr: PacketGroup(
            num_packets=3, snr_db=snr, rng=keyed_seed_sequence(7, key)
        )
        together = simulate_packet_groups(
            link, [make((0,), 10.0), make((1,), 14.0)]
        )
        apart = [
            simulate_packet_groups(link, [make((0,), 10.0)])[0],
            simulate_packet_groups(link, [make((1,), 14.0)])[0],
        ]
        for merged, alone in zip(together, apart):
            assert len(merged.packet_results) == len(alone.packet_results)
            for p_merged, p_alone in zip(merged.packet_results, alone.packet_results):
                assert p_merged.success == p_alone.success
                assert p_merged.num_transmissions == p_alone.num_transmissions
                assert np.array_equal(p_merged.decoded_bits, p_alone.decoded_bits)
                assert p_merged.failure_history == p_alone.failure_history


_MSB = msb_protection_scheme(10, 3)
_ECC = EccProtection(bits_per_word=10)
#: Die variants of the batching test, as (link-config overrides, grid
#: points): every fault model and placement, ECC, transient soft errors and
#: the combined buffer architecture go through the round-batched soft-buffer
#: path; "mixed" pools dies of different stored formats (ECC codewords beside
#: plain words, stuck-at beside bit-flip) in one batch.
DIE_VARIANTS = {
    "msb": ({}, [dict(protection=_MSB)]),
    "stuck": ({}, [dict(protection=_MSB, fault_model="stuck-at-random")]),
    "clustered": ({}, [dict(protection=_MSB, fault_model="clustered:1")]),
    "ecc": ({}, [dict(protection=_ECC)]),
    "soft": ({}, [dict(protection=_MSB, soft_error_rate=1e-2)]),
    "combined": ({"buffer_architecture": "combined"}, [dict(protection=_MSB)]),
    "mixed": (
        {},
        [
            dict(protection=_ECC, soft_error_rate=1e-2),
            dict(protection=_MSB, fault_model="stuck-at-0"),
            dict(protection=_ECC, fault_model="clustered:1"),
        ],
    ),
}


class TestFaultMapAggregation:
    @pytest.mark.parametrize("variant", list(DIE_VARIANTS))
    def test_batched_dies_match_solo_dies(self, tiny_config, variant):
        assert tiny_config.llr_bits == 10
        overrides, points = DIE_VARIANTS[variant]
        tasks = [
            task
            for index, point in enumerate(points)
            for task in fault_map_tasks_for_point(
                replace(tiny_config, **overrides),
                snr_db=12.0,
                defect_rate=0.05,
                num_packets=8,
                num_fault_maps=4 if len(points) == 1 else 2,
                entropy=2012,
                key_prefix=(0, index),
                **point,
            )
        ]
        solo = [simulate_fault_map(task) for task in tasks]
        batched = simulate_fault_map_batch(tasks)
        for a, b in zip(solo, batched):
            assert a.num_faults == b.num_faults
            assert a.fallible_cells == b.fallible_cells
            assert a.statistics.as_dict() == b.statistics.as_dict()

    def test_grid_results_independent_of_aggregate_size(self, tiny_config):
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        points = [
            GridPoint(
                key_prefix=(i,),
                config=tiny_config,
                protection=protection,
                snr_db=snr,
                defect_rate=0.01,
            )
            for i, snr in enumerate([10.0, 16.0])
        ]
        runner = ParallelRunner.serial()
        results = [
            run_fault_map_grid(
                runner,
                points,
                num_packets=6,
                num_fault_maps=2,
                entropy=2012,
                aggregate_packets=aggregate,
            )
            for aggregate in (1, 8, 1024)
        ]
        reference = results[0]
        for other in results[1:]:
            for a, b in zip(reference, other):
                assert a.statistics.as_dict() == b.statistics.as_dict()
                assert a.per_map_throughput == b.per_map_throughput


class TestAdaptiveFaultSweeps:
    def test_resolve_adaptive(self):
        assert resolve_adaptive(None) is None
        assert resolve_adaptive(False) is None
        assert isinstance(resolve_adaptive(True), AdaptiveStopping)
        custom = AdaptiveStopping(bler_floor=0.2)
        assert resolve_adaptive(custom) is custom
        with pytest.raises(TypeError):
            resolve_adaptive("yes")

    def test_adaptive_point_deterministic_across_workers(self, tiny_config):
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        point = GridPoint(
            key_prefix=(0,),
            config=tiny_config,
            protection=protection,
            snr_db=18.0,
            defect_rate=0.0,
        )
        kwargs = dict(num_packets=8, num_fault_maps=2, entropy=2012, adaptive=AdaptiveStopping())
        serial = run_fault_map_grid(ParallelRunner.serial(), [point], **kwargs)[0]
        parallel = run_fault_map_grid(ParallelRunner(workers=3), [point], **kwargs)[0]
        assert serial.statistics.as_dict() == parallel.statistics.as_dict()
        assert serial.per_map_throughput == parallel.per_map_throughput

    def test_adaptive_uses_fixed_schedule_dies(self, tiny_config):
        """The first dies of an adaptive run coincide with the fixed sweep's."""
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        point = GridPoint(
            key_prefix=(3,),
            config=tiny_config,
            protection=protection,
            snr_db=14.0,
            defect_rate=0.02,
        )
        adaptive = run_fault_map_grid(
            ParallelRunner.serial(),
            [point],
            num_packets=8,
            num_fault_maps=2,
            entropy=99,
            adaptive=AdaptiveStopping(chunks_per_round=2),
        )[0]
        fixed_tasks = fault_map_tasks_for_point(
            tiny_config,
            protection,
            snr_db=14.0,
            defect_rate=0.02,
            num_packets=8,
            num_fault_maps=2,
            entropy=99,
            key_prefix=(3,),
        )
        fixed = [simulate_fault_map(task) for task in fixed_tasks]
        assert adaptive.per_map_throughput[: len(fixed)] == [
            o.normalized_throughput for o in fixed
        ]

    def test_adaptive_stops_confident_low_bler_point_early(self, tiny_config):
        """A clean high-SNR point must not burn the whole fixed budget."""
        protection = NoProtection(bits_per_word=tiny_config.llr_bits)
        point = GridPoint(
            key_prefix=(0,),
            config=tiny_config,
            protection=protection,
            snr_db=20.0,
            defect_rate=0.0,
        )
        result = run_fault_map_grid(
            ParallelRunner.serial(),
            [point],
            num_packets=64,
            num_fault_maps=16,
            entropy=2012,
            adaptive=AdaptiveStopping(bler_floor=0.5, chunks_per_round=2),
        )[0]
        # budget for bler_floor=0.5 at 0.3 relative error is ~12 packets,
        # far below the 64-packet fixed budget.
        assert result.statistics.num_packets < 64
