"""The end-to-end HSPA+-like link with HARQ over an unreliable LLR buffer.

:class:`HspaLikeLink` ties together the transmitter, the multipath channel,
the receiver front end, the HARQ soft buffer (optionally backed by a faulty
memory array) and the turbo decoder, and simulates complete packet lifetimes.

Two buffer organisations are supported (see
:class:`~repro.link.config.LinkConfig.buffer_architecture`):

* ``"per-transmission"`` — the HARQ memory stores each transmission's
  received channel LLRs in its own region; soft combining happens when the
  decoder reads the buffer.  This matches the LLR-storage sizing the paper
  quotes and is the default.
* ``"combined"`` — the memory stores the running mother-domain sum (a
  virtual-IR-buffer organisation); faults therefore corrupt the *combined*
  soft values.

Three simulation paths are provided:

* :meth:`HspaLikeLink.simulate_single_packet` — one packet at a time;
  convenient for tests and for tracing a packet's lifetime.
* :meth:`HspaLikeLink.simulate_packets` — many packets advance through
  their HARQ rounds in lock-step so that the turbo decoder (the dominant
  cost) runs on whole batches.
* :func:`simulate_packet_groups` — the Monte-Carlo workhorse behind
  cross-work-item batch aggregation: several independent packet groups
  (e.g. the chunks of different work items, each with its own seed stream,
  SNR point and fault map) advance in lock-step and share **one** decoder
  call per HARQ round.  Because the decoder treats batch rows
  independently, every group's results are bit-identical to simulating it
  alone — grouping is purely a throughput optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.fading import jakes_gains_batch
from repro.channel.multipath import MultipathChannel
from repro.harq.buffer import (
    LlrSoftBuffer,
    TransmissionSoftBuffer,
    combine_and_store_batch,
    load_transmission_batch,
    store_transmission_batch,
)
from repro.harq.controller import HarqPacketResult
from repro.harq.metrics import HarqStatistics, aggregate_results
from repro.link.config import LinkConfig
from repro.link.receiver import Receiver
from repro.link.transmitter import EncodedPacket, Transmitter
from repro.utils.rng import RngLike, child_rngs
from repro.utils.validation import ensure_positive_int

#: Either soft-buffer flavour.
SoftBuffer = Union[LlrSoftBuffer, TransmissionSoftBuffer]
#: Creates the soft buffer of packet ``i`` (carrying its fault map).
BufferFactory = Callable[[int], SoftBuffer]


@dataclass
class LinkSimulationResult:
    """Outcome of a Monte-Carlo link simulation at one operating point.

    Attributes
    ----------
    snr_db:
        Receive SNR of the simulated point.
    statistics:
        Aggregate HARQ statistics (throughput, BLER, transmissions).
    packet_results:
        Per-packet outcomes, in simulation order.
    """

    snr_db: float
    statistics: HarqStatistics
    packet_results: List[HarqPacketResult] = field(default_factory=list)


@dataclass
class PacketGroup:
    """One independent batch of packets at a single operating point.

    A group is the unit whose random stream, payloads and soft buffers are
    self-contained; :func:`simulate_packet_groups` may pool any number of
    groups into shared decoder calls without changing any group's outcome.
    """

    num_packets: int
    snr_db: float
    rng: RngLike = None
    buffer_factory: Optional[BufferFactory] = None
    payloads: Optional[List[np.ndarray]] = None


@dataclass
class _PacketState:
    """Mutable per-packet simulation state while HARQ rounds are running."""

    rng: np.random.Generator
    packet: EncodedPacket
    buffer: SoftBuffer
    snr_db: float
    transmissions: int = 0
    success: bool = False
    failure_history: List[bool] = field(default_factory=list)
    decoded: Optional[np.ndarray] = None


class HspaLikeLink:
    """End-to-end link simulator for one :class:`~repro.link.config.LinkConfig`.

    Parameters
    ----------
    config:
        Link operating mode.
    use_rake:
        Use the RAKE baseline instead of the MMSE equalizer.
    """

    def __init__(self, config: LinkConfig, *, use_rake: bool = False) -> None:
        self.config = config
        self.transmitter = Transmitter(config)
        self.receiver = Receiver(config, self.transmitter, use_rake=use_rake)
        self.channel = MultipathChannel(config.profile, config.sample_period_ns)
        #: Intra-packet fading waveform generator (None in block-fading mode).
        self.fading_process = config.fading_process()

    # ------------------------------------------------------------------ #
    # buffer construction
    # ------------------------------------------------------------------ #
    def make_buffer(
        self, fault_map=None, ecc=None, soft_error_rate=0.0, soft_error_rng=None
    ) -> SoftBuffer:
        """Create a soft buffer matching the configured architecture.

        The fault map (if given) must cover
        :attr:`~repro.link.config.LinkConfig.llr_storage_words` words of
        ``llr_bits`` columns (or the ECC codeword width when *ecc* is given).
        A positive *soft_error_rate* additionally flips each stored cell
        with that probability on every read (transient upsets, redrawn from
        *soft_error_rng* per read), composing with the persistent map.
        """
        if self.config.buffer_architecture == "per-transmission":
            return TransmissionSoftBuffer(
                words_per_transmission=self.config.channel_bits_per_transmission,
                num_slots=self.config.max_transmissions,
                quantizer=self.config.quantizer,
                fault_map=fault_map,
                ecc=ecc,
                soft_error_rate=soft_error_rate,
                soft_error_rng=soft_error_rng,
            )
        return LlrSoftBuffer(
            num_llrs=self.config.llr_storage_words,
            quantizer=self.config.quantizer,
            fault_map=fault_map,
            ecc=ecc,
            soft_error_rate=soft_error_rate,
            soft_error_rng=soft_error_rng,
        )

    # ------------------------------------------------------------------ #
    # single-packet path
    # ------------------------------------------------------------------ #
    def simulate_single_packet(
        self,
        snr_db: float,
        rng: RngLike = None,
        buffer: Optional[SoftBuffer] = None,
        payload: Optional[np.ndarray] = None,
    ) -> HarqPacketResult:
        """Simulate one packet's complete HARQ lifetime."""
        factory = None if buffer is None else (lambda _i: buffer)
        result = self.simulate_packets(
            1, snr_db, rng, buffer_factory=factory, payloads=None if payload is None else [payload]
        )
        return result.packet_results[0]

    # ------------------------------------------------------------------ #
    # batched Monte-Carlo path
    # ------------------------------------------------------------------ #
    def simulate_packets(
        self,
        num_packets: int,
        snr_db: float,
        rng: RngLike = None,
        buffer_factory: Optional[BufferFactory] = None,
        payloads: Optional[List[np.ndarray]] = None,
    ) -> LinkSimulationResult:
        """Simulate *num_packets* independent packets at one SNR point.

        Packets advance through HARQ rounds in lock-step so that turbo
        decoding is batched; every packet sees independent payloads, channel
        realisations and noise, and gets its own soft buffer from
        *buffer_factory* (defect-free buffers by default).
        """
        group = PacketGroup(
            num_packets=num_packets,
            snr_db=snr_db,
            rng=rng,
            buffer_factory=buffer_factory,
            payloads=payloads,
        )
        return simulate_packet_groups(self, [group])[0]

    # ------------------------------------------------------------------ #
    # group-simulation plumbing (shared with the batch-aggregation layer)
    # ------------------------------------------------------------------ #
    def _start_group(self, group: PacketGroup) -> List[_PacketState]:
        """Derive per-packet streams, payloads and buffers for one group.

        The derivation order (child rngs, then payloads, then buffers)
        matches the historical ``simulate_packets`` body exactly, so seeded
        runs reproduce bit-for-bit.
        """
        num_packets = ensure_positive_int(group.num_packets, "num_packets")
        packet_rngs = child_rngs(group.rng, num_packets)
        factory = group.buffer_factory or (lambda _index: self.make_buffer())

        payloads = group.payloads
        if payloads is None:
            payloads = [self.transmitter.random_payload(r) for r in packet_rngs]
        elif len(payloads) != num_packets:
            raise ValueError(f"expected {num_packets} payloads, got {len(payloads)}")
        packets = self.transmitter.encode_batch(payloads)
        states = []
        for index, packet_rng in enumerate(packet_rngs):
            soft_buffer = factory(index)
            soft_buffer.clear()
            states.append(
                _PacketState(
                    rng=packet_rng,
                    packet=packets[index],
                    buffer=soft_buffer,
                    snr_db=float(group.snr_db),
                )
            )
        return states

    def _front_end_round(
        self,
        states: Sequence[_PacketState],
        transmission_index: int,
        redundancy_version: int,
    ) -> np.ndarray:
        """Run one HARQ round's (re)transmissions through channel and front end.

        The whole active set is processed as a ``(num_packets, ...)`` batch:
        one vectorised transmit pass, one channel pass with per-packet
        generators, one stacked equalize/demap pass.  Every per-packet random
        draw comes from that packet's own stream in exactly the serial order
        (Jakes realisation, then channel realisation, then noise), so a round
        of N packets is byte-identical to N serial rounds — the serial path
        *is* a batch of one.

        Returns the combined mother-domain LLR matrix ready for decoding,
        already in the configured LLR dtype.
        """
        if len(states) == 1:
            return self._front_end_single(
                states[0], transmission_index, redundancy_version
            )
        samples = self.transmitter.transmit_batch(
            [state.packet for state in states], redundancy_version
        )
        fading_gains = None
        mean_signal_powers = None
        if self.fading_process is not None:
            mean_signal_powers = self.channel.mean_signal_powers(samples)
            realizations = [
                self.fading_process.realization(state.rng) for state in states
            ]
            fading_gains = jakes_gains_batch(realizations, 0, samples.shape[1])
            samples = samples * fading_gains
        received, impulse_responses, noise_variances = self.channel.apply_batch(
            samples,
            [state.snr_db for state in states],
            [state.rng for state in states],
            mean_signal_powers=mean_signal_powers,
        )
        if self.config.buffer_architecture == "per-transmission":
            channel_llrs = self.receiver.front_end_batch(
                received, impulse_responses, noise_variances, fading_gains=fading_gains
            )
            store_transmission_batch(
                [state.buffer for state in states],
                transmission_index,
                channel_llrs,
                redundancy_version,
            )
            combined = self._combined_mother_rows(states)
        else:
            mother_llrs = self.receiver.process_transmission_batch(
                received,
                impulse_responses,
                noise_variances,
                redundancy_version,
                fading_gains=fading_gains,
            )
            combined = combine_and_store_batch(
                [state.buffer for state in states], mother_llrs
            )
        for state in states:
            state.transmissions += 1
        dtype = self.config.llr_numpy_dtype
        if combined.dtype != dtype:
            combined = combined.astype(dtype)
        return combined

    def _front_end_single(
        self,
        state: _PacketState,
        transmission_index: int,
        redundancy_version: int,
    ) -> np.ndarray:
        """One packet's front-end round through the serial kernels.

        A batch of one pays the full batch-assembly overhead (stacking,
        broadcasting, per-column fancy indexing) for no amortisation, which
        made single-packet simulation slower than the pre-batching code.
        This path runs the same round through the serial kernels instead.
        It is byte-identical to the batch path by the pinned kernel
        contracts: every ``*_batch`` kernel is bit-identical to its serial
        counterpart row by row (tests/test_front_end_batching.py), the
        per-packet rng draw order (fading realisation, channel realisation,
        noise) is the serial order already, and the buffer's own
        ``combined_mother_llrs`` is what ``_combined_mother_rows`` mirrors.
        The front-end benchmark asserts the equality at batch 1 on every
        run.
        """
        samples = self.transmitter.transmit(state.packet, redundancy_version)
        fading_gains = None
        mean_signal_power = None
        if self.fading_process is not None:
            mean_signal_power = float(
                self.channel.mean_signal_powers(samples.reshape(1, -1))[0]
            )
            realization = self.fading_process.realization(state.rng)
            fading_gains = jakes_gains_batch([realization], 0, samples.shape[0])[0]
            samples = samples * fading_gains
        received, impulse_response, noise_variance = self.channel.apply(
            samples,
            state.snr_db,
            state.rng,
            mean_signal_power=mean_signal_power,
        )
        if self.config.buffer_architecture == "per-transmission":
            channel_llrs = self.receiver.front_end(
                received, impulse_response, noise_variance, fading_gains=fading_gains
            )
            state.buffer.store_transmission(
                transmission_index, channel_llrs, redundancy_version
            )
            combined = state.buffer.combined_mother_llrs(
                self.receiver.to_mother_domain
            )
        else:
            mother_llrs = self.receiver.process_transmission(
                received,
                impulse_response,
                noise_variance,
                redundancy_version,
                fading_gains=fading_gains,
            )
            combined = state.buffer.combine_and_store(mother_llrs)
        state.transmissions += 1
        combined = combined.reshape(1, -1)
        dtype = self.config.llr_numpy_dtype
        if combined.dtype != dtype:
            combined = combined.astype(dtype)
        return combined

    def _combined_mother_rows(self, states: Sequence[_PacketState]) -> np.ndarray:
        """Batched HARQ read-combine across the per-transmission buffers.

        Mirrors :meth:`TransmissionSoftBuffer.combined_mother_llrs` exactly:
        slots are visited in ascending order, each slot read for all
        buffers holding it in one :func:`load_transmission_batch` call (each
        buffer's transient-upset stream advances in the serial read order),
        and each packet's mother rows accumulate in ascending-slot order, so
        every row is bit-identical to the per-packet loop.  Rows with the
        same stored redundancy version share one de-interleave /
        de-rate-match gather.
        """
        batch = len(states)
        combined = np.empty((batch, self.config.num_coded_bits), dtype=np.float64)
        seen = np.zeros(batch, dtype=bool)
        for slot in range(self.config.max_transmissions):
            rows = [
                index
                for index, state in enumerate(states)
                if state.buffer.slot_occupied(slot)
            ]
            if not rows:
                continue
            stacked, versions = load_transmission_batch(
                [states[index].buffer for index in rows], slot
            )
            mother = np.empty((len(rows), self.config.num_coded_bits), dtype=np.float64)
            for version in dict.fromkeys(versions):
                selector = [j for j, rv in enumerate(versions) if rv == version]
                mother[selector] = self.receiver.to_mother_domain_batch(
                    stacked[selector], version
                )
            row_indices = np.asarray(rows)
            first = ~seen[row_indices]
            if first.any():
                combined[row_indices[first]] = mother[first]
                seen[row_indices[first]] = True
            if (~first).any():
                combined[row_indices[~first]] += mother[~first]
        if not seen.all():
            raise ValueError("no transmissions stored yet")
        return combined

    def _finish_group(self, states: Sequence[_PacketState], snr_db: float) -> LinkSimulationResult:
        """Reduce a group's final per-packet states into its result."""
        packet_results = [
            HarqPacketResult(
                success=state.success,
                num_transmissions=state.transmissions,
                decoded_bits=state.decoded,
                failure_history=state.failure_history,
            )
            for state in states
        ]
        statistics = aggregate_results(packet_results, self.config.payload_bits)
        return LinkSimulationResult(
            snr_db=float(snr_db), statistics=statistics, packet_results=packet_results
        )

    # ------------------------------------------------------------------ #
    def snr_sweep(
        self,
        snr_points_db,
        num_packets: int,
        rng: RngLike = None,
        buffer_factory: Optional[BufferFactory] = None,
        payloads: Optional[List[np.ndarray]] = None,
    ) -> List[LinkSimulationResult]:
        """Run :meth:`simulate_packets` over a list of SNR points.

        When *payloads* is given, every SNR point transmits that same packet
        set (channel realisations and noise still vary per point).  An empty
        *snr_points_db* is a caller bug — it used to return ``[]`` silently —
        and now raises.
        """
        points = [float(s) for s in snr_points_db]
        if not points:
            raise ValueError("snr_points_db must not be empty")
        sweep_rngs = child_rngs(rng, len(points))
        results = []
        for point_rng, snr_db in zip(sweep_rngs, points):
            results.append(
                self.simulate_packets(
                    num_packets, snr_db, point_rng, buffer_factory, payloads=payloads
                )
            )
        return results


# --------------------------------------------------------------------------- #
def simulate_packet_groups(
    link: HspaLikeLink, groups: Sequence[PacketGroup]
) -> List[LinkSimulationResult]:
    """Simulate many independent packet groups with shared decoder calls.

    All groups run on the same *link* (one configuration); each group keeps
    its own seed stream, SNR point, payloads and soft buffers.  Every HARQ
    round gathers the still-active packets of **all** groups — i.e. all
    packets at the same combining state — into one turbo-decoder call, so
    the decode batch stays wide even when individual groups are small or
    mostly finished.

    Per-group results are bit-identical to ``link.simulate_packets(...)``
    run group by group: the decoder processes batch rows independently, and
    every other per-packet operation was already independent.
    """
    groups = list(groups)
    states_per_group = [link._start_group(group) for group in groups]

    for transmission_index in range(link.config.max_transmissions):
        active: List[Tuple[int, int]] = [
            (group_index, packet_index)
            for group_index, states in enumerate(states_per_group)
            for packet_index, state in enumerate(states)
            if not state.success
        ]
        if not active:
            break
        redundancy_version = link.config.combining.redundancy_version(transmission_index)
        active_states = [
            states_per_group[group_index][packet_index]
            for group_index, packet_index in active
        ]
        combined_rows = link._front_end_round(
            active_states, transmission_index, redundancy_version
        )
        decoded_blocks, crc_ok, _result = link.receiver.decode_batch(combined_rows)
        payload_bits = link.config.payload_bits
        for row_index, (group_index, packet_index) in enumerate(active):
            state = states_per_group[group_index][packet_index]
            ok = bool(crc_ok[row_index])
            state.failure_history.append(not ok)
            state.decoded = decoded_blocks[row_index][:payload_bits]
            if ok:
                state.success = True

    return [
        link._finish_group(states, group.snr_db)
        for group, states in zip(groups, states_per_group)
    ]
