"""Byte-identity and workspace properties of the default numpy SISO kernel.

The ``numpy`` backend is the golden reference: its float64 output must equal
the pre-engine seed kernel (preserved in ``repro.runner.bench``) byte for
byte, whatever the batch width, block size, start condition or LLR scale.
The float32 ``numpy-f32`` path has no golden file, so its decoder output on
three fixed seeded workloads is pinned by digest.  Finally, the kernel's
scratch must stay one lazily-grown workspace per block size: batches shrink
as packets converge, and a cache per batch width would grow the decoder's
resident memory with every width it ever saw.
"""

import hashlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.turbo import TurboCode, TurboDecoder
from repro.phy.turbo.backends import BackendSpec, NumpySisoBackend
from repro.phy.turbo.trellis import UMTS_TRELLIS, RscTrellis
from repro.runner.bench import _SeedSisoDecoder

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _siso_inputs(rng, batch, k, scale):
    """Random LLRs at *scale*, with exact zeros like punctured positions."""
    sys_llrs, par_llrs, apriori = rng.normal(0.0, scale, (3, batch, k))
    par_llrs[rng.random((batch, k)) < 0.3] = 0.0
    apriori[rng.random((batch, k)) < 0.2] = 0.0
    return sys_llrs, par_llrs, apriori


@given(
    batch=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=80),
    terminated_start=st.booleans(),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=SEEDS,
)
@settings(max_examples=60, deadline=None)
def test_numpy_siso_matches_seed_kernel_bytes(batch, k, terminated_start, scale, seed):
    rng = np.random.default_rng(seed)
    sys_llrs, par_llrs, apriori = _siso_inputs(rng, batch, k, scale)
    expected = _SeedSisoDecoder(UMTS_TRELLIS, k).decode(
        sys_llrs, par_llrs, apriori, terminated_start=terminated_start
    )
    out = np.empty((batch, k))
    NumpySisoBackend(UMTS_TRELLIS, k).siso(
        sys_llrs, par_llrs, apriori, out, terminated_start=terminated_start
    )
    assert out.tobytes() == expected.tobytes()


#: ``(block_size, batch, seed, iterations)`` -> sha256 of the ``numpy-f32``
#: decoder's ``app_llrs`` bytes, recorded before the kernel was rewritten.
F32_DIGESTS = {
    (40, 3, 11, 4): "dd4246a01291d06abb37adc31ce23b0e48f5ab3331acef4a040a2ceecf3a4c82",
    (136, 8, 2012, 4): "747206362c7c44589ff4d55026acc1250fbd21c1562efa22184980188579f6f5",
    (312, 26, 7, 5): "f8b3459232518f88e6d1272ecf8bfa7a40d50a8b3df8a22591789cacd9ba2d62",
}


@pytest.mark.parametrize("workload", sorted(F32_DIGESTS))
def test_numpy_f32_decoder_output_is_pinned(workload):
    block_size, batch, seed, iterations = workload
    code = TurboCode(block_size, num_iterations=iterations)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (batch, block_size), dtype=np.int8)
    coded = np.stack([code.encode(row) for row in bits])
    sigmas = rng.uniform(0.5, 3.0, (batch, 1))
    llrs = (1.0 - 2.0 * coded) * 2.0 + rng.normal(0.0, 1.0, coded.shape) * sigmas
    k = block_size
    decoder = TurboDecoder(
        k, iterations, interleaver=code.encoder.interleaver, backend="numpy-f32"
    )
    app = decoder.decode(llrs[:, :k], llrs[:, k::2], llrs[:, k + 1 :: 2]).app_llrs
    assert hashlib.sha256(app.tobytes()).hexdigest() == F32_DIGESTS[workload]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_workspace_stays_one_bounded_pool_per_block_size(dtype):
    """Shrinking batches reuse the widest pool; growth at most doubles it."""
    backend = NumpySisoBackend(UMTS_TRELLIS, 48, BackendSpec("numpy", dtype))
    rng = np.random.default_rng(5)
    widest = 40
    for k in (48, 24):
        for batch in [*range(32, 0, -1), widest]:
            inputs = [a.astype(dtype) for a in _siso_inputs(rng, batch, k, 4.0)]
            backend.siso(*inputs, np.empty((batch, k), dtype=dtype))
    assert sorted(backend._workspaces) == [24, 48]
    for k, workspace in backend._workspaces.items():
        assert workspace.k == k
        assert widest <= workspace.capacity <= 2 * widest


def test_kernel_rejects_a_trellis_without_one_branch_per_input():
    """Feedback 0o12 lacks the oldest-register tap: two states reach each
    successor under the same input bit, which the kernel cannot group."""
    with pytest.raises(ValueError, match="permute the states"):
        NumpySisoBackend(RscTrellis(feedback=0o12), 16)
