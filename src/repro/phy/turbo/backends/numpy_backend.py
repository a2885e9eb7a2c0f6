"""Vectorised numpy max-log-MAP kernel: both recursions in one trellis loop.

This is the default backend.  At the narrow batches a Monte-Carlo sweep
decodes (a few dozen rows), the kernel's cost is the number of numpy calls,
not arithmetic, so it is organised around making few of them:

* **One loop, two recursions.**  The beta recursion does not depend on
  alpha, so loop step ``t`` advances the forward recursion to step ``t + 1``
  and the backward recursion to step ``k - 1 - t`` in the same numpy calls.
  The pair ``[alpha_t ; beta_{k-t}]`` is one ``(2S, batch)`` slab of a
  ``(k + 1, 2, S, batch)`` history, and a step is five calls: one gather of
  both directions' predecessor metrics, one add onto the step's branch
  metrics, one pairwise maximum over the input bit, one max-reduction over
  the states (per direction) and one normalising subtraction.
* **One branch table per call.**  Every branch metric ``c * in_sign +
  p * par_sign`` (``c = 0.5 (Lsys + La)``, ``p = 0.5 Lpar``) is one of the
  four signed sums ``c + p``, ``c - p``, ``-(c - p)``, ``-(c + p)``.  The
  table row of loop step ``t`` — the forward branches of step ``t`` beside
  the backward branches of step ``k - 1 - t`` — is a single ``take`` from
  those four sums with a per-block-size index.
* **APP LLRs after the loop.**  The loop adds its gathered metrics onto the
  table in place, leaving the forward candidates ``alpha_t[s] + branch`` of
  every branch ``s -> s'`` in it.  Adding ``beta_{t+1}[s']`` and taking the
  max per input bit gives every step's APP LLR in one vectorised pass,
  without gathering beta.  Forward rows are grouped by input bit, which
  needs a trellis whose input-``u`` transitions permute the states (every
  recursive code with a full-degree feedback polynomial, the UMTS code
  included); the constructor checks it.
* State metrics are laid out *batch-last*, so every per-step operation runs
  a contiguous, SIMD-friendly inner loop over the batch, and all scratch
  lives in flat pools grown lazily per block size (batches shrink as
  packets converge, so one call sequence sees many batch widths).
* A float32 mode trades precision for a smaller memory footprint.

In float64 mode every floating-point operation is performed on the same
operands in the same order as the seed kernel — multiplying by ``±1`` and
negating are exact, IEEE addition is commutative and max-reductions are
exact, so their grouping and the order of the states they run over are
free — making the decoder output bit-identical, the property the
golden-seed regression suite pins.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.phy.turbo.backends.base import NEG_INF, BackendSpec, SisoBackend
from repro.phy.turbo.trellis import RscTrellis


class _Workspace:
    """Lazily-grown flat buffer pools for one block size.

    Batches shrink as packets converge, so one call sees many distinct
    batch sizes; carving *contiguous* views out of flat pools keeps every
    per-step operand SIMD-friendly without reallocating per size.  The
    branch-table gather index depends on the block size only and lives
    here too.
    """

    _POOLS = {
        "sums": lambda b, k, s: 4 * k * b,
        "branch": lambda b, k, s: 4 * k * s * b,
        "history": lambda b, k, s: 2 * (k + 1) * s * b,
        "rowmax": lambda b, k, s: 2 * b,
    }

    def __init__(
        self,
        capacity: int,
        k: int,
        num_states: int,
        dtype: np.dtype,
        branch_index: np.ndarray,
    ) -> None:
        self.capacity = capacity
        self.k = k
        self.num_states = num_states
        self.branch_index = branch_index
        self._buffers = {
            name: np.empty(size(capacity, k, num_states), dtype=dtype)
            for name, size in self._POOLS.items()
        }

    def view(self, name: str, shape: tuple) -> np.ndarray:
        """A contiguous view of the named pool with the requested shape."""
        length = 1
        for dim in shape:
            length *= dim
        return self._buffers[name][:length].reshape(shape)


class NumpySisoBackend(SisoBackend):
    """The vectorised numpy kernel (float64 or float32)."""

    def __init__(
        self,
        trellis: RscTrellis,
        block_size: int,
        spec: BackendSpec = BackendSpec("numpy", "float64"),
    ) -> None:
        super().__init__(trellis, block_size, spec)
        num_states = trellis.num_states
        states = np.arange(num_states)
        next_state = trellis.next_state.astype(np.intp)  # (S, 2)
        parity = trellis.parity.astype(np.intp)  # (S, 2)
        if not np.array_equal(np.sort(next_state, axis=0), np.stack([states, states], 1)):
            raise ValueError(
                "the numpy kernel needs a trellis whose input-u transitions "
                "permute the states (one incoming branch per input bit)"
            )
        # prev_by_input[s', u]: the state that input u takes to s'.
        prev_by_input = np.empty_like(next_state)
        for u in (0, 1):
            prev_by_input[next_state[:, u], u] = states

        # Table row of one loop step, plane-major over the input bit u:
        # [fwd u=0 | bwd u=0 | fwd u=1 | bwd u=1], S rows each.  Forward row
        # (u, s') is the branch into s' with input u, backward row (u, s) the
        # branch out of s with input u.  The gather below lines the
        # [alpha ; beta] slab up with it, so one pairwise maximum of the two
        # planes yields the next [alpha ; beta].
        self._step_index = np.concatenate(
            [
                prev_by_input[:, 0],
                next_state[:, 0] + num_states,
                prev_by_input[:, 1],
                next_state[:, 1] + num_states,
            ]
        )
        # Which signed sum (0: c+p, 1: c-p, 2: -(c-p), 3: -(c+p), i.e.
        # 2 * input + parity) each row of the table carries: (u, direction, s).
        inputs = np.array([0, 1])
        self._row_sum = np.stack(
            [
                2 * inputs[:, None] + parity[prev_by_input.T, inputs[:, None]],
                2 * inputs[:, None] + parity.T,
            ],
            axis=1,
        )

        self._num_states = num_states
        self._workspaces: Dict[int, _Workspace] = {}

    # ------------------------------------------------------------------ #
    def _branch_index(self, k: int) -> np.ndarray:
        """Rows of the ``(4k, batch)`` signed-sum stack forming the table.

        Sum ``m`` of step ``t`` is row ``m * k + t``.  Result shape
        ``(k, 2, 2, S)``: ``[t, u, 0]`` are the forward branches of step
        ``t``, ``[t, u, 1]`` the backward branches of step ``k - 1 - t``.
        """
        steps = np.arange(k)
        step_of = np.stack([steps, k - 1 - steps], axis=1)  # (k, direction)
        return self._row_sum * k + step_of[:, None, :, None]

    def _workspace(self, batch: int, k: int) -> _Workspace:
        """The (grown-on-demand) scratch buffers for this block size."""
        ws = self._workspaces.get(k)
        if ws is None or ws.capacity < batch:
            if ws is None:
                capacity, index = batch, self._branch_index(k)
            else:
                capacity, index = max(batch, 2 * ws.capacity), ws.branch_index
            ws = _Workspace(capacity, k, self._num_states, self.dtype, index)
            self._workspaces[k] = ws
        return ws

    # ------------------------------------------------------------------ #
    def siso(
        self,
        sys_llrs: np.ndarray,
        par_llrs: np.ndarray,
        apriori_llrs: np.ndarray,
        out: np.ndarray,
        *,
        terminated_start: bool = True,
    ) -> np.ndarray:
        batch, k = sys_llrs.shape
        num_states = self._num_states
        ws = self._workspace(batch, k)
        np_maximum, max_reduce = np.maximum, np.maximum.reduce

        # The four signed sums of c = 0.5 * (Lsys + La) and p = 0.5 * Lpar,
        # step-major; c and p are computed as in the seed kernel and then
        # overwritten by the sums that need them no more.
        sums = ws.view("sums", (4, k, batch))
        c, p = sums[2], sums[3]
        np.add(sys_llrs.T, apriori_llrs.T, out=c)
        c *= 0.5
        np.multiply(par_llrs.T, 0.5, out=p)
        np.add(c, p, out=sums[0])
        np.subtract(c, p, out=sums[1])
        np.negative(sums[1], out=sums[2])
        np.negative(sums[0], out=sums[3])

        # Branch table [step, input, direction, state, batch].  The indices
        # are in range by construction; mode="clip" lets take write into the
        # pool directly instead of through a bounds-checked temporary.
        branch = ws.view("branch", (k, 2, 2, num_states, batch))
        np.take(
            sums.reshape(4 * k, batch), ws.branch_index, axis=0, out=branch, mode="clip"
        )

        # history[t] = [alpha_t ; beta_{k-t}], normalised per direction.
        history = ws.view("history", (k + 1, 2, num_states, batch))
        start = history[0]
        start.fill(0.0)
        if terminated_start:
            start[0].fill(NEG_INF)
            start[0, 0] = 0.0
        slabs = history.reshape(k + 1, 2 * num_states, batch)
        rowmax = ws.view("rowmax", (2, 1, batch))
        step_index = self._step_index
        # Each step adds the gathered metrics onto its table row in place,
        # so after the loop the forward half of row t holds the forward
        # candidates alpha_t[s] + branch(s -> s') — the APP pass needs them.
        rows = branch.reshape(k, 4 * num_states, batch)
        planes = branch.reshape(k, 2, 2 * num_states, batch)
        for slab, row, plane0, plane1, nxt_slab, nxt in zip(
            slabs, rows, planes[:, 0], planes[:, 1], slabs[1:], history[1:]
        ):
            row += slab.take(step_index, axis=0)
            np_maximum(plane0, plane1, out=nxt_slab)
            max_reduce(nxt, axis=1, keepdims=True, out=rowmax)
            nxt -= rowmax

        # APP LLRs for every step at once: metric = (alpha_t[s] + branch) +
        # beta_{t+1}[s'], the seed's operands in the seed's order, enumerated
        # by target state s' instead of source state s (the same set of
        # branches per input, so the same maxima).  beta_{t+1} is
        # history[k - 1 - t].
        metric = branch[:, :, 0]
        metric += history[k - 1 :: -1, None, 1]
        best = ws.view("sums", (k, 2, batch))
        max_reduce(metric, axis=2, out=best)
        np.subtract(best[:, 0], best[:, 1], out=out.T)
        return out
