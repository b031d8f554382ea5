"""Vectorized count-domain SCONNA execution engine.

The functional simulator's hot path is the count-domain SC matmul: for
every output channel ``l`` and output pixel ``p`` it needs the psum-group
sums ``sum_q floor(a_q * |w_lq| / 2**B)``, sign-split into the positive
and negative PCA accumulations.  The seed implementation walked output
channels in a Python loop (kept below as
:func:`sconna_matmul_reference`); this module replaces it with a fully
vectorized engine built on an exact algebraic decomposition.

**The floor-decomposition identity.**  For non-negative integers,

.. math::

    \\sum_q \\lfloor a_q w_q / 2^B \\rfloor
      = \\Big( \\sum_q a_q w_q \\;-\\; \\sum_q (a_q w_q \\bmod 2^B) \\Big)
        \\, / \\, 2^B

so the per-product floor division - the one thing that kept the kernel
from being a matmul - splits into

* a **BLAS matmul** ``sum_q a_q w_q`` over sign-split weight magnitudes
  (run in float64, exact for integer sums below ``2**53``), and
* a **remainder reduction** ``sum_q (a_q w_q mod 2**B)``.  Because
  ``x*y mod 2**k`` is the natural wraparound of k-bit machine
  multiplication, the remainder term is a fused low-bits
  multiply-accumulate: one of two native C kernels, picked from the
  operand shape, when available (:mod:`repro.utils.native`), a chunked
  uint8/uint16 broadcast in pure NumPy otherwise.  All are bit-identical
  to the reference.

A :class:`SconnaLayerPlan` caches everything derivable from the weights
(sign-split magnitudes, low bits, psum-group slices, dtype choices) so a
layer pays the preparation cost once per
:class:`~repro.cnn.graph_plan.NetworkPlan`, not per forward pass.
:class:`SconnaEngine` adds reusable activation/workspace buffers on top.

**Noise order.**  Both the engine and the reference hand each psum
group's counts to the error model as one stacked ``(B, 2L, P)`` array,
positive rows first, so a seeded error model draws the same noise in
the same order and the noisy outputs are bit-identical too.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SconnaConfig
from repro.stochastic.error_models import SconnaErrorModel
from repro.utils import native

#: elements per chunk of the NumPy fallback's remainder broadcast
_REM_CHUNK_ELEMS = 1 << 24
#: smallest operand P (output pixels) that takes the pixel-vectorised
#: ``cols`` remainder kernel; narrower operands take ``split``
_COLS_MIN_P = 8


def psum_group_size(config: SconnaConfig) -> int:
    """Kernel-vector points accumulated per electrical psum readout."""
    return config.vdpe_size * config.pca_accumulation_passes


def vector_path_supported(precision_bits: int, group: int) -> bool:
    """Is the vectorized engine exact for this (B, group) combination?

    Three requirements: the low-bits layout fits uint16 (B <= 16), the
    BLAS term's per-group integer sums stay below float64's 2**53 exact
    range, and the remainder sums fit int32.  Every paper configuration
    qualifies by orders of magnitude; a model outside the envelope runs
    :func:`sconna_matmul_reference` instead.
    """
    mask = (1 << precision_bits) - 1
    return (
        precision_bits <= 16
        and group * (1 << (2 * precision_bits)) < 2**53
        and group * mask < 2**31
    )


@dataclass
class SconnaLayerPlan:
    """Compiled per-layer constants for the vectorized engine.

    Built once from the quantized weights (see :func:`compile_layer_plan`)
    and reused by every forward pass.
    """

    precision_bits: int
    group: int                       #: psum-group size in vector points
    n_out: int                       #: L - output channels
    n_in: int                        #: Q - flattened kernel length
    w_stacked: np.ndarray            #: (2L, Q) float64 [pos mags; neg mags]
    w_float: np.ndarray              #: (L, Q) float64 signed weights
    w_lo: np.ndarray                 #: (2L, Q) low bits of the magnitudes
    group_slices: "list[slice]" = field(default_factory=list)
    #: (L, Q) uint8 low bits of |w| for the sign-split remainder kernel
    #: (B <= 8 layouts only; None otherwise)
    w_mag_lo: "np.ndarray | None" = None
    #: (L, Q) uint8 steering mask, 0xFF where w > 0 (None when B > 8)
    w_pos_mask: "np.ndarray | None" = None

    @property
    def shift(self) -> int:
        return self.precision_bits

    @property
    def mask(self) -> int:
        return (1 << self.precision_bits) - 1

    @property
    def lo_dtype(self) -> np.dtype:
        return self.w_lo.dtype


def compile_layer_plan(
    w_flat: np.ndarray, precision_bits: int, group: int
) -> SconnaLayerPlan:
    """Precompute the weight-side constants of the vectorized kernel.

    ``w_flat``: ``(L, Q)`` signed integer weights with magnitudes in
    ``[0, 2**B]``; ``group``: psum-group size (vdpe_size x accumulation
    passes).
    """
    if w_flat.ndim != 2:
        raise ValueError("w_flat must be 2-D (L, Q)")
    if group < 1:
        raise ValueError("group must be >= 1")
    if not vector_path_supported(precision_bits, group):
        raise ValueError(
            f"vectorized engine is not exact for B={precision_bits}, "
            f"group={group}; use sconna_matmul_reference"
        )
    l, q = w_flat.shape
    w_mag = np.abs(w_flat).astype(np.int64)
    if (w_mag > (1 << precision_bits)).any():
        raise ValueError(f"|weights| must lie in [0, {1 << precision_bits}]")
    w_stacked = np.ascontiguousarray(
        np.concatenate(
            [np.where(w_flat > 0, w_mag, 0), np.where(w_flat < 0, w_mag, 0)],
            axis=0,
        ).astype(np.float64)
    )
    lo_dtype = np.uint8 if precision_bits <= 8 else np.uint16
    mask = (1 << precision_bits) - 1
    # casting wraps mod 2**{8,16}; both are multiples of 2**B, so the
    # subsequent & mask yields the exact mod-2**B low bits.
    w_lo = np.ascontiguousarray(w_stacked.astype(np.int64).astype(lo_dtype))
    w_lo &= lo_dtype(mask)
    w_mag_lo = w_pos_mask = None
    if lo_dtype == np.uint8:
        w_mag_lo = np.ascontiguousarray(w_mag.astype(np.uint8) & np.uint8(mask))
        w_pos_mask = np.ascontiguousarray(
            np.where(w_flat > 0, 0xFF, 0).astype(np.uint8)
        )
    slices = [slice(s, min(s + group, q)) for s in range(0, q, group)]
    return SconnaLayerPlan(
        precision_bits=precision_bits,
        group=group,
        n_out=l,
        n_in=q,
        w_stacked=w_stacked,
        w_float=np.ascontiguousarray(w_flat.astype(np.float64)),
        w_lo=w_lo,
        group_slices=slices,
        w_mag_lo=w_mag_lo,
        w_pos_mask=w_pos_mask,
    )


class _BufferPool:
    """One grow-only byte buffer per tag; :meth:`get` returns a prefix view.

    Forward passes re-run the same layer geometry thousands of times
    during a Table V / Fig. 9 sweep; reusing a buffer avoids a fresh
    large allocation (and the page-zeroing behind it) on every call.
    Each tag is asked for at most once per engine or plan call, so views
    of one tag are never live together, and a tag's buffer only ever
    grows to the largest request: scratch memory follows the largest
    batch, not the number of distinct batch sizes.
    """

    def __init__(self) -> None:
        self._bufs: "dict[str, np.ndarray]" = {}

    def buffer(self, tag: str, nbytes: int) -> np.ndarray:
        """The tag's backing uint8 buffer, grown to at least ``nbytes``."""
        buf = self._bufs.get(tag)
        if buf is None or buf.nbytes < nbytes:
            buf = self._bufs[tag] = np.empty(nbytes, dtype=np.uint8)
        return buf

    def get(self, tag: str, shape: tuple, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * math.prod(shape)
        buf = self.buffer(tag, nbytes)
        return buf[:nbytes].view(dtype).reshape(shape)


class SconnaEngine:
    """Vectorized count-domain executor with reusable workspaces.

    One engine per :class:`~repro.cnn.inference.QuantizedModel`; it is
    stateless apart from scratch buffers, so results do not depend on
    call history.  Buffer ownership is **per thread**: each thread that
    runs a forward pass gets (and keeps, warm) its own
    :class:`_BufferPool`, so concurrent calls into one engine - the
    serving worker pool's steady state - never share workspaces.  A
    worker's first batch pays the allocation cost once; every later
    batch no larger than the largest seen reuses the warm buffers.
    """

    def __init__(self, use_native: bool = True) -> None:
        self.use_native = use_native
        self._local = threading.local()
        self._native_ready: "bool | None" = None

    # An engine is stateless apart from per-thread scratch buffers, so it
    # pickles as configuration only: a copy that crosses a process
    # boundary (multi-process serving shards) arrives cold and rebuilds
    # its thread-local pools - and its compiled plans' native-kernel
    # binding - on first use in the new process.
    def __getstate__(self) -> dict:
        return {"use_native": self.use_native}

    def __setstate__(self, state: dict) -> None:
        self.use_native = state["use_native"]
        self._local = threading.local()
        self._native_ready = None

    @property
    def pool(self) -> _BufferPool:
        """This thread's private scratch-buffer pool (created lazily)."""
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = _BufferPool()
            self._local.pool = pool
        return pool

    # -- main kernel -----------------------------------------------------
    def matmul(
        self,
        plan: SconnaLayerPlan,
        cols: np.ndarray,
        error_model: SconnaErrorModel | None = None,
        *,
        out: "np.ndarray | None" = None,
        profile: "list | None" = None,
    ) -> np.ndarray:
        """Count-domain SC matmul with per-psum-group ADC error.

        ``cols``: ``(B, Q, P)`` unsigned integer activations.  Returns
        float64 ``(B, L, P)`` signed counts, bit-exact with
        :func:`sconna_matmul_reference`.

        ``out`` (optional) is a preallocated float64 ``(B, L, P)`` result
        buffer.  ``profile`` (optional) collects ``(name, start_s, end_s,
        tags)`` timing tuples per psum group: ``engine.matmul`` (BLAS
        term), ``engine.remainder`` (tagged with the kernel that ran) and
        ``engine.adc`` (the error model's noise draw).  Timing reads the
        clock around unchanged arithmetic, so results stay bit-identical
        with profiling on or off.
        """
        b, q, p = cols.shape
        if q != plan.n_in:
            raise ValueError(f"cols Q={q} does not match plan Q={plan.n_in}")
        l = plan.n_out
        apply_error = error_model is not None and not error_model.ideal()

        kernel = self._remainder_kernel(plan, p)
        af, a_lo = self._load_activations(plan, cols, kernel)
        rem = self.pool.get("rem", (b, 2 * l, p), np.int32)
        s_buf = self.pool.get("s", (b, 2 * l, p), np.float64)
        if apply_error:
            adc_buf = self.pool.get("adc", (b, 2 * l, p), np.float64)
        if out is None:
            out = np.zeros((b, l, p), dtype=np.float64)
        else:
            out.fill(0.0)
        inv_scale = 1.0 / (1 << plan.shift)
        for sl in plan.group_slices:
            # BLAS term: exact integer sums in float64.
            t0 = time.monotonic() if profile is not None else 0.0
            s = np.matmul(plan.w_stacked[None, :, sl], af[:, sl, :], out=s_buf)
            if profile is not None:
                t1 = time.monotonic()
                profile.append(("engine.matmul", t0, t1, {}))
                t0 = t1
            ran = self._remainder(plan, a_lo, sl, rem, kernel)
            if profile is not None:
                profile.append(("engine.remainder", t0, time.monotonic(),
                                {"kernel": ran}))
            np.subtract(s, rem, out=s)
            s *= inv_scale  # exact: s - rem is a multiple of 2**B
            if apply_error:
                t0 = time.monotonic() if profile is not None else 0.0
                s = error_model.apply_to_counts(s, out=adc_buf)
                if profile is not None:
                    profile.append(("engine.adc", t0, time.monotonic(), {}))
            out += s[:, :l, :]
            out -= s[:, l:, :]
        return out

    def matmul_ideal(
        self,
        plan: SconnaLayerPlan,
        cols: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        profile: "list | None" = None,
    ) -> np.ndarray:
        """Ideal-datapath SC matmul: half the BLAS and remainder work.

        With no error model the sign-split stacks collapse: the counts
        are ``(S_pos - R_pos - S_neg + R_neg) / 2**B`` where
        ``S_pos - S_neg`` is a single *signed* L-row matmul (instead of
        the stacked 2L rows, half of which multiply structural zeros)
        and ``R_pos - R_neg`` comes from the one-pass sign-split
        remainder kernel.  Every term is an exact integer below 2**53 and
        the result is a multiple of ``2**-B``, so this is bit-identical
        to ``matmul(plan, cols, error_model=None)`` - locked by
        ``tests/test_cnn_engine.py``.  An active error model needs the
        full stacked counts for its noise draw, so noisy callers must use
        :meth:`matmul`.
        """
        b, q, p = cols.shape
        if q != plan.n_in:
            raise ValueError(f"cols Q={q} does not match plan Q={plan.n_in}")
        l = plan.n_out

        kernel = self._remainder_kernel(plan, p)
        af, a_lo = self._load_activations(plan, cols, kernel)
        rem = self.pool.get("rem", (b, 2 * l, p), np.int32)
        s_buf = self.pool.get("s_signed", (b, l, p), np.float64)
        if out is None:
            out = np.empty((b, l, p), dtype=np.float64)
        single = len(plan.group_slices) == 1
        if not single:
            out.fill(0.0)
        inv_scale = 1.0 / (1 << plan.shift)
        for sl in plan.group_slices:
            t0 = time.monotonic() if profile is not None else 0.0
            s = np.matmul(plan.w_float[None, :, sl], af[:, sl, :], out=s_buf)
            if profile is not None:
                t1 = time.monotonic()
                profile.append(("engine.matmul", t0, t1, {}))
                t0 = t1
            ran = self._remainder(plan, a_lo, sl, rem, kernel)
            if profile is not None:
                profile.append(("engine.remainder", t0, time.monotonic(),
                                {"kernel": ran}))
            np.subtract(s, rem[:, :l, :], out=s)
            s += rem[:, l:, :]
            if single:
                np.multiply(s, inv_scale, out=out)
            else:
                s *= inv_scale
                out += s
        return out

    def _remainder_kernel(self, plan: SconnaLayerPlan, p: int) -> str:
        """The remainder kernel for this plan and an operand with ``p``
        output pixels.

        With the native library loaded and the plan's uint8 sign-split
        arrays present (B <= 8): ``cols`` (vectorised over pixels) when
        ``p >= 8``, else ``split`` (vectorised over the contraction).
        Otherwise the NumPy fallback.  Every kernel computes the same
        exact integer sums, so the choice only moves wall time.
        """
        ready = self._native_ready
        if ready is None:
            # memoized: the library load outcome is stable for the
            # process lifetime, and the per-call env check was hot.  A
            # later REPRO_NATIVE=0 still takes effect for correctness -
            # the kernel wrappers re-check and fall back to NumPy.
            ready = self._native_ready = native.native_available()
        if self.use_native and ready and plan.w_pos_mask is not None:
            return "cols" if p >= _COLS_MIN_P else "split"
        return "numpy"

    def _load_activations(
        self, plan: SconnaLayerPlan, cols: np.ndarray, kernel: str
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-call activation views from the pool: exact float64 for the
        BLAS term, low bits for the remainder term.  The ``split`` and
        NumPy kernels want the low bits transposed to ``(B, P, Q)``; the
        ``cols`` kernel consumes the native ``(B, Q, P)`` layout and so
        skips the transposed copy."""
        b, q, p = cols.shape
        if cols.dtype == np.float64 and cols.flags.c_contiguous:
            # the fused graph path gathers columns straight into a
            # float64 arena buffer: it already *is* the exact BLAS
            # operand (integer-valued, <= 2**B < 2**53), so skip the copy
            af = cols
        else:
            af = self.pool.get("af", (b, q, p), np.float64)
            np.copyto(af, cols)
        lo_dtype = plan.lo_dtype
        if kernel == "cols":
            a_lo = self.pool.get("a_lo_cols", (b, q, p), lo_dtype)
            np.copyto(a_lo, cols, casting="unsafe")
        else:
            a_lo = self.pool.get("a_lo", (b, p, q), lo_dtype)
            np.copyto(a_lo, cols.transpose(0, 2, 1), casting="unsafe")
        if plan.mask != (1 << (8 * lo_dtype.itemsize)) - 1:
            a_lo &= lo_dtype.type(plan.mask)
        return af, a_lo

    def _remainder(
        self,
        plan: SconnaLayerPlan,
        a_lo: np.ndarray,
        sl: slice,
        rem: np.ndarray,
        kernel: str,
    ) -> str:
        """Fill ``rem`` for the group ``sl`` with ``kernel`` (chosen by
        :meth:`_remainder_kernel`, which also fixed ``a_lo``'s layout)
        and return the kernel that ran: ``numpy`` when the native
        library was disabled after the choice was made."""
        if kernel != "numpy":
            run_native = (
                native.remainder_group_sums_cols
                if kernel == "cols"
                else native.remainder_group_sums_split
            )
            if run_native(
                a_lo, plan.w_mag_lo, plan.w_pos_mask,
                sl.start, sl.stop, plan.mask, rem,
            ):
                return kernel
            if kernel == "cols":
                # the fallback wants the (B, P, Q) row layout
                a_lo = a_lo.transpose(0, 2, 1)
        _remainder_fallback(a_lo, plan.w_lo, sl, plan.mask, rem)
        return "numpy"


def _remainder_fallback(
    a_lo: np.ndarray,
    w_lo: np.ndarray,
    sl: slice,
    mask: int,
    out: np.ndarray,
) -> None:
    """Pure-NumPy remainder reduction (chunked over output pixels).

    Broadcast-multiplies the low bits with natural wraparound (machine
    multiplication *is* modular), masks down to ``2**B``, and widens to
    int32 sums.  Chunked over the P axis so the intermediate stays
    cache-sized.
    """
    b, p, _ = a_lo.shape
    l2, qg = w_lo.shape[0], sl.stop - sl.start
    wl = w_lo[None, :, None, sl]
    lo_dtype = a_lo.dtype
    masked = mask != np.iinfo(lo_dtype).max
    chunk = max(1, _REM_CHUNK_ELEMS // max(1, b * l2 * qg))
    for ps in range(0, p, chunk):
        psl = slice(ps, min(ps + chunk, p))
        r = a_lo[:, None, psl, sl] * wl
        if masked:
            r &= lo_dtype.type(mask)
        # accumulate in int32 to match the buffer dtype: the sums are
        # bounded by group * mask < 2**31 (vector_path_supported), so
        # int32 cannot overflow and the assignment never wraps through
        # an unsigned intermediate.
        out[:, :, psl] = r.sum(axis=-1, dtype=np.int32)


def sconna_matmul_reference(
    cols: np.ndarray,
    w_flat: np.ndarray,
    precision_bits: int,
    group: int,
    error_model: SconnaErrorModel | None = None,
) -> np.ndarray:
    """The seed per-output-channel implementation: the test oracle.

    ``QuantizedModel.forward(..., fused=False)`` and models outside the
    vectorized engine's exactness envelope run it.  ``cols``: (B, Q, P)
    unsigned activations; ``w_flat``: (L, Q) signed weights.  Returns
    float (B, L, P) signed counts.  Each psum group's counts meet the
    error model as one stacked (B, 2L, P) array, positive rows first -
    the engine's order - so a seeded result equals
    :meth:`SconnaEngine.matmul` bit for bit.
    """
    b, q, p = cols.shape
    if w_flat.ndim != 2 or w_flat.shape[1] != q:
        raise ValueError(
            f"weights {w_flat.shape} do not match cols Q={q}"
        )
    l = w_flat.shape[0]
    shift = precision_bits
    w_mag = np.abs(w_flat)
    w_pos = w_flat > 0
    out = np.zeros((b, l, p), dtype=np.float64)
    for start in range(0, q, group):
        sl = slice(start, min(start + group, q))
        a_chunk = cols[:, sl, :]
        pos = np.empty((b, l, p), dtype=np.int64)
        neg = np.empty((b, l, p), dtype=np.int64)
        for li in range(l):
            prods = (a_chunk * w_mag[li, sl][None, :, None]) >> shift
            mask = w_pos[li, sl][None, :, None]
            pos[:, li, :] = (prods * mask).sum(axis=1)
            neg[:, li, :] = (prods * ~mask).sum(axis=1)
        if error_model is not None and not error_model.ideal():
            noisy = error_model.apply_to_counts(np.concatenate([pos, neg], axis=1))
            pos, neg = noisy[:, :l], noisy[:, l:]
        out += pos.astype(np.float64) - neg.astype(np.float64)
    return out
