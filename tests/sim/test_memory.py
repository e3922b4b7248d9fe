"""DeviceMemory accounting: attempt-stable allocation counting, guarded
frees, and exact used/peak/free bookkeeping under randomized interleavings
of alloc/free/evict (the substrate the §10 escalation ladder trusts).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceError
from repro.hardware import GTX_780
from repro.sim import AllocFailure, FaultPlan, SimNode
from repro.sim.memory import DeviceMemory
from repro.utils.rect import Rect


def mem(capacity=1 << 20, functional=True):
    return DeviceMemory(capacity, functional)


def rect(*shape):
    return Rect.from_shape(shape)


class TestAllocCounting:
    def test_every_attempt_counts(self):
        m = mem(capacity=100)
        m.allocate(0, rect(5, 5), np.uint8)  # 25 B, succeeds
        m.allocate(0, rect(0, 7), np.uint8)  # zero-size
        with pytest.raises(AllocationError):
            m.allocate(0, rect(50, 50), np.uint8)  # genuine OOM
        m.allocate(0, rect(2, 2), np.uint8)
        assert m.alloc_calls == 4

    def test_nth_targeting_is_stable_across_empty_and_oom_attempts(self):
        # The FaultPlan addresses "the nth allocation call". If zero-size
        # or overflowing attempts were invisible, the same plan would hit a
        # different allocation depending on data layout.
        def nth_seen_by_fault(mk_attempts):
            m = mem(capacity=100)
            seen = []
            m.fault_check = lambda device, nth: seen.append(nth)
            mk_attempts(m)
            return seen

        def with_noise(m):
            m.allocate(0, rect(0, 3), np.uint8)  # empty
            try:
                m.allocate(0, rect(200, 200), np.uint8)  # OOM
            except AllocationError:
                pass
            m.allocate(0, rect(2, 2), np.uint8)

        def without_noise(m):
            m.allocate(0, rect(2, 2), np.uint8)

        assert nth_seen_by_fault(with_noise) == [1, 2, 3]
        assert nth_seen_by_fault(without_noise) == [1]

    def test_injected_failure_still_counts_the_attempt(self):
        fp = FaultPlan(alloc_failures=[AllocFailure(device=0, nth_alloc=2)])
        node = SimNode(GTX_780, 1, functional=True, faults=fp)
        m = node.devices[0].memory
        m.allocate(0, rect(4), np.uint8)
        with pytest.raises(AllocationError) as ei:
            m.allocate(0, rect(4), np.uint8)
        assert ei.value.injected
        assert m.alloc_calls == 2
        m.allocate(0, rect(4), np.uint8)
        assert m.alloc_calls == 3


class TestGuardedFree:
    def test_double_free_of_tampered_flag_raises(self):
        m = mem()
        buf = m.allocate(0, rect(8), np.uint8)
        m.free(buf)
        buf.freed = False  # adversarial flag manipulation
        with pytest.raises(DeviceError, match="double free|foreign"):
            m.free(buf)
        assert m.used == 0  # no underflow

    def test_honest_repeated_free_is_noop(self):
        m = mem()
        buf = m.allocate(0, rect(8), np.uint8)
        m.free(buf)
        m.free(buf)  # recovery paths force-free defensively
        assert m.used == 0

    def test_foreign_buffer_free_raises(self):
        m0, m1 = mem(), mem()
        buf = m0.allocate(0, rect(8), np.uint8)
        with pytest.raises(DeviceError):
            m1.free(buf)
        assert m1.used == 0
        m0.free(buf)
        assert m0.used == 0

    def test_empty_buffer_free_is_trivial(self):
        m = mem()
        buf = m.allocate(0, rect(0, 4), np.uint8)
        m.free(buf)
        m.free(buf)
        assert m.used == 0


class TestFreeBytesAndLru:
    def test_free_bytes_tracks_used(self):
        m = mem(capacity=1000)
        assert m.free_bytes == 1000
        a = m.allocate(0, rect(10, 10), np.uint8)
        assert m.free_bytes == 900
        m.free(a)
        assert m.free_bytes == 1000

    def test_touch_orders_lru(self):
        m = mem()
        a = m.allocate(0, rect(4), np.uint8)
        b = m.allocate(0, rect(4), np.uint8)
        assert a.last_use < b.last_use
        m.touch(a)
        assert a.last_use > b.last_use


class TestAccountingProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_alloc_free_interleaving(self, seed):
        """Exact used/peak/free_bytes against a shadow model across a
        randomized (seeded, reproducible) alloc/free sequence — evictions
        are frees of still-live buffers, so they are the same operation at
        this layer."""
        rng = np.random.default_rng(seed)
        m = mem(capacity=4096, functional=bool(seed % 2))
        live: list = []
        shadow_used = 0
        shadow_peak = 0
        for _ in range(400):
            op = rng.random()
            if op < 0.55:
                shape = tuple(int(rng.integers(0, 9)) for _ in range(2))
                try:
                    buf = m.allocate(0, Rect.from_shape(shape), np.uint8)
                except AllocationError:
                    nbytes = shape[0] * shape[1]
                    assert shadow_used + nbytes > 4096
                    continue
                nbytes = shape[0] * shape[1]
                if nbytes:
                    live.append(buf)
                    shadow_used += nbytes
                    shadow_peak = max(shadow_peak, shadow_used)
            elif live:
                idx = int(rng.integers(len(live)))
                buf = live.pop(idx)
                m.free(buf)
                shadow_used -= buf.nbytes
            assert m.used == shadow_used
            assert m.peak == shadow_peak
            assert m.free_bytes == 4096 - shadow_used
        for buf in live:
            m.free(buf)
        assert m.used == 0
        assert m.free_bytes == 4096

    def test_memory_report_includes_free(self):
        node = SimNode(GTX_780, 2, functional=True)
        rep = node.memory_report()
        spec_bytes = GTX_780.global_memory_bytes
        for d in (0, 1):
            assert rep[d]["free"] == spec_bytes - rep[d]["used"]


class TestBufferView:
    """``DeviceBuffer.view`` memoizes each checked region's slices; its
    arrays and errors are those of plain indexing with the full checks."""

    @staticmethod
    def _buffer():
        m = mem()
        buf = m.allocate(0, Rect((-2, 6), (3, 9)), np.float32)
        buf.data[...] = np.arange(48, dtype=np.float32).reshape(8, 6)
        return m, buf

    def test_views_slice_like_plain_indexing(self):
        _, buf = self._buffer()
        for region in (
            buf.rect, Rect((-2, 0), (3, 9)), Rect((1, 6), (4, 7)),
            Rect((0, 0), (5, 5)),
        ):
            want = buf.data[
                region[0].begin + 2:region[0].end + 2,
                region[1].begin - 3:region[1].end - 3,
            ]
            for _ in range(2):  # built, then from the memo
                got = buf.view(region)
                assert np.shares_memory(got, buf.data) or got.size == 0
                np.testing.assert_array_equal(got, want)
                assert got.shape == want.shape

    def test_the_three_errors(self):
        m, buf = self._buffer()
        inside = Rect((0, 2), (4, 6))
        buf.view(inside)
        for _ in range(2):  # an outside region is never memoized
            with pytest.raises(DeviceError, match="outside buffer extent"):
                buf.view(Rect((0, 7), (4, 6)))
        timing = DeviceMemory(1 << 20, functional=False).allocate(
            0, Rect((0, 4)), np.float32
        )
        with pytest.raises(DeviceError, match="no functional data"):
            timing.view(Rect((0, 2)))
        freed = m.allocate(0, Rect((0, 4)), np.float32)
        freed.view(Rect((0, 2)))
        freed.freed = True  # as after free(), but with data still bound
        with pytest.raises(DeviceError, match="use after free"):
            freed.view(Rect((0, 2)))

    def test_memo_stays_bounded(self):
        _, buf = self._buffer()
        sizes = []
        for i in range(300):
            buf.view(Rect((-2, -2 + 1 + i % 8), (3 + i % 6, 9)))
            buf.view(Rect((i % 5, 6), (3, 4 + i % 5)))
            sizes.append(len(buf._slices))
        assert max(sizes) <= 64
