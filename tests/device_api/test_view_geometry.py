"""Count gates on the window-geometry table (``device_api/views.py``).

A steady functional kernel call builds no index map and no geometry:
once one lease of each ``jobserver_openloop`` kind has run, later leases
only look their views' geometry up. The table stays within its bound
however many geometries pass through it, and a geometry that raises is
not cached.
"""

import numpy as np
import pytest

from repro.device_api import views
from repro.device_api.views import WindowView
from repro.errors import DeviceError
from repro.patterns import Boundary, WindowND
from repro.core.datum import from_array
from repro.server import (
    GoLWorkload,
    HistogramWorkload,
    JobServer,
    JobSpec,
    SgemmWorkload,
    TenantQuota,
)
from repro.sim.memory import DeviceBuffer
from repro.utils.rect import Rect

KINDS = (GoLWorkload, HistogramWorkload, SgemmWorkload)
QUOTAS = {"t0": TenantQuota(share=2.0), "t1": TenantQuota(share=1.0),
          "t2": TenantQuota(share=1.0)}


@pytest.fixture
def builds(monkeypatch):
    """Counts index-map builds; geometry builds are the table's misses."""
    counts = {"maps": 0}
    build = views._index_map

    def counting(*args, **kw):
        counts["maps"] += 1
        return build(*args, **kw)

    monkeypatch.setattr(views, "_index_map", counting)
    return counts


def server(jobs):
    """A ``jobserver_openloop``-shaped server: 16x16 boards, 1 and 2 GPUs,
    three tenants with shares 2/1/1, a 2e-4 s time slice."""
    srv = JobServer(functional=True, time_slice=2e-4, quotas=QUOTAS)
    for i, (kind, iters, gpus, arrival, seed) in enumerate(jobs):
        srv.submit(JobSpec(
            KINDS[kind](size=16, iterations=iters, seed=seed),
            tenant=f"t{i % 3}", name=f"job{i}", gpus=gpus, arrival=arrival,
        ))
    return srv


def test_steady_leases_build_no_geometry(builds):
    warm = server([
        (kind, 2, gpus, 0.0, 0) for kind in range(3) for gpus in (1, 2)
    ])
    warm.run()
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(4e-4, 300))
    srv = server([
        (int(rng.integers(3)), 16 if rng.random() < 0.1 else 2,
         int(rng.integers(1, 3)), float(arrivals[i]),
         int(rng.integers(2**31 - 1)))
        for i in range(300)
    ])
    before = views._geometry.cache_info()
    builds["maps"] = 0
    leases = 0
    while leases < 200 and srv.step() is not None:
        leases += 1
    after = views._geometry.cache_info()
    assert leases == 200
    assert after.misses == before.misses
    assert builds["maps"] == 0
    # GoL and histogram leases did build views.
    assert after.hits - before.hits > 200


def test_table_stays_within_its_bound(builds):
    rng = np.random.default_rng(1)
    before = views._geometry.cache_info()
    assert before.maxsize == views._GEOMETRIES == 256
    for _ in range(10_000):
        ndim = int(rng.integers(1, 3))
        shape = tuple(int(rng.integers(1, 65)) for _ in range(ndim))
        work_rect = Rect(*[
            (b, int(rng.integers(b + 1, n + 1)))
            for n in shape for b in [int(rng.integers(0, n))]
        ])
        views._geometry(
            tuple(int(rng.integers(0, 3)) for _ in range(ndim)),
            list(Boundary)[int(rng.integers(4))], shape, shape, work_rect,
            Rect(*[(-2, n + 2) for n in shape]),
        )
        assert views._geometry.cache_info().currsize <= views._GEOMETRIES
    assert views._geometry.cache_info().misses - before.misses > 9_000
    assert builds["maps"] > 9_000


def test_geometry_without_backing_data_is_not_cached(builds):
    data = np.arange(64, dtype=np.int32).reshape(8, 8)
    c = WindowND(from_array(data, "m"), 1, Boundary.CLAMP)
    buf = DeviceBuffer(0, Rect((0, 4), (0, 8)), data.dtype, data[:4].copy())
    work_rect = Rect((0, 4), (0, 8))
    for attempt in range(2):
        before = views._geometry.cache_info()
        with pytest.raises(DeviceError, match="has no backing data"):
            WindowView(c, buf, (8, 8), work_rect)
        after = views._geometry.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    # With the halo held, the geometry builds once and is then kept.
    buf.rect = Rect((0, 5), (0, 8))
    buf.data = data[:5].copy()
    WindowView(c, buf, (8, 8), work_rect)
    WindowView(c, buf, (8, 8), work_rect)
    assert views._geometry.cache_info().hits == after.hits + 1
