"""Unit tests for the fault-spec vocabulary shared by the node and
cluster fault plans (link-fault counter, retry backoff, onset window),
and the retry, detector, rejoin and mitigation values the plans fix."""

import inspect
from dataclasses import dataclass

import pytest

from repro.cluster import ClusterFaultPlan, Partition, SlowLink
from repro.cluster import LinkFault as ClusterLinkFault
from repro.sim import FaultPlan, Straggler, TransferFault
from repro.utils.faultspec import (
    LinkFault,
    LinkFaultPlan,
    Window,
    link_matches,
)


def counter(*specs, rate=0.0, seed=0):
    return LinkFaultPlan(seed, list(specs), rate)


class TestLinkFault:
    def test_one_spec_under_both_public_names(self):
        assert TransferFault is LinkFault is ClusterLinkFault

    def test_link_matches_wildcards(self):
        assert link_matches(None, None, 3, 4)
        assert link_matches(3, None, 3, 4)
        assert link_matches(None, 4, 3, 4)
        assert not link_matches(4, 3, 3, 4)  # directed


class TestLinkFaultCounter:
    """The per-link counter every :class:`LinkFaultPlan` carries."""

    def test_nth_and_count(self):
        c = counter(LinkFault(nth=2, count=2))
        assert [c.link_fault_now(0, 1) for _ in range(5)] == [
            False, True, True, False, False,
        ]
        assert c.link_faults_fired == 2

    def test_shared_key_advances_once_per_dispatch(self):
        c = counter(LinkFault(0, 1, nth=1), LinkFault(0, 1, nth=3))
        assert [c.link_fault_now(0, 1) for _ in range(5)] == [
            True, False, True, False, False,
        ]
        assert c._link_counts == {(0, 1): 5}

    def test_exact_and_wildcard_keys_count_independently(self):
        c = counter(LinkFault(0, 1, nth=2), LinkFault(nth=4))
        fired = [c.link_fault_now(*link) for link in ((2, 3), (0, 1), (0, 1), (2, 3))]
        assert fired == [False, False, True, True]
        assert c._link_counts == {(0, 1): 2, (None, None): 4}

    def test_pending_until_every_spec_exhausted(self):
        c = counter(LinkFault(0, 1, nth=2, count=2), LinkFault(nth=1))
        assert c.link_faults_pending()
        c.link_fault_now(0, 1)  # (0, 1) count 1, wildcard exhausted
        c.link_fault_now(0, 1)  # (0, 1) count 2
        assert c.link_faults_pending()
        c.link_fault_now(0, 1)  # (0, 1) count 3 = its last faulting dispatch
        assert not c.link_faults_pending()
        c.link_fault_now(0, 1)
        assert not c.link_faults_pending()  # counts only grow

    def test_rate_keeps_it_pending_and_is_seed_deterministic(self):
        a, b = counter(rate=0.4, seed=3), counter(rate=0.4, seed=3)
        assert a.link_faults_pending()
        seq = [a.link_fault_now(0, 1) for _ in range(64)]
        assert seq == [b.link_fault_now(0, 1) for _ in range(64)]
        assert any(seq) and not all(seq)
        assert a.link_faults_fired == sum(seq)

    def test_empty_counter_is_unarmed(self):
        c = counter()
        state = c.rng.getstate()
        assert not any(c.link_fault_now(0, 1) for _ in range(8))
        assert not c.link_faults_pending()
        assert c.rng.getstate() == state and c._link_counts == {}

    @pytest.mark.parametrize("spec", [LinkFault(nth=0), LinkFault(count=0)])
    def test_rejects_nth_or_count_below_one(self, spec):
        with pytest.raises(ValueError, match="nth/count"):
            counter(spec)

    @pytest.mark.parametrize("rate", [-0.1, 1.0])
    def test_rejects_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="rate"):
            counter(rate=rate)


@dataclass(frozen=True)
class Span(Window):
    start: float = 0.0
    end: float | None = None


class TestWindow:
    def test_half_open(self):
        w = Span(1.0, 2.0)
        assert not w.covers(0.5)
        assert w.covers(1.0) and w.covers(1.5)
        assert not w.covers(2.0)
        assert not w.healed(1.5) and w.healed(2.0)

    def test_open_ended_never_heals(self):
        w = Span(1.0)
        assert w.covers(1e9) and not w.healed(1e9)

    def test_rejects_inverted(self):
        Span(1.0, 1.0).check_window()  # empty window is allowed
        with pytest.raises(ValueError, match="start <= end"):
            Span(2.0, 1.0).check_window()

    def test_shared_by_every_windowed_spec(self):
        for spec in (
            Straggler(0, 2.0, start=1.0, end=2.0),
            SlowLink(factor=2.0, start=1.0, end=2.0),
            Partition(groups=((0,), (1,)), start=1.0, end=2.0),
        ):
            assert isinstance(spec, Window)
            assert [spec.covers(t) for t in (0.5, 1.0, 2.0)] == [
                False, True, False,
            ]


class TestLinkFaultPlan:
    def test_backoff_is_capped_exponential(self):
        p = counter()
        p.retry_base, p.retry_cap = 1e-5, 3e-5
        assert [p.backoff(a) for a in (1, 2, 3)] == [1e-5, 2e-5, 3e-5]


#: The retry, detector, rejoin and mitigation values each plan fixes.
#: No bench scenario bans a node, flaps one twice or slows a link while
#: mitigating, so the byte-identical BENCH files would not catch a
#: changed value; this table does.
POLICY = [
    (FaultPlan, "retry_base", 1e-5),
    (FaultPlan, "retry_cap", 1e-3),
    (FaultPlan, "max_retries", 8),
    (FaultPlan, "watchdog_patience", 2.0),
    (FaultPlan, "hedge_patience", 2.0),
    (FaultPlan, "max_speculations", 8),
    (FaultPlan, "rebalance_threshold", 0.25),
    (FaultPlan, "ewma_alpha", 0.8),
    (ClusterFaultPlan, "retry_base", 5e-5),
    (ClusterFaultPlan, "retry_cap", 2e-3),
    (ClusterFaultPlan, "max_retries", 6),
    (ClusterFaultPlan, "ack_timeout", 2e-4),
    (ClusterFaultPlan, "heartbeat_interval", 5e-4),
    (ClusterFaultPlan, "heartbeat_timeout", 2e-4),
    (ClusterFaultPlan, "miss_threshold", 3),
    (ClusterFaultPlan, "probation_interval", 2e-3),
    (ClusterFaultPlan, "rejoin_base", 5e-4),
    (ClusterFaultPlan, "rejoin_cap", 4e-3),
    (ClusterFaultPlan, "max_flaps", 3),
]


class TestPolicyValues:
    @pytest.mark.parametrize(
        "cls, name, value", POLICY,
        ids=[f"{cls.__name__}.{name}" for cls, name, _ in POLICY],
    )
    def test_value_is_a_class_attribute(self, cls, name, value):
        attr = getattr(cls(), name)
        assert attr == value and type(attr) is type(value)
        assert name not in inspect.signature(cls).parameters

    def test_plans_take_faults_not_tunables(self):
        assert list(inspect.signature(LinkFaultPlan).parameters) == [
            "seed", "specs", "rate",
        ]
        assert len(inspect.signature(FaultPlan).parameters) == 7
        assert len(inspect.signature(ClusterFaultPlan).parameters) == 11
