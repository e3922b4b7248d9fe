"""Replica autoscaler: hysteresis band, cooldown, idle-only shrink."""

from repro.serving import ReplicaAutoscaler


def mk(max_replicas=4, min_replicas=1, cooldown=0.0):
    """An autoscaler with its floor and cooldown set on the instance (no
    cooldown unless asked)."""
    a = ReplicaAutoscaler(max_replicas)
    a.min_replicas = min_replicas
    a.cooldown = cooldown
    return a


class TestHysteresis:
    def test_scales_up_above_the_band(self):
        a = mk()
        assert a.decide(0.0, depth=20, replicas=2, idle=0) == 1

    def test_scales_down_below_the_band_when_idle(self):
        a = mk()
        assert a.decide(0.0, depth=0, replicas=2, idle=1) == -1

    def test_holds_inside_the_band(self):
        # Backlog between the thresholds: no flapping in either direction.
        a = mk()
        for depth in (4, 8, 12):  # backlog 2..6 per replica at 2 replicas
            assert a.decide(0.0, depth=depth, replicas=2, idle=2) == 0
        assert a.events == []

    def test_no_flap_through_one_load_swing(self):
        # Ramp load up and back down: exactly one up and one down event,
        # not a decision per sample.
        a = mk()
        replicas = 1
        for t, depth in enumerate([0, 2, 20, 6, 6, 6, 0, 0]):
            replicas += a.decide(float(t), depth, replicas, idle=1)
        assert [e.action for e in a.events] == ["up", "down"]


class TestBounds:
    def test_never_exceeds_max(self):
        a = mk(max_replicas=2)
        assert a.decide(0.0, depth=100, replicas=2, idle=0) == 0

    def test_never_drops_below_min(self):
        a = mk(min_replicas=2)
        assert a.decide(0.0, depth=0, replicas=2, idle=2) == 0

    def test_shrink_requires_an_idle_replica(self):
        a = mk()
        assert a.decide(0.0, depth=0, replicas=3, idle=0) == 0


class TestCooldown:
    def test_cooldown_blocks_consecutive_actions(self):
        a = mk(cooldown=1.0)
        assert a.decide(0.0, depth=100, replicas=1, idle=0) == 1
        assert a.decide(0.5, depth=100, replicas=2, idle=0) == 0
        assert a.decide(1.0, depth=100, replicas=2, idle=0) == 1
        assert [(e.action, e.replicas) for e in a.events] == [
            ("up", 2),
            ("up", 3),
        ]
