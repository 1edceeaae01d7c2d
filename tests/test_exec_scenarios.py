"""Tests for the cross-experiment scenario cache."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec.scenarios import (
    Scenario,
    ScenarioCache,
    ScenarioKey,
    connected_scenario,
    get_scenario_cache,
    scenario_positions,
)
from repro.geometry.area import Area


def _key(index=0, root=1):
    return ScenarioKey(n=20, degree=8.0, width=100.0, height=100.0,
                       torus=False, root=root, index=index)


class TestScenarioKey:
    def test_stream_is_a_pure_function_of_the_key(self):
        a = _key().seed_sequence().generate_state(4)
        b = _key().seed_sequence().generate_state(4)
        assert (a == b).all()

    def test_distinct_fields_give_distinct_streams(self):
        base = _key().seed_sequence().generate_state(4)
        for other in (_key(index=1), _key(root=2)):
            assert not (other.seed_sequence().generate_state(4) == base).all()


class TestScenarioCache:
    def test_same_key_returns_the_same_object(self):
        cache = ScenarioCache(maxsize=8)
        a = cache.get(_key())
        b = cache.get(_key())
        assert a is b
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_draw_is_deterministic_across_caches(self):
        a = ScenarioCache(maxsize=8).get(_key()).network
        b = ScenarioCache(maxsize=8).get(_key()).network
        assert a.graph.edges() == b.graph.edges()
        assert a.positions == b.positions

    def test_lru_bound_holds(self):
        cache = ScenarioCache(maxsize=2)
        for i in range(4):
            cache.get(_key(index=i))
        assert len(cache) == 2
        # The two most recent keys survive.
        assert cache.get(_key(index=3)) and cache.stats()["hits"] == 1

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioCache(maxsize=-1)

    def test_clear_resets_counters(self):
        cache = ScenarioCache(maxsize=4)
        cache.get(_key())
        cache.clear()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_clustering_is_memoized_per_scenario(self):
        scenario = ScenarioCache(maxsize=4).get(_key())
        assert scenario.clustering is scenario.clustering


class TestConnectedScenario:
    def test_default_cache_is_shared_across_callers(self):
        get_scenario_cache().clear()
        a = connected_scenario(20, 8.0, root=5, index=0)
        b = connected_scenario(20, 8.0, root=5, index=0)
        assert a is b

    def test_cross_experiment_pairing(self):
        """Two 'experiments' agreeing on (root, env, index) share samples."""
        fig_a = connected_scenario(20, 8.0, root=7, index=3).network
        fig_b = connected_scenario(20, 8.0, root=7, index=3).network
        assert fig_a is fig_b  # not merely equal: the same cached object

    def test_explicit_cache_and_bypass(self):
        mine = ScenarioCache(maxsize=4)
        s = connected_scenario(20, 8.0, root=1, cache=mine)
        assert len(mine) == 1
        off = ScenarioCache(maxsize=0)
        t = connected_scenario(20, 8.0, root=1, cache=off)
        assert len(off) == 0
        assert isinstance(s, Scenario) and isinstance(t, Scenario)
        assert s.network.graph.edges() == t.network.graph.edges()

    def test_samples_are_connected(self):
        from repro.graph.connectivity import is_connected

        s = connected_scenario(25, 6.0, root=9, index=2)
        assert is_connected(s.network.graph)


class TestScenarioPositions:
    def test_cached_and_read_only(self):
        area = Area(100.0, 100.0)
        a = scenario_positions(50, area, root=3)
        b = scenario_positions(50, area, root=3)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            a[0, 0] = 1.0

    def test_distinct_roots_distinct_draws(self):
        area = Area(100.0, 100.0)
        a = scenario_positions(50, area, root=3)
        c = scenario_positions(50, area, root=4)
        assert not np.array_equal(a, c)
