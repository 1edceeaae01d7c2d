"""Tests for the runtime fault injector."""

import pytest

from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, assert_graph_untouched
from repro.faults.schedule import (
    DuplicationWindow,
    FaultSchedule,
    LinkDown,
    LinkUp,
    LossWindow,
    NodeDown,
    NodeUp,
    Partition,
    apply_schedule,
    random_schedule,
)
from repro.graph.adjacency import Graph
from repro.graph.generators import random_geometric_network
from repro.sim.messages import Hello
from repro.sim.network import SimNetwork


def line_network():
    """0 - 1 - 2 - 3 with a spur 1 - 4."""
    return SimNetwork(Graph(edges=[(0, 1), (1, 2), (2, 3), (1, 4)]))


def heard(net: SimNetwork):
    """Attach counters; returns {receiver: [senders...]}."""
    log = {v: [] for v in net.graph.nodes()}
    for node in net:
        node.replace_handler(Hello,
                             lambda n, s, m: log[n.id].append(s))
    return log


class TestAttachment:
    def test_attaches_to_medium(self):
        net = line_network()
        injector = FaultInjector(net)
        assert net.medium.fault_hook is injector

    def test_double_attach_rejected(self):
        net = line_network()
        FaultInjector(net)
        with pytest.raises(SimulationError, match="already has a fault hook"):
            FaultInjector(net)

    def test_detach_restores_ideal_medium(self):
        net = line_network()
        injector = FaultInjector(net)
        injector.crash(1)
        net.medium.fault_hook = None
        log = heard(net)
        net.node(1).send(Hello(origin=1))
        net.run_phase()
        assert log[0] == [1] and log[2] == [1] and log[4] == [1]


class TestNodeFaults:
    def test_crashed_node_neither_sends_nor_receives(self):
        net = line_network()
        injector = FaultInjector(net)
        log = heard(net)
        injector.crash(1)
        net.node(1).send(Hello(origin=1))   # suppressed
        net.node(0).send(Hello(origin=0))   # 1 is deaf
        net.node(2).send(Hello(origin=2))   # 1 is deaf, 3 hears
        net.run_phase()
        assert all(not senders for v, senders in log.items() if v != 3)
        assert log[3] == [2]
        assert injector.suppressed_sends == 1
        assert injector.blocked_by_node == 2

    def test_crashed_sender_not_traced(self):
        net = line_network()
        injector = FaultInjector(net)
        injector.crash(1)
        net.node(1).send(Hello(origin=1))
        net.run_phase()
        assert net.trace.total_messages == 0

    def test_recovery_restores_both_directions(self):
        net = line_network()
        injector = FaultInjector(net)
        injector.crash(1)
        injector.recover(1)
        log = heard(net)
        net.node(1).send(Hello(origin=1))
        net.node(0).send(Hello(origin=0))
        net.run_phase()
        assert log[2] == [1] and 0 in log[1]
        assert injector.is_up(1)
        assert injector._down == set()

    def test_crash_unknown_node_rejected(self):
        with pytest.raises(SimulationError, match="unknown node"):
            FaultInjector(line_network()).crash(99)


class TestLinkFaults:
    def test_cut_link_blocks_both_directions(self):
        net = line_network()
        injector = FaultInjector(net)
        injector.cut_link(1, 2)
        log = heard(net)
        net.node(1).send(Hello(origin=1))
        net.node(2).send(Hello(origin=2))
        net.run_phase()
        assert 1 not in log[2] and 2 not in log[1]
        assert log[0] == [1] and log[3] == [2]
        assert injector.blocked_by_link == 2
        assert (1, 2) in injector._cut

    def test_restore_link(self):
        net = line_network()
        injector = FaultInjector(net)
        injector.cut_link(1, 2)
        injector.restore_link(2, 1)  # order-insensitive
        log = heard(net)
        net.node(1).send(Hello(origin=1))
        net.run_phase()
        assert 1 in log[2]

    def test_partition_and_heal(self):
        net = line_network()
        injector = FaultInjector(net)
        cut = injector.partition({2, 3})
        assert cut == frozenset({(1, 2)})
        log = heard(net)
        net.node(1).send(Hello(origin=1))
        net.run_phase()
        assert 1 not in log[2]
        injector.heal(cut)
        net.node(1).send(Hello(origin=1))
        net.run_phase()
        assert 1 in log[2]

    def test_partition_does_not_steal_existing_cuts(self):
        net = line_network()
        injector = FaultInjector(net)
        injector.cut_link(1, 2)
        cut = injector.partition({2, 3})
        assert cut == frozenset()  # the boundary link was already down
        injector.heal(cut)
        assert injector._cut == {(1, 2)}


class TestWindows:
    def test_loss_window_drops_and_pop_restores(self):
        g = Graph(edges=[(0, i) for i in range(1, 101)])
        net = SimNetwork(g)
        injector = FaultInjector(net, rng=0)
        log = heard(net)
        injector.push_loss(0.5)
        net.node(0).send(Hello(origin=0))
        net.run_phase()
        lost = sum(1 for v in g.nodes() if v != 0 and not log[v])
        assert 20 < lost < 80
        assert injector.window_losses == lost
        injector.pop_loss(0.5)
        net.node(0).send(Hello(origin=0))
        net.run_phase()
        assert all(log[v] for v in g.nodes() if v != 0)

    def test_duplication_window_delivers_twice(self):
        g = Graph(edges=[(0, i) for i in range(1, 101)])
        net = SimNetwork(g)
        injector = FaultInjector(net, rng=0)
        log = heard(net)
        injector.push_duplication(1.0)
        net.node(0).send(Hello(origin=0))
        net.run_phase()
        assert all(log[v] == [0, 0] for v in g.nodes() if v != 0)
        assert injector.duplications == 100

    def test_bad_probability_rejected(self):
        injector = FaultInjector(line_network())
        with pytest.raises(SimulationError):
            injector.push_loss(-0.2)
        with pytest.raises(SimulationError):
            injector.push_duplication(1.2)


class TestScheduleCompilation:
    def test_faults_precede_same_time_deliveries(self):
        # 0 transmits at t=0 (delivery at t=1); node 2 crashes at t=1.
        # The crash event's empty priority sorts before the delivery's
        # (sender, receiver) priority, so the delivery is blocked.
        net = SimNetwork(Graph(edges=[(0, 2)]))
        injector = FaultInjector(net)
        apply_schedule(FaultSchedule([NodeDown(time=1.0, node=2)]), injector)
        log = heard(net)
        net.sim.schedule(0.0, lambda: net.node(0).send(Hello(origin=0)))
        net.run_phase()
        assert log[2] == []

    def test_full_schedule_lifecycle(self):
        net = line_network()
        injector = FaultInjector(net, rng=1)
        apply_schedule(FaultSchedule([
            NodeDown(time=1.0, node=3),
            NodeUp(time=2.0, node=3),
            LinkDown(time=1.0, u=0, v=1),
            LinkUp(time=2.0, u=0, v=1),
            Partition(time=1.0, nodes=frozenset({4}), duration=1.0),
            LossWindow(time=1.0, probability=0.5, duration=1.0),
            DuplicationWindow(time=1.0, probability=0.5, duration=1.0),
        ]), injector)
        net.run_phase()
        # Past the horizon every transient fault has cleared.
        assert injector._down == set() and injector._cut == set()
        assert injector._loss == [] and injector._dup == []

    def test_schedule_validated_against_network(self):
        from repro.errors import ConfigurationError

        net = line_network()
        injector = FaultInjector(net)
        with pytest.raises(ConfigurationError, match="unknown node"):
            apply_schedule(FaultSchedule([NodeDown(time=0.0, node=77)]),
                           injector)


class TestDeterminismAndPurity:
    def test_injector_never_mutates_graph(self):
        """Property test: a heavy random fault run leaves the Graph intact."""
        network = random_geometric_network(35, 8.0, rng=5)
        graph = network.graph
        before, _ = graph.adjacency_matrix()
        edges_before = graph.edges()
        net = SimNetwork(graph)
        injector = FaultInjector(net, rng=6)
        schedule = random_schedule(
            graph, crash_fraction=0.3, recovery_fraction=0.5,
            link_flap_fraction=0.3, loss_windows=2, duplication_windows=2,
            rng=7,
        )
        apply_schedule(schedule, injector)
        heard(net)
        for v in graph.nodes():
            net.sim.schedule(float(v % 5), lambda v=v:
                             net.node(v).send(Hello(origin=v)))
        net.run_phase()
        assert_graph_untouched(before, net)
        assert graph.edges() == edges_before
        net.medium.fault_hook = None
        assert_graph_untouched(before, net)

    def test_same_seed_identical_trace(self):
        def run(seed: int):
            network = random_geometric_network(30, 8.0, rng=4)
            net = SimNetwork(network.graph, loss_probability=0.2, rng=seed)
            injector = FaultInjector(net, rng=seed + 1)
            apply_schedule(random_schedule(
                network.graph, crash_fraction=0.2, loss_windows=1, rng=9,
            ), injector)
            log = heard(net)
            for v in network.graph.nodes():
                net.sim.schedule(0.0, lambda v=v:
                                 net.node(v).send(Hello(origin=v)),
                                 priority=(v,))
            net.run_phase()
            trace = [(e.time, e.sender) for e in net.trace.entries]
            return trace, {v: tuple(s) for v, s in log.items()}

        assert run(11) == run(11)
        assert run(11) != run(12)
