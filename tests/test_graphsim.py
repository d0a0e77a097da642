"""Event-driven network simulation: bookkeeping, invariants, determinism."""

import dataclasses
import hashlib
import multiprocessing
import os
import sys

import numpy as np
import pytest
from scipy import stats

from degreeflow import graphsim
from degreeflow.errors import AbsorbingStateReached, ValidationError, WorkerError
from degreeflow.graphsim import Network, SimConfig, _Stream, run
from degreeflow.model import ProcessRates

FIG2 = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=0,
                    n_d=1, n_r=1, n_p=1, m=3)
FIG6 = ProcessRates(omega_r=0, omega_p=1, l_d=1, l_r=0, l_p=1,
                    n_d=1, n_r=0, n_p=0, m=3)


def step(net, rates, stream):
    """One Gillespie event in place: (elapsed time, executed flag)."""
    dt, idx = graphsim._draw(net, rates, stream)
    return dt, graphsim._execute(net, idx, rates, stream)


def stream(seed):
    return _Stream(np.random.default_rng(seed))


def check(net):
    """Assert the network's internal invariants."""
    assert len(net._nodes) == len(net.adj) == len(net._node_pos)
    for u, pos in net._node_pos.items():
        assert net._nodes[pos] == u
    deg_sum = 0
    for u, nbrs in net.adj.items():
        assert u not in nbrs, "self-link"
        deg_sum += len(nbrs)
        for v in nbrs:
            assert u in net.adj[v], "asymmetric adjacency"
    assert deg_sum == 2 * len(net._edges)
    assert len(net._edges) == len(net._edge_pos)
    for key, pos in net._edge_pos.items():
        assert net._edges[pos] == key
        assert key[0] < key[1]


def test_ring_construction():
    net = Network.regular_ring(10, 2)
    assert net.n_nodes == 10
    assert net.n_edges == 10
    counts = net.degree_counts(4)
    assert counts[2] == 10 and counts.sum() == 10
    check(net)


def test_manual_edge_bookkeeping():
    net = Network.empty(0)
    a = net.add_node()
    b = net.add_node()
    c = net.add_node()
    net.add_edge(a, b)
    net.add_edge(b, c)
    assert net.n_edges == 2
    assert net.degree(b) == 2
    assert net.has_edge(a, b) and not net.has_edge(a, c)
    net.remove_edge(a, b)
    assert net.n_edges == 1
    assert net.degree(a) == 0
    check(net)


def test_remove_node_drops_incident_edges():
    net = Network.regular_ring(6, 2)
    victim = 0
    k = net.degree(victim)
    net.remove_node(victim)
    assert net.n_nodes == 5
    assert net.n_edges == 6 - k
    check(net)


def test_erdos_renyi_sane():
    rng = np.random.default_rng(1)
    net = Network.erdos_renyi(300, 3.0, rng)
    check(net)
    assert net.n_nodes == 300
    mean_deg = 2.0 * net.n_edges / net.n_nodes
    assert 2.4 < mean_deg < 3.6


def test_empirical_distribution():
    net = Network.regular_ring(10, 2)
    np.testing.assert_allclose(net.degree_counts(5) / net.n_nodes, [0, 0, 1, 0, 0, 0], atol=0)


def test_zero_rates_absorb():
    net = Network.regular_ring(8, 2)
    draws = stream(0)
    with pytest.raises(AbsorbingStateReached):
        step(net, ProcessRates(0, 0, 0, 0, 0, 0, 0, 0, 0), draws)


def test_rewiring_conserves_counts():
    draws = stream(2)
    rates = ProcessRates(omega_r=2, omega_p=1, l_d=0, l_r=0, l_p=0,
                         n_d=0, n_r=0, n_p=0, m=0)
    net = Network.regular_ring(30, 4)
    for _ in range(300):
        dt, _ = step(net, rates, draws)
        assert dt > 0
    assert net.n_edges == 60
    assert net.n_nodes == 30
    check(net)


def test_link_deletion_strictly_drains():
    draws = stream(3)
    rates = ProcessRates(0, 0, 1, 0, 0, 0, 0, 0, 0)
    net = Network.regular_ring(12, 2)
    seen = [net.n_edges]
    for _ in range(12):
        step(net, rates, draws)
        seen.append(net.n_edges)
    assert seen == list(range(12, -1, -1))
    check(net)


def test_node_creation_adds_m_edges():
    draws = stream(4)
    rates = ProcessRates(0, 0, 0, 0, 0, 0, 1, 0, 3)
    net = Network.regular_ring(10, 2)
    for i in range(5):
        step(net, rates, draws)
        assert net.n_nodes == 11 + i
        assert net.n_edges == 10 + 3 * (i + 1)
    check(net)


def test_node_deletion_shrinks():
    draws = stream(5)
    rates = ProcessRates(0, 0, 0, 0, 0, 1, 0, 0, 0)
    net = Network.regular_ring(10, 2)
    step(net, rates, draws)
    assert net.n_nodes == 9
    check(net)


def test_mixed_dynamics_keeps_invariants():
    draws = stream(6)
    net = Network.regular_ring(50, 2)
    for _ in range(500):
        step(net, FIG2, draws)
    check(net)
    assert net.n_nodes > 0


def test_run_is_deterministic():
    cfg = SimConfig(rates=FIG2, n_nodes=200, sample_times=(0.05, 0.1),
                    seed=11, replicas=3, graph="regular", graph_degree=2.0,
                    k_max=30)
    a = run(cfg)
    b = run(cfg)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stderr, b.stderr)
    assert a.mean.shape == (2, 31)


# run forks where the fork start method exists and CPython is older than
# 3.12, which warns when it forks a process holding threads; elsewhere it
# stays serial, so a test that forces worker processes has nothing to test
FORKS = sys.version_info < (3, 12) and "fork" in multiprocessing.get_all_start_methods()


def with_workers(monkeypatch, n):
    if n > 1 and not FORKS:
        pytest.skip("run never forks here")
    monkeypatch.setattr(graphsim, "_workers", lambda replicas: n)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rates, graph, events, digest", [
    (FIG2, "regular", (233, 239, 134, 96, 0, 269, 95, 126),
     "43fd28fe2eab8c765f08b45d81bba1497dbf9cc28a8109718b522f244b4506f3"),
    (FIG6, "erdos", (0, 181, 106, 0, 115, 166, 0, 0),
     "be328a4bbab9a2a7b5cc23632f8522613d2623805c0f5c2946beeeb53bd4e693"),
])
def test_seeded_run_is_pinned_bit_for_bit(monkeypatch, rates, graph, events, digest, workers):
    # the event counts and the sha256 of the mean histograms' bytes fix
    # which uniform feeds which choice: a rewrite of the event loop that
    # reorders, adds or drops a draw changes them
    with_workers(monkeypatch, workers)
    cfg = SimConfig(rates=rates, n_nodes=200, sample_times=(0.0, 0.1, 0.2),
                    seed=7, replicas=3, graph=graph, graph_degree=2.0, k_max=30)
    res = run(cfg)
    assert res.events == events
    assert res.skips == (0,) * 8
    assert hashlib.sha256(res.mean.tobytes()).hexdigest() == digest


def fields(res):
    """Every SimResult field, arrays as (dtype, shape, bytes)."""
    out = {}
    for f in dataclasses.fields(res):
        v = getattr(res, f.name)
        out[f.name] = (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
    return out


@pytest.mark.parametrize("cfg", [
    SimConfig(rates=FIG2, n_nodes=200, sample_times=(0.0, 0.1, 0.2), seed=5,
              replicas=4, graph="regular", graph_degree=2.0, k_max=30),
    SimConfig(rates=FIG6, n_nodes=200, sample_times=(0.0, 0.1, 0.2), seed=5,
              replicas=4, graph="erdos", graph_degree=2.0, k_max=30),
    SimConfig(rates=ProcessRates(0, 0, 0, 0, 0, 0, 0, 0, 0), n_nodes=40,
              sample_times=(0.1, 0.2), seed=3, replicas=2, graph="regular",
              graph_degree=2.0, k_max=10),
    SimConfig(rates=ProcessRates(l_r=1, n_d=0.2), n_nodes=6, sample_times=(0.5,),
              seed=4, replicas=2, graph="erdos", graph_degree=5.0, k_max=10),
    SimConfig(rates=FIG2, n_nodes=100, sample_times=(0.05, 0.1), seed=9,
              replicas=3, graph="regular", graph_degree=4.0, k_max=20),
], ids=["fig2-ring", "fig6-erdos", "absorbing", "complete-graph-skips", "uneven-shares"])
def test_results_do_not_depend_on_the_process_count(monkeypatch, cfg):
    results = []
    for n in (1, 2, 3):
        with_workers(monkeypatch, n)
        results.append(fields(run(cfg)))
    assert results[1] == results[0]
    assert results[2] == results[0]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_share_raises_as_in_a_serial_run(monkeypatch, failing):
    # failing = 1 fails in the child's share, failing = 0 in the calling
    # process's own share, while the child is still running
    replica = graphsim._replica

    def fail_at(config, r, seed):
        if r == failing:
            raise ValidationError(f"replica {r} failed")
        return replica(config, r, seed)

    monkeypatch.setattr(graphsim, "_replica", fail_at)
    cfg = SimConfig(rates=FIG2, n_nodes=200, sample_times=(0.05, 0.1), seed=11,
                    replicas=2, graph="regular", graph_degree=2.0, k_max=30)
    raised = []
    for n in (1, 2):
        with_workers(monkeypatch, n)
        with pytest.raises(ValidationError) as info:
            run(cfg)
        raised.append((info.type, str(info.value)))
        assert multiprocessing.active_children() == []
    assert raised[1] == raised[0] == (ValidationError, f"replica {failing} failed")


def test_a_worker_that_dies_without_sending_is_a_package_error(monkeypatch):
    # a child killed before it sends (the OOM killer, or a result that
    # cannot be pickled) must not surface as a bare EOFError
    with_workers(monkeypatch, 2)
    monkeypatch.setattr(graphsim, "_child", lambda *args: os._exit(1))
    cfg = SimConfig(rates=FIG2, n_nodes=200, sample_times=(0.05, 0.1), seed=11,
                    replicas=2, graph="regular", graph_degree=2.0, k_max=30)
    with pytest.raises(WorkerError, match="replicas 1-1 exited with code 1"):
        run(cfg)
    assert multiprocessing.active_children() == []


def test_run_inside_a_pool_worker_stays_serial(monkeypatch):
    # a Pool worker is daemonic and may not start children: run must not
    # try, and must give the serial result
    if not FORKS:
        pytest.skip("run never forks here")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = SimConfig(rates=FIG2, n_nodes=200, sample_times=(0.05, 0.1), seed=11,
                    replicas=2, graph="regular", graph_degree=2.0, k_max=30)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply(run, (cfg,))
    with_workers(monkeypatch, 1)
    assert fields(pooled) == fields(run(cfg))


def test_preferential_rewiring_of_the_only_link_is_skipped():
    # removing the only link leaves no endpoint to pick a degree-biased
    # target from: the link is restored and the event counts as skipped
    net = Network.empty(3)
    net.add_edge(0, 1)
    dt, executed = step(net, ProcessRates(omega_p=1), stream(5))
    assert not executed and dt > 0
    assert net.n_edges == 1 and net.has_edge(0, 1)
    check(net)


def test_run_frozen_when_absorbed():
    cfg = SimConfig(rates=ProcessRates(0, 0, 0, 0, 0, 0, 0, 0, 0),
                    n_nodes=40, sample_times=(0.1, 0.2), seed=3, replicas=2,
                    graph="regular", graph_degree=2.0, k_max=10)
    res = run(cfg)
    assert all(res.absorbed)
    assert res.skipped == 0
    for j in range(2):
        np.testing.assert_allclose(res.mean[j][2], 1.0)
        np.testing.assert_allclose(res.mean[j].sum(), 1.0)


def test_run_tracks_growth():
    # node creation dominates: the network must grow on average
    rates = ProcessRates(0, 0, 0, 0, 0, 0, 1, 0, 2)
    cfg = SimConfig(rates=rates, n_nodes=100, sample_times=(0.5,), seed=8,
                    replicas=3, graph="regular", graph_degree=2.0, k_max=40)
    res = run(cfg)
    assert res.mean_nodes[0] > 100


class _TopGenerator:
    """Stand-in Generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


def test_stream_index_stays_below_n_at_the_top_uniform():
    top = _Stream(_TopGenerator())
    for n in (1, 2, 3, 7, 10, 1000, 2**31 - 1, 2**52 + 1, 2**53):
        assert 0 <= top.below(n) < n


def test_draw_at_the_top_uniform_picks_a_live_process():
    # clocks (0, 0, 0, 0, 115 - 1ulp, 140, 0, 0): subtracting them one by one
    # from the top pick rounds short of zero, and the last two clocks are dead
    rates = ProcessRates(l_p=2.3, n_d=1.4)
    dt, idx = graphsim._draw(Network.regular_ring(50, 2), rates, _Stream(_TopGenerator()))
    assert idx == 5
    assert np.isfinite(dt) and dt > 0


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_stream_index_is_uniform(n):
    draws = stream(21)
    counts = np.bincount([draws.below(n) for _ in range(20000)], minlength=n)
    assert counts.size == n
    assert stats.chisquare(counts).pvalue > 1e-3


def test_draw_picks_processes_in_proportion_to_their_clocks():
    rates = ProcessRates(omega_r=1, omega_p=2, l_d=0.5, l_r=1.5, l_p=3,
                         n_d=0.25, n_r=2.5, n_p=0.75, m=2)
    net = Network.regular_ring(50, 4)
    lam = np.array(graphsim._clocks(net, rates))
    assert np.all(lam > 0)
    draws = stream(22)
    picks = [graphsim._draw(net, rates, draws) for _ in range(40000)]
    counts = np.bincount([idx for _, idx in picks], minlength=8)
    assert stats.chisquare(counts, counts.sum() * lam / lam.sum()).pvalue > 1e-3
    # waiting times are exponential with mean 1/total
    waits = np.array([dt for dt, _ in picks])
    assert abs(waits.mean() * lam.sum() - 1.0) < 5.0 / np.sqrt(waits.size)


def test_run_draws_once_per_counted_event(monkeypatch, tmp_path):
    # every process that draws appends the event's index as one byte to the
    # same O_APPEND file, so draws made in forked workers are counted too
    log = tmp_path / "draws"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    draw = graphsim._draw

    def counting(*args):
        out = draw(*args)
        os.write(fd, bytes([out[1]]))
        return out

    monkeypatch.setattr(graphsim, "_draw", counting)
    cfg = SimConfig(rates=FIG2, n_nodes=200, sample_times=(0.05, 0.1),
                    seed=11, replicas=2, graph="regular", graph_degree=2.0,
                    k_max=30)
    try:
        res = run(cfg)
    finally:
        os.close(fd)
    calls = list(log.read_bytes())
    assert len(calls) == sum(res.events) > 0
    assert res.events == tuple(np.bincount(calls, minlength=8))
    assert res.skipped == sum(res.skips)


def test_run_counts_skips_per_process():
    # no link fits into a complete graph, and deleting a node leaves the
    # graph complete: every link addition is skipped, no node deletion is
    rates = ProcessRates(l_r=1, n_d=0.2)
    cfg = SimConfig(rates=rates, n_nodes=6, sample_times=(0.5,), seed=4,
                    replicas=2, graph="erdos", graph_degree=5.0, k_max=10)
    res = run(cfg)
    assert res.events[3] > 0 and res.events[5] > 0
    assert res.skips == (0, 0, 0, res.events[3], 0, 0, 0, 0)
    assert res.skipped == res.events[3]


def test_config_rejects_non_finite_sample_times():
    # NaN fails every ordering test, so it must be refused by name; a NaN
    # sample time would leave run() waiting for a time it never reaches
    for times in ((0.05, float("nan")), (float("nan"),), (0.05, float("inf"))):
        with pytest.raises(ValidationError):
            SimConfig(rates=FIG2, n_nodes=50, sample_times=times, seed=1)


@pytest.mark.parametrize("graph", ["regular", "erdos"])
@pytest.mark.parametrize("degree", [float("nan"), float("inf")])
def test_config_rejects_non_finite_graph_degree(graph, degree):
    with pytest.raises(ValidationError):
        SimConfig(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1,
                  graph=graph, graph_degree=degree)


@pytest.mark.parametrize("name, value", [
    ("seed", -1), ("seed", 1.5), ("n_nodes", 2.5), ("replicas", 2.5), ("k_max", 3.5),
])
def test_config_rejects_what_run_cannot_take(name, value):
    # each of these used to pass the config and fail in run with a raw
    # ValueError or TypeError, possibly inside a worker process
    kwargs = dict(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1)
    kwargs[name] = value
    with pytest.raises(ValidationError, match=name):
        SimConfig(**kwargs)
