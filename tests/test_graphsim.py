"""Event-driven network simulation: bookkeeping, invariants, determinism."""

import dataclasses
import hashlib
import math
import multiprocessing
import os
import sys
import types

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
    """One Gillespie event in place, run by the simulator's own loop: (elapsed time, executed flag).

    The loop runs until it passes its last sample time; with the one sample
    time 0.0 that is after exactly one event.
    """
    events, skips = [0] * 8, [0] * 8
    dt = graphsim._chain(net, rates, stream, (0.0,), lambda: None, events, skips)
    assert sum(events) == 1
    return dt, skips == [0] * 8


def floats(rates):
    """ProcessRates' fields as the floats the loop hands to ``_draw``."""
    return tuple(float(getattr(rates, f.name)) for f in dataclasses.fields(rates))


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
    assert len(net._edges) == 10
    counts = net.degree_counts(4)
    assert counts[2] == 10 and counts.sum() == 10
    check(net)


def test_erdos_renyi_sane():
    rng = np.random.default_rng(1)
    net = Network.erdos_renyi(300, 3.0, rng)
    check(net)
    assert net.n_nodes == 300
    mean_deg = 2.0 * len(net._edges) / net.n_nodes
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
    assert len(net._edges) == 60
    assert net.n_nodes == 30
    check(net)


def test_link_deletion_strictly_drains():
    draws = stream(3)
    rates = ProcessRates(0, 0, 1, 0, 0, 0, 0, 0, 0)
    net = Network.regular_ring(12, 2)
    seen = [len(net._edges)]
    for _ in range(12):
        step(net, rates, draws)
        seen.append(len(net._edges))
    assert seen == list(range(12, -1, -1))
    check(net)


def test_node_creation_adds_m_edges():
    draws = stream(4)
    rates = ProcessRates(0, 0, 0, 0, 0, 0, 1, 0, 3)
    net = Network.regular_ring(10, 2)
    for i in range(5):
        step(net, rates, draws)
        assert net.n_nodes == 11 + i
        assert len(net._edges) == 10 + 3 * (i + 1)
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


def test_every_process_runs_through_the_loop_and_keeps_invariants():
    # from one link on four nodes every clock is live: a degree-biased
    # rewiring of the only link is restored and skipped, and node additions
    # of both kinds link their new node
    rates = ProcessRates(omega_r=1, omega_p=1, l_d=1, l_r=1, l_p=1, n_d=1, n_r=1, n_p=1, m=1)
    net = Network._linked(4, [(0, 1)])
    events, skips = [0] * 8, [0] * 8
    graphsim._chain(net, rates, stream(0), (10.0,), lambda: None, events, skips)
    assert min(events) > 0
    assert skips[1] > 0
    assert events[6] > skips[6] and events[7] > skips[7]
    check(net)
    assert net.n_nodes == 4 + (events[6] - skips[6]) + (events[7] - skips[7]) - events[5]


def add_edges(n, pairs):
    """Reference graph: nodes 0..n-1, then the pairs linked one at a time, in order.

    Each link is stored as (u, v) with u < v at the end of the link list,
    and each end joins the other's neighbour set; the bulk builders must
    leave the same containers.
    """
    ref = types.SimpleNamespace(_nodes=list(range(n)), _node_pos={u: u for u in range(n)}, _next_id=n,
                                adj={u: set() for u in range(n)}, _edges=[], _edge_pos={})
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        assert u != v and key not in ref._edge_pos
        ref._edge_pos[key] = len(ref._edges)
        ref._edges.append(key)
        ref.adj[u].add(v)
        ref.adj[v].add(u)
    return ref


def ring_pairs(n, k):
    return [(i, (i + d) % n) for i in range(n) for d in range(1, k // 2 + 1)]


def erdos_pairs(n, mean_degree, rng):
    """The pairs of Network.erdos_renyi in its order, one uniform drawn per skip."""
    if n == 1 or mean_degree <= 0.0:
        return []
    p = min(mean_degree / (n - 1), 1.0)
    if p >= 1.0:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    lq = math.log1p(-p)
    pairs, i, j = [], 1, -1
    while i < n:
        j += 1 + int(math.log(1.0 - rng.random()) / lq)
        while j >= i and i < n:
            j -= i
            i += 1
        if i < n:
            pairs.append((i, j))
    return pairs


def assert_same_graph(net, ref):
    assert net._nodes == ref._nodes and net._node_pos == ref._node_pos and net._next_id == ref._next_id
    assert net._edges == ref._edges
    assert list(net._edge_pos.items()) == list(ref._edge_pos.items())
    # set iteration order decides the order in which _chain's node deletion drops links
    assert [(u, list(s)) for u, s in net.adj.items()] == [(u, list(s)) for u, s in ref.adj.items()]


@pytest.mark.parametrize("n, k", [(1, 0), (7, 0), (3, 2), (10, 2), (11, 4), (9, 8), (200, 4)])
def test_ring_is_filled_as_add_edge_fills_it(n, k):
    assert_same_graph(Network.regular_ring(n, k), add_edges(n, ring_pairs(n, k)))


@pytest.mark.parametrize("n, mean_degree", [(1, 2.0), (50, 0.0), (2, 0.5), (6, 5.0), (6, 9.0), (40, 3.0),
                                            (300, 2.0), (5000, 2.0)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_erdos_renyi_is_filled_as_add_edge_fills_it(n, mean_degree, seed):
    # the 5000-node graph reads its uniforms in two blocks; the Generator is
    # left where one draw per skip leaves it, since the replica's events
    # draw from it next
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    net = Network.erdos_renyi(n, mean_degree, rng)
    assert_same_graph(net, add_edges(n, erdos_pairs(n, mean_degree, ref_rng)))
    assert rng.random() == ref_rng.random()


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


# the complete-graph config of test_run_counts_skips_per_process and a
# preferential twin; the pins were taken before the event loop was inlined
SKIPPING = SimConfig(rates=ProcessRates(l_r=1, n_d=0.2), n_nodes=6, sample_times=(0.5,), seed=4,
                     replicas=2, graph="erdos", graph_degree=5.0, k_max=10)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rates, events, skips, digest", [
    (SKIPPING.rates, (0, 0, 0, 10, 0, 3, 0, 0), (0, 0, 0, 10, 0, 0, 0, 0),
     "b8817b3fbdf2feb2f2c4db05a4b95b4ca556297c017705f3ff8c07f06f4aeee0"),
    (ProcessRates(omega_p=1, l_p=1, n_d=0.2, n_p=0.5, m=5), (0, 21, 0, 0, 1, 6, 0, 1), (0, 0, 0, 0, 1, 0, 0, 0),
     "a4a15366c239608ee85072eb404663d2d691419021ebc9ec8cca2f2b9e7b0823"),
], ids=["uniform", "preferential"])
def test_seeded_run_with_skips_is_pinned_bit_for_bit(monkeypatch, rates, events, skips, digest, workers):
    # in a complete graph no link fits, a rewired end finds its one free
    # target only after retries and a new node needs five distinct targets
    # among six: the retry and skip paths must read the same uniforms as
    # the rest
    with_workers(monkeypatch, workers)
    res = run(dataclasses.replace(SKIPPING, rates=rates))
    assert res.events == events
    assert res.skips == skips
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
    net = Network._linked(3, [(0, 1)])
    dt, executed = step(net, ProcessRates(omega_p=1), stream(5))
    assert not executed and dt > 0
    assert len(net._edges) == 1 and 1 in net.adj[0]
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
    # node creation alone: nodes are added and none is deleted, so the
    # network grows
    rates = ProcessRates(0, 0, 0, 0, 0, 0, 1, 0, 2)
    cfg = SimConfig(rates=rates, n_nodes=100, sample_times=(0.5,), seed=8,
                    replicas=3, graph="regular", graph_degree=2.0, k_max=40)
    res = run(cfg)
    assert res.events[6] - res.skips[6] > 0
    assert res.events[5] == 0


def test_an_empty_start_has_every_node_at_degree_0():
    # link addition alone, from 50 isolated nodes
    cfg = SimConfig(rates=ProcessRates(l_r=1.0), n_nodes=50, sample_times=(0.0, 0.5), seed=3,
                    replicas=2, graph="empty", k_max=10)
    res = run(cfg)
    np.testing.assert_array_equal(res.mean[0], np.eye(11)[0])
    assert res.events[3] > 0 and res.mean[1][0] < 1.0
    assert not any(res.absorbed)


TOP = 1.0 - 2.0**-53  # the largest double below 1


class _TopGenerator:
    """Stand-in Generator whose every uniform is ``value``, by default the largest double below 1."""

    def __init__(self, value=TOP):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def test_stream_index_stays_below_n_at_the_top_uniform():
    # the stream clamps even a uniform of 1.0, which numpy never draws, to
    # TOP; floor(TOP n), the index the loop takes, is then below n
    u = _Stream(_TopGenerator(1.0)).refill()
    assert u == TOP
    sizes = np.random.default_rng(1).integers(1, 2**53, 10000, endpoint=True).tolist()
    for n in (1, 2, 3, 7, 10, 1000, 2**31 - 1, 2**52 + 1, 2**53, *sizes):
        assert 0 <= int(u * n) < n
    # and the loop's own pick at the top uniform is the last node of the list
    net = Network.regular_ring(50, 2)
    assert step(net, ProcessRates(n_d=1), _Stream(_TopGenerator()))[1]
    assert net.n_nodes == 49 and 49 not in net.adj


def test_draw_at_the_top_uniform_picks_a_live_process():
    # clocks (0, 0, 0, 0, 115 - 1ulp, 140, 0, 0): subtracting them one by one
    # from the top pick rounds short of zero, and the last two clocks are dead
    rates = ProcessRates(l_p=2.3, n_d=1.4)
    net = Network.regular_ring(50, 2)
    dt, idx = graphsim._draw(float(len(net._edges)), float(net.n_nodes), floats(rates), TOP, TOP)
    assert idx == 5
    assert np.isfinite(dt) and dt > 0


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_stream_index_is_uniform(n):
    # a node deletion, the loop's uniform pick from the node list, removes
    # each of the n nodes equally often
    draws, rates = stream(21), ProcessRates(n_d=1)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(20000):
        net = Network._linked(n, [(0, 1)])
        step(net, rates, draws)
        (gone,) = set(range(n)) - net.adj.keys()
        counts[gone] += 1
    assert counts.size == n
    assert stats.chisquare(counts).pvalue > 1e-3


def test_draw_picks_processes_in_proportion_to_their_clocks():
    rates = ProcessRates(omega_r=1, omega_p=2, l_d=0.5, l_r=1.5, l_p=3,
                         n_d=0.25, n_r=2.5, n_p=0.75, m=2)
    net = Network.regular_ring(50, 4)
    e, n = float(len(net._edges)), float(net.n_nodes)
    # 2E omega_r, 2E omega_p, E l_d, N l_r, N l_p, 2E n_d, N n_r, N n_p
    lam = np.array([2 * e * 1, 2 * e * 2, e * 0.5, n * 1.5, n * 3, 2 * e * 0.25, n * 2.5, n * 0.75])
    assert np.all(lam > 0)
    draws = np.random.default_rng(22).random((40000, 2)).tolist()
    picks = [graphsim._draw(e, n, floats(rates), u, v) for u, v in draws]
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
    res = run(SKIPPING)
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


@pytest.mark.parametrize("degree", [-2.0, 1.0, 2.4, 2.5, 3.0, 50.0, 1e300])
def test_config_rejects_a_ring_degree_it_cannot_build(degree):
    # 2.4 and 2.5 used to build a degree-2 ring, 3 failed only inside run,
    # possibly in a worker process, and 1e300 printed a 301-digit integer
    with pytest.raises(ValidationError, match="even integer in \\[0, 50\\)"):
        SimConfig(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1, graph="regular", graph_degree=degree)
    # the same degree is a mean for an Erdos-Renyi graph
    SimConfig(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1, graph="erdos", graph_degree=abs(degree))


@pytest.mark.parametrize("degree", [-3.0, -1e-300, -2])
def test_config_rejects_a_negative_erdos_degree(degree):
    # erdos_renyi builds an empty graph for any mean degree <= 0, so a
    # negative one used to be accepted and simulated from an empty start
    with pytest.raises(ValidationError, match="graph_degree must be a finite real number >= 0"):
        SimConfig(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1, graph="erdos", graph_degree=degree)
    assert SimConfig(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1, graph="erdos",
                     graph_degree=0.0).graph_degree == 0.0


def test_config_rejects_non_numeric_degree_and_times():
    # these used to raise a raw TypeError from math.isfinite or a raw
    # ValueError from float(); an int past the float range is infinite
    base = dict(rates=FIG2, n_nodes=50, sample_times=(0.05,), seed=1)
    for change in (dict(graph_degree="2"), dict(graph_degree=None), dict(graph_degree=10**400),
                   dict(sample_times=("a",)), dict(sample_times=None), dict(sample_times=0.5),
                   dict(sample_times=(0.05, "0.1")), dict(rates=None), dict(graph=["regular"])):
        with pytest.raises(ValidationError):
            SimConfig(**{**base, **change})
    cfg = SimConfig(**base, graph_degree=np.int64(4), graph="erdos")
    assert type(cfg.graph_degree) is float and cfg.graph_degree == 4.0

