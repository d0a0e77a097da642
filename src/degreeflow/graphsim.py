"""Event-driven stochastic simulation of the evolving network.

Implements the eight elementary processes as a Gillespie chain whose total
event rates are chosen so that the large-N degree distribution reproduces
the mean-field master equation: rewiring fires at 2E omega_r (2E omega_p for
the preferential variant), link deletion at E l_d, link addition at N l_r
(N l_p preferential), node deletion at 2E n_d (a uniformly chosen edge
endpoint IS a degree-biased node), and node addition at N n_r / N n_p.
Degree-biased choices always sample a uniform endpoint of a uniform edge,
which is exact and O(1).  Placements that turn out illegal (duplicate links,
self-links, not enough distinct targets) are resampled up to a fixed number
of attempts and then skipped, with a counter per process; so is a
degree-biased rewiring of the only link, which leaves no endpoint to pick.

The event loop, ``_chain``, runs each process as one branch of the loop,
with the graph's containers bound once per run and updated in place by the
branch.  It and the bulk builders of the initial graphs are the only code
that writes the containers: ``Network`` has no mutators of its own, and it
is internal, built and run only by ``run``.  Every random choice of an
event pops one uniform double u from a buffer that ``_Stream`` fills from
the replica's Generator in blocks of ``_BLOCK``, so the loop makes no
numpy call of its own.  The stream clamps u to at most 1 - 2**-53, the one
place that guards an index: for such u, floor(u n) < n for every n up to
2**53, so it indexes a list of n as it stands.  Since u is a multiple of
2**-53, each index has probability 1/n up to a relative bias of order
n 2**-53.  ``_draw``, called once per event, turns two uniforms u and v into
the waiting time -log1p(-u) / total, exponential with mean 1/total and
finite because u < 1, and the event: the first process whose running sum of
the eight clocks exceeds v total, found by an unrolled scan, or the last
live process when rounding leaves the sum short.

The replicas of an ensemble are independent: replica r draws only from
child r of ``SeedSequence(seed)``.  ``run`` splits them into contiguous
shares, one per CPU, runs the first share in the calling process and each
other share in a child started with the fork method, and puts the results
together in replica order, so they are the same bit for bit whatever the
number of processes.  It stays serial where the fork method is missing, on
CPython 3.12 and newer, in a daemonic process (a ``multiprocessing.Pool``
worker) and for one replica or one CPU.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import AbsorbingStateReached, ValidationError, WorkerError
from .model import ProcessRates, count, real

__all__ = ["SimConfig", "SimResult", "run"]

_RETRIES = 100
_BLOCK = 4096  # uniforms drawn from the Generator at a time
_TOP = 1.0 - 2.0**-53  # the largest double below 1


class _Stream:
    """Uniform doubles in [0, 1 - 2**-53] from a Generator, drawn ``_BLOCK`` at a time.

    The loop pops them from the end of ``buf``, so each block is read
    backwards, and calls ``refill`` when ``buf`` is empty.
    """

    __slots__ = ("_rng", "buf")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.buf: list[float] = []

    def refill(self) -> float:
        """Fill the empty buffer in place with the next block and return the first uniform it serves.

        Each uniform is clamped to the largest double below 1: for such a u
        and any n up to 2**53, u n rounds below n, so floor(u n) is a valid
        index into a list of n without a check of its own.
        """
        block = self._rng.random(_BLOCK)
        self.buf += np.minimum(block, _TOP, out=block).tolist()
        return self.buf.pop()


class Network:
    """Undirected simple graph whose node and link lists give the event loop O(1) uniform picks.

    The builders take the values that ``SimConfig`` has checked and check
    none of their own: a ring of odd degree, or of degree n or more, and an
    Erdos-Renyi graph of no node are not refused here.
    """

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self._nodes: list[int] = []
        self._node_pos: dict[int, int] = {}
        self._edges: list[tuple[int, int]] = []
        self._edge_pos: dict[tuple[int, int], int] = {}
        self._next_id = 0

    # -- builders -----------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Network":
        net = cls()
        nodes = list(range(n))
        net._nodes = nodes
        net._node_pos = {u: u for u in nodes}
        net.adj = {u: set() for u in nodes}
        net._next_id = len(nodes)
        return net

    @classmethod
    def _linked(cls, n: int, edges: list) -> "Network":
        """Nodes 0..n-1 with the links of edges, distinct (u, v) pairs with u < v, filled in bulk.

        The link list is edges itself, and each neighbour set receives its
        elements in link order.  That fixes the sets' iteration order, and
        so the order in which ``_chain``'s node deletion drops links.
        """
        net = cls.empty(n)
        adj = net.adj
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        net._edges = edges
        net._edge_pos = dict(zip(edges, range(len(edges))))
        return net

    @classmethod
    def regular_ring(cls, n: int, k: int) -> "Network":
        """Circulant graph: node i linked to i +- 1 .. i +- k/2 (k even, 0 <= k < n).

        The links come in order of i, then of the offset d = 1 .. k/2.
        """
        offsets = range(1, k // 2 + 1)
        return cls._linked(n, [(i, i + d) if i + d < n else (i + d - n, i) for i in range(n) for d in offsets])

    @classmethod
    def erdos_renyi(cls, n: int, mean_degree: float, rng: np.random.Generator) -> "Network":
        """G(n, p) with p = mean_degree/(n-1), sampled by geometric skipping.

        Each skip reads one uniform.  They are drawn ``_BLOCK`` at a time,
        and the Generator is then put back and advanced by the number read,
        so it is left where one draw per skip would leave it.
        """
        if n == 1 or mean_degree <= 0.0:
            return cls.empty(n)
        p = min(mean_degree / (n - 1), 1.0)
        if p >= 1.0:
            return cls._linked(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        # Batagelj-Brandes skip sampling over the upper-triangular pair index.
        lq = math.log1p(-p)
        state = rng.bit_generator.state
        edges, draws, drawn = [], [], 0
        i, j = 1, -1
        while i < n:
            if not draws:
                draws = rng.random(_BLOCK).tolist()
                draws.reverse()
                drawn += _BLOCK
            j += 1 + int(math.log(1.0 - draws.pop()) / lq)
            while j >= i and i < n:
                j -= i
                i += 1
            if i < n:
                edges.append((j, i))
        rng.bit_generator.state = state
        rng.random(drawn - len(draws))
        return cls._linked(n, edges)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def degree_counts(self, k_max: int) -> np.ndarray:
        degs = np.fromiter(map(len, self.adj.values()), dtype=np.int64, count=len(self.adj))
        counts = np.bincount(np.minimum(degs, k_max + 1), minlength=k_max + 2)
        return counts[: k_max + 1]  # degrees beyond k_max fall off the histogram


# -- the event loop ---------------------------------------------------------


def _draw(e: float, n: float, k: tuple, u: float, v: float) -> tuple[float, int]:
    """Waiting time and index of the next event of a graph of e links and n nodes.

    k holds ProcessRates' fields, the eight rates and m, as floats, taken
    once per run; u and v are the uniforms of the waiting time and of the
    pick.  The counts come as floats because a float-to-float comparison is
    the interpreter's fast path.  The clocks are added by ``sum`` in field
    order: CPython 3.12 and newer sum floats with compensation, so chained
    ``+`` would round differently there.
    """
    wr, wp, ld, lr, lp, nd, nr, pn, m = k
    e2 = 2.0 * e
    lam = (
        e2 * wr,
        e2 * wp,
        e * ld,
        n * lr if n >= 2.0 else 0.0,
        n * lp if e >= 1.0 and n >= 2.0 else 0.0,
        e2 * nd,
        n * nr if n >= m else 0.0,
        n * pn if n >= m and (e >= 1.0 or m == 0.0) else 0.0,
    )
    total = sum(lam)
    if total <= 0.0:
        raise AbsorbingStateReached("all event rates vanished")
    dt = -math.log1p(-u) / total
    c0, c1, c2, c3, c4, c5, c6, c7 = lam
    pick = v * total - c0
    if pick < 0.0:
        return dt, 0
    pick -= c1
    if pick < 0.0:
        return dt, 1
    pick -= c2
    if pick < 0.0:
        return dt, 2
    pick -= c3
    if pick < 0.0:
        return dt, 3
    pick -= c4
    if pick < 0.0:
        return dt, 4
    pick -= c5
    if pick < 0.0:
        return dt, 5
    pick -= c6
    if pick < 0.0:
        return dt, 6
    pick -= c7
    if pick < 0.0:
        return dt, 7
    # rounding left the running sum short of the pick: take the last live process
    return dt, max(i for i, rate in enumerate(lam) if rate > 0.0)


def _chain(net: Network, rates: ProcessRates, stream: _Stream, ts: tuple, snap, events: list, skips: list) -> float:
    """Run the Gillespie chain on net from t = 0 until it passes the last sample time of ts.

    Calls snap() once per sample time with the graph at that time, so a
    sample inside a waiting interval sees the state before the event; adds
    each event and each skip to its process's entry of events and skips;
    returns the time of the last event.  With ts = (0.0,) it runs exactly
    one event.  Raises AbsorbingStateReached once every clock is zero.

    Each process is one branch of the loop, in the order of ProcessRates'
    rate fields; a preferential variant picks a uniform endpoint of a
    uniform link where its uniform twin picks a uniform node.  The graph's
    containers and the stream's buffer are bound once, each uniform is
    popped from the buffer in place, and each branch updates the containers
    itself, so a change to the graph costs no method call.  A link is
    stored once, as (u, v) with u < v; the slot of a removed link or node
    in its list is filled by the list's last entry.
    Rewiring and link deletion share the removal of a uniform link, and
    rewiring and link addition the link they end with.
    """
    k = tuple(float(getattr(rates, f.name)) for f in fields(rates))
    m = rates.m
    nodes, node_pos, edges, edge_pos, adj = net._nodes, net._node_pos, net._edges, net._edge_pos, net.adj
    buf, refill = stream.buf, stream.refill
    pop = buf.pop
    n_t, t, j = len(ts), 0.0, 0
    while j < n_t:
        # _draw is looked up in the module on each event, so that a wrapper
        # put there (a tracer's event count) sees every draw
        dt, idx = _draw(float(len(edges)), float(len(nodes)), k,
                        pop() if buf else refill(), pop() if buf else refill())
        t += dt
        while j < n_t and ts[j] <= t:
            snap()
            j += 1
        events[idx] += 1
        if idx < 3:  # rewiring and link deletion remove a uniform link
            key = edges[int((pop() if buf else refill()) * len(edges))]
            pos = edge_pos.pop(key)
            last = edges.pop()
            if pos < len(edges):
                edges[pos] = last
                edge_pos[last] = pos
            a, b = key
            adj[a].discard(b)
            adj[b].discard(a)
            if idx == 2:
                continue
            # rewiring: the keeper u links to a new target in place of v
            u, v = key if (pop() if buf else refill()) < 0.5 else (b, a)
            nbrs = adj[u]
            # with the only link removed, no endpoint is left to pick
            for _ in range(_RETRIES if edges or idx == 0 else 0):
                if idx:
                    a, b = edges[int((pop() if buf else refill()) * len(edges))]
                    w = a if (pop() if buf else refill()) < 0.5 else b
                else:
                    w = nodes[int((pop() if buf else refill()) * len(nodes))]
                if w != u and w not in nbrs:
                    v = w
                    break
            else:
                skips[idx] += 1  # v stays the old end: rewiring must conserve E
        elif idx < 5:  # link addition
            for _ in range(_RETRIES):
                if idx == 4:
                    a, b = edges[int((pop() if buf else refill()) * len(edges))]
                    u = a if (pop() if buf else refill()) < 0.5 else b
                    a, b = edges[int((pop() if buf else refill()) * len(edges))]
                    v = a if (pop() if buf else refill()) < 0.5 else b
                else:
                    u = nodes[int((pop() if buf else refill()) * len(nodes))]
                    v = nodes[int((pop() if buf else refill()) * len(nodes))]
                if u != v and v not in adj[u]:
                    break
            else:
                skips[idx] += 1
                continue
        elif idx == 5:
            # node deletion: clock 2E*n_d with a uniform victim, so survivors
            # lose a neighbor at rate n_d*mu*k while the removed sample is unbiased
            u = nodes[int((pop() if buf else refill()) * len(nodes))]
            for v in adj.pop(u):
                key = (u, v) if u < v else (v, u)
                pos = edge_pos.pop(key)
                last = edges.pop()
                if pos < len(edges):
                    edges[pos] = last
                    edge_pos[last] = pos
                adj[v].discard(u)
            pos = node_pos.pop(u)
            last = nodes.pop()
            if pos < len(nodes):
                nodes[pos] = last
                node_pos[last] = pos
            continue
        else:  # node addition with m links to distinct targets
            targets = set()
            budget = _RETRIES * max(m, 1)
            while len(targets) < m and budget > 0:
                budget -= 1
                if idx == 7:
                    a, b = edges[int((pop() if buf else refill()) * len(edges))]
                    targets.add(a if (pop() if buf else refill()) < 0.5 else b)
                else:
                    targets.add(nodes[int((pop() if buf else refill()) * len(nodes))])
            if len(targets) < m:
                skips[idx] += 1
            else:
                u = net._next_id
                net._next_id = u + 1
                node_pos[u] = len(nodes)
                nodes.append(u)
                adj[u] = nbrs = set()
                for w in targets:
                    key = (w, u)  # the new node's id is above every other
                    edge_pos[key] = len(edges)
                    edges.append(key)
                    nbrs.add(w)
                    adj[w].add(u)
            continue
        # rewiring and link addition end by linking u and v
        key = (u, v) if u < v else (v, u)
        edge_pos[key] = len(edges)
        edges.append(key)
        adj[u].add(v)
        adj[v].add(u)
    return t


# -- ensemble runs ----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation setup.

    graph: "regular" (circulant of degree graph_degree), "erdos" (mean
    degree graph_degree), or "empty"; graph_degree must be a finite real
    number, for "regular" an even integer in [0, n_nodes) and for "erdos"
    one >= 0, and is kept as a float.  Sample times must be finite real
    numbers >= 0, strictly increasing.  n_nodes, seed, replicas and k_max
    must be integers, the seed nonnegative and the others positive.  k_max
    fixes the histogram length shared by all snapshots.  Each number goes
    through the shared check of ``model.real`` or ``model.count``, and
    anything else raises ValidationError.  This is the simulator's only
    check of its set-up: ``Network``'s builders trust these values.
    """

    rates: ProcessRates
    n_nodes: int
    sample_times: tuple[float, ...]
    seed: int
    replicas: int = 1
    graph: str = "regular"
    graph_degree: float = 0.0
    k_max: int = 200

    def __post_init__(self):
        for name, low in (("n_nodes", 1), ("seed", 0), ("replicas", 1), ("k_max", 1)):
            object.__setattr__(self, name, count(name, getattr(self, name), low))
        if not isinstance(self.rates, ProcessRates):
            raise ValidationError(f"rates must be ProcessRates, got {type(self.rates).__name__}")
        if self.graph not in ("regular", "erdos", "empty"):
            raise ValidationError(f"unknown initial graph kind {self.graph!r}")
        try:
            ts = tuple(real("sample time", t, 0.0) for t in self.sample_times)
        except TypeError:
            raise ValidationError(f"sample_times must be a sequence of times, got {self.sample_times!r}") from None
        if not ts or not all(a < b for a, b in zip(ts, ts[1:])):
            raise ValidationError("sample times must be a nonempty, strictly increasing sequence")
        degree = real("graph_degree", self.graph_degree, 0.0 if self.graph == "erdos" else -math.inf)
        if self.graph == "regular" and not (0.0 <= degree < self.n_nodes and degree % 2.0 == 0.0):
            raise ValidationError(f"a regular graph_degree must be an even integer in [0, {self.n_nodes}), got {degree!r}")
        object.__setattr__(self, "sample_times", ts)
        object.__setattr__(self, "graph_degree", degree)


@dataclass
class SimResult:
    """Ensemble-averaged degree histograms at the sample times."""

    times: np.ndarray  # (T,)
    mean: np.ndarray  # (T, k_max+1) ensemble mean of p_k
    stderr: np.ndarray  # (T, k_max+1) standard error over replicas
    absorbed: list[bool]
    skipped: int  # placements skipped, all processes together
    # per process, in the order of ProcessRates' rate fields, over all replicas
    events: tuple[int, ...]  # events drawn, skipped ones included
    skips: tuple[int, ...]  # events skipped after their placement attempts


def _build_initial(config: SimConfig, rng: np.random.Generator) -> Network:
    if config.graph == "regular":
        return Network.regular_ring(config.n_nodes, int(config.graph_degree))
    if config.graph == "erdos":
        return Network.erdos_renyi(config.n_nodes, config.graph_degree, rng)
    return Network.empty(config.n_nodes)


def _replica(config: SimConfig, r: int, seed: np.random.SeedSequence) -> tuple:
    """Replica r of the ensemble, drawing only from its child stream ``seed``.

    Returns its (T, k_max+1) histograms, whether it froze in an absorbing
    state, and its per-process events and skips.
    """
    rng = np.random.default_rng(seed)
    net = _build_initial(config, rng)
    k_max = config.k_max
    hists = []

    def snap():
        n = net.n_nodes
        hists.append(net.degree_counts(k_max) / n if n else np.zeros(k_max + 1))

    events, skips = [0] * 8, [0] * 8
    try:
        _chain(net, config.rates, _Stream(rng), config.sample_times, snap, events, skips)
        frozen = False
    except AbsorbingStateReached:
        frozen = True
    # a frozen replica repeats its graph at the remaining times
    while len(hists) < len(config.sample_times):
        snap()
    return np.array(hists), frozen, events, skips


def _share(config: SimConfig, rs: range, seeds: list) -> list[tuple]:
    return [_replica(config, r, seeds[r]) for r in rs]


def _child(config: SimConfig, rs: range, seeds: list, conn) -> None:
    """Body of a worker process: send its share's results, or the exception that stopped it."""
    try:
        out = _share(config, rs, seeds)
    except Exception as exc:
        out = exc
    conn.send(out)
    conn.close()


def _workers(replicas: int) -> int:
    """Processes that run the replicas: one per CPU, at most one per replica.

    More than one only on CPython 3.10 and 3.11 with the fork start method
    and the CPU affinity.  It is 1 on CPython 3.12 and newer, which warns
    when it forks a process holding threads (numpy's OpenBLAS threads
    count), and in a daemonic process such as a ``multiprocessing.Pool``
    worker, which may not start children.  On 3.10 and 3.11 the same fork
    happens without the warning: the hazard, a lock held by another thread
    at the fork staying held in the child, is accepted there, not absent.
    """
    import multiprocessing

    if (sys.version_info >= (3, 12) or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return min(replicas, len(os.sched_getaffinity(0)))


def _forked(config: SimConfig, shares: list[range], seeds: list) -> list[tuple]:
    """Run the first share here and each other share in a forked child, in replica order.

    Each child is a bare ``Process`` with a ``Pipe`` rather than a
    ``ProcessPoolExecutor`` worker, so that when a share raises the
    children still running can be terminated: an executor only cancels
    work that has not started, and would wait out the rest of the ensemble.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for rs in shares[1:]:
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(config, rs, seeds, send_end), daemon=True)
            proc.start()
            children.append((proc, recv_end, rs))
            send_end.close()
        results = _share(config, shares[0], seeds)
        for proc, conn, rs in children:
            # read before joining: a result larger than the pipe buffer
            # blocks its child until it is read
            try:
                out = conn.recv()
            except EOFError:
                proc.join()
                raise WorkerError(
                    f"the worker for replicas {rs.start}-{rs.stop - 1} exited with code "
                    f"{proc.exitcode} before sending its results") from None
            if isinstance(out, Exception):
                raise out
            results += out
            proc.join()
    finally:
        for proc, conn, _ in children:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            conn.close()
    return results


def run(config: SimConfig) -> SimResult:
    """Simulate the ensemble and return averaged degree histograms.

    Replica r draws only from child r of ``SeedSequence(config.seed)``.
    The replicas are split into contiguous shares, one per CPU and at most
    one per replica: the calling process runs the first share, and each
    other share runs in a forked child that sends its results back over a
    pipe.  The run is serial where the fork start method is missing, on
    CPython 3.12 and newer and in a daemonic process.  The results are put
    together in replica order, so every field is the same bit for bit
    whatever the process count.  When a share raises, the caller gets the
    exception of the lowest failing replica, as in a serial run, and the
    children still running are terminated; no process outlives the call.
    A child that dies without sending raises ``WorkerError``.  Once a
    replica reaches an absorbing state (total rate zero) its remaining
    snapshots repeat the frozen graph, flagged in ``absorbed``.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(config.replicas)
    n_proc = _workers(config.replicas)
    cuts = [config.replicas * i // n_proc for i in range(n_proc + 1)]
    shares = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    results = _share(config, shares[0], seeds) if n_proc == 1 else _forked(config, shares, seeds)
    hists, absorbed, events, skips = zip(*results)
    events = tuple(map(sum, zip(*events)))
    skips = tuple(map(sum, zip(*skips)))

    per_rep = np.array(hists)
    mean = per_rep.mean(axis=0)
    if config.replicas > 1:
        stderr = per_rep.std(axis=0, ddof=1) / math.sqrt(config.replicas)
    else:
        stderr = np.zeros_like(mean)
    return SimResult(
        times=np.array(config.sample_times),
        mean=mean,
        stderr=stderr,
        absorbed=list(absorbed),
        skipped=sum(skips),
        events=events,
        skips=skips,
    )
