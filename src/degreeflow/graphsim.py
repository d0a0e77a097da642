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

Every random choice of an event reads one uniform double u in [0, 1) from a
``_Stream``, which draws them from the replica's Generator in blocks of
``_BLOCK`` so that the event loop makes no numpy call of its own.  A uniform
index below n is floor(u n), clamped to n - 1 against u n rounding up to n;
since u is a multiple of 2**-53, each index has probability 1/n up to a
relative bias of order n 2**-53.  The waiting time is -log1p(-u) / total,
exponential with mean 1/total and finite because u < 1.  The event is the
first process whose running sum of the eight clocks exceeds u total, found
by a linear scan, or the last live process when rounding leaves the sum
short.

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
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AbsorbingStateReached, ValidationError, WorkerError
from .model import ProcessRates

__all__ = ["Network", "SimConfig", "SimResult", "run"]

_RETRIES = 100
_BLOCK = 4096  # uniforms drawn from the Generator at a time


class _Stream:
    """Uniform doubles in [0, 1) from a Generator, drawn ``_BLOCK`` at a time."""

    __slots__ = ("_rng", "_buf")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf: list[float] = []

    def _refill(self) -> list[float]:
        # served from the end of the block, so each block is read backwards
        self._buf = self._rng.random(_BLOCK).tolist()
        return self._buf

    def uniform(self) -> float:
        return (self._buf or self._refill()).pop()

    def below(self, n: int) -> int:
        """Uniform index in [0, n), n >= 1."""
        i = int((self._buf or self._refill()).pop() * n)
        return i if i < n else n - 1


class Network:
    """Undirected simple graph with O(1) uniform edge and node sampling."""

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
    def regular_ring(cls, n: int, k: int) -> "Network":
        """Circulant graph: node i linked to i +- 1 .. i +- k/2 (k even, k < n)."""
        if k % 2 != 0 or k < 0:
            raise ValidationError(f"ring degree must be even and >= 0, got {k}")
        if k >= n:
            raise ValidationError(f"ring degree {k} needs more than {n} nodes")
        net = cls.empty(n)
        for i in range(n):
            for d in range(1, k // 2 + 1):
                net.add_edge(i, (i + d) % n)
        return net

    @classmethod
    def erdos_renyi(cls, n: int, mean_degree: float, rng: np.random.Generator) -> "Network":
        """G(n, p) with p = mean_degree/(n-1), sampled by geometric skipping."""
        if n < 1:
            raise ValidationError(f"need at least one node, got {n}")
        net = cls.empty(n)
        if n == 1 or mean_degree <= 0.0:
            return net
        p = min(mean_degree / (n - 1), 1.0)
        if p >= 1.0:
            for i in range(n):
                for j in range(i + 1, n):
                    net.add_edge(i, j)
            return net
        # Batagelj-Brandes skip sampling over the upper-triangular pair index.
        lq = math.log1p(-p)
        i, j = 1, -1
        while i < n:
            j += 1 + int(math.log(1.0 - rng.random()) / lq)
            while j >= i and i < n:
                j -= i
                i += 1
            if i < n:
                net.add_edge(i, j)
        return net

    # -- counts -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    # -- mutation -----------------------------------------------------------

    def add_node(self) -> int:
        u = self._next_id
        self._next_id += 1
        self._node_pos[u] = len(self._nodes)
        self._nodes.append(u)
        self.adj[u] = set()
        return u

    def remove_node(self, u: int) -> None:
        remove_edge = self.remove_edge
        for v in list(self.adj[u]):
            remove_edge(u, v)
        nodes, node_pos = self._nodes, self._node_pos
        pos = node_pos.pop(u)
        last = nodes.pop()
        if last != u:
            nodes[pos] = last
            node_pos[last] = pos
        del self.adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValidationError("self-links are not allowed")
        adj = self.adj
        nbrs = adj[u]
        if v in nbrs:
            raise ValidationError(f"link ({u}, {v}) already present")
        key = (u, v) if u < v else (v, u)
        edges = self._edges
        self._edge_pos[key] = len(edges)
        edges.append(key)
        nbrs.add(v)
        adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        edges, edge_pos = self._edges, self._edge_pos
        pos = edge_pos.pop(key)
        last = edges.pop()
        if last != key:
            edges[pos] = last
            edge_pos[last] = pos
        adj = self.adj
        adj[u].discard(v)
        adj[v].discard(u)

    # -- sampling -----------------------------------------------------------

    def random_node(self, stream: _Stream) -> int:
        nodes = self._nodes
        return nodes[stream.below(len(nodes))]

    def random_edge(self, stream: _Stream) -> tuple[int, int]:
        edges = self._edges
        return edges[stream.below(len(edges))]

    def random_endpoint(self, stream: _Stream) -> int:
        """Degree-biased node: a uniform endpoint of a uniform edge."""
        edges = self._edges
        e = edges[stream.below(len(edges))]
        return e[0] if stream.uniform() < 0.5 else e[1]

    def degree_counts(self, k_max: int) -> np.ndarray:
        degs = np.fromiter((len(s) for s in self.adj.values()), dtype=np.int64, count=len(self.adj))
        counts = np.bincount(np.minimum(degs, k_max + 1), minlength=k_max + 2)
        return counts[: k_max + 1]  # degrees beyond k_max fall off the histogram


# -- event execution --------------------------------------------------------
#
# Each process is one handler(net, stream, rates, preferential) -> executed,
# where preferential selects degree-biased picks (a uniform endpoint of a
# uniform edge) over uniform node picks.


def _rewire(net: Network, stream: _Stream, rates: ProcessRates, preferential: bool) -> bool:
    u, v = net.random_edge(stream)
    keeper, loser = (u, v) if stream.uniform() < 0.5 else (v, u)
    net.remove_edge(keeper, loser)
    # with the only link removed, no endpoint is left to pick
    if net._edges or not preferential:
        pick, nbrs = net.random_endpoint if preferential else net.random_node, net.adj[keeper]
        for _ in range(_RETRIES):
            w = pick(stream)
            if w != keeper and w not in nbrs:
                net.add_edge(keeper, w)
                return True
    net.add_edge(keeper, loser)  # restore: rewiring must conserve E
    return False


def _delete_link(net: Network, stream: _Stream, rates: ProcessRates, preferential: bool) -> bool:
    u, v = net.random_edge(stream)
    net.remove_edge(u, v)
    return True


def _add_link(net: Network, stream: _Stream, rates: ProcessRates, preferential: bool) -> bool:
    pick, adj = net.random_endpoint if preferential else net.random_node, net.adj
    for _ in range(_RETRIES):
        u = pick(stream)
        v = pick(stream)
        if u != v and v not in adj[u]:
            net.add_edge(u, v)
            return True
    return False


def _delete_node(net: Network, stream: _Stream, rates: ProcessRates, preferential: bool) -> bool:
    # clock 2E*n_d with a uniform victim: survivors then lose a
    # neighbor at rate n_d*mu*k while the removed sample is unbiased
    net.remove_node(net.random_node(stream))
    return True


def _add_node(net: Network, stream: _Stream, rates: ProcessRates, preferential: bool) -> bool:
    m = rates.m
    targets: set[int] = set()
    if m > 0:
        pick = net.random_endpoint if preferential else net.random_node
        budget = _RETRIES * max(m, 1)
        while len(targets) < m and budget > 0:
            budget -= 1
            targets.add(pick(stream))
        if len(targets) < m:
            return False
    u = net.add_node()
    for w in targets:
        net.add_edge(u, w)
    return True


# (handler, preferential) of each process, in the order of ProcessRates' rate fields
_HANDLERS = (
    (_rewire, False),
    (_rewire, True),
    (_delete_link, False),
    (_add_link, False),
    (_add_link, True),
    (_delete_node, False),
    (_add_node, False),
    (_add_node, True),
)


def _clocks(net: Network, rates: ProcessRates) -> tuple[float, ...]:
    """Total rates of the eight processes, in the order of ProcessRates' rate fields.

    The counts are compared with float literals: a float-to-float comparison
    is the interpreter's fast path.
    """
    e, n = float(len(net._edges)), float(len(net._nodes))
    e2, m = 2.0 * e, rates.m
    return (
        e2 * rates.omega_r,
        e2 * rates.omega_p,
        e * rates.l_d,
        n * rates.l_r if n >= 2.0 else 0.0,
        n * rates.l_p if e >= 1.0 and n >= 2.0 else 0.0,
        e2 * rates.n_d,
        n * rates.n_r if n >= m else 0.0,
        n * rates.n_p if n >= m and (e >= 1.0 or m == 0) else 0.0,
    )


def _draw(net: Network, rates: ProcessRates, stream: _Stream) -> tuple[float, int]:
    """Waiting time and event index of the next event (state untouched)."""
    lam = _clocks(net, rates)
    total = sum(lam)
    if total <= 0.0:
        raise AbsorbingStateReached("all event rates vanished")
    dt = -math.log1p(-stream.uniform()) / total
    pick = stream.uniform() * total
    idx = 0
    for rate in lam:
        pick -= rate
        if pick < 0.0:
            return dt, idx
        idx += 1
    # rounding left the running sum short of the pick: take the last live process
    return dt, max(i for i, rate in enumerate(lam) if rate > 0.0)


def _execute(net: Network, idx: int, rates: ProcessRates, stream: _Stream) -> bool:
    """Carry out process idx on net; False when its placement was skipped."""
    handler, preferential = _HANDLERS[idx]
    return handler(net, stream, rates, preferential)


# -- ensemble runs ----------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation setup.

    graph: "regular" (circulant of degree graph_degree), "erdos" (mean
    degree graph_degree), or "empty"; graph_degree must be finite.  Sample
    times must be finite, nonnegative and increasing.  n_nodes, seed,
    replicas and k_max must be integers, the seed nonnegative and the
    others positive.  k_max fixes the histogram length shared by all
    snapshots.
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
        for name in ("n_nodes", "seed", "replicas", "k_max"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.n_nodes < 1:
            raise ValidationError(f"need at least one node, got {self.n_nodes}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.replicas < 1:
            raise ValidationError(f"need at least one replica, got {self.replicas}")
        if self.graph not in ("regular", "erdos", "empty"):
            raise ValidationError(f"unknown initial graph kind {self.graph!r}")
        ts = tuple(float(t) for t in self.sample_times)
        increasing = all(a < b for a, b in zip(ts, ts[1:]))
        if not ts or not all(0.0 <= t < math.inf for t in ts) or not increasing:
            raise ValidationError("sample times must be finite, nonnegative and strictly increasing")
        if not math.isfinite(self.graph_degree):
            raise ValidationError(f"graph_degree must be finite, got {self.graph_degree!r}")
        if self.k_max < 1:
            raise ValidationError(f"k_max must be >= 1, got {self.k_max}")
        object.__setattr__(self, "sample_times", ts)


@dataclass
class SimResult:
    """Ensemble-averaged degree histograms at the sample times."""

    times: np.ndarray  # (T,)
    mean: np.ndarray  # (T, k_max+1) ensemble mean of p_k
    stderr: np.ndarray  # (T, k_max+1) standard error over replicas
    absorbed: list[bool]
    skipped: int  # placements skipped, all processes together
    mean_nodes: np.ndarray  # (T,) average node count
    # per process, in the order of ProcessRates' rate fields, over all replicas
    events: tuple[int, ...]  # events drawn, skipped ones included
    skips: tuple[int, ...]  # events skipped after their placement attempts
    replicas: int = field(default=1)


def _build_initial(config: SimConfig, rng: np.random.Generator) -> Network:
    if config.graph == "regular":
        k = int(round(config.graph_degree))
        return Network.regular_ring(config.n_nodes, k)
    if config.graph == "erdos":
        return Network.erdos_renyi(config.n_nodes, config.graph_degree, rng)
    return Network.empty(config.n_nodes)


def _replica(config: SimConfig, r: int, seed: np.random.SeedSequence) -> tuple:
    """Replica r of the ensemble, drawing only from its child stream ``seed``.

    Returns its (T, k_max+1) histograms, its (T,) node counts, whether it
    froze in an absorbing state, and its per-process events and skips.
    """
    rates, ts = config.rates, config.sample_times
    n_t = len(ts)
    hist = np.empty((n_t, config.k_max + 1))
    n_counts = np.zeros(n_t)
    events = [0] * 8
    skips = [0] * 8
    rng = np.random.default_rng(seed)
    net = _build_initial(config, rng)
    stream = _Stream(rng)
    t = 0.0
    frozen = False
    j = 0

    def snap(j):
        if net.n_nodes > 0:
            hist[j] = net.degree_counts(config.k_max) / net.n_nodes
        else:
            hist[j] = 0.0
        n_counts[j] = net.n_nodes

    # the event loop: plain Python floats and lists, no numpy call
    while j < n_t:
        try:
            dt, idx = _draw(net, rates, stream)
        except AbsorbingStateReached:
            frozen = True
            break
        # Samples inside the waiting interval see the pre-event state.
        t += dt
        while j < n_t and ts[j] <= t:
            snap(j)
            j += 1
        events[idx] += 1
        if not _execute(net, idx, rates, stream):
            skips[idx] += 1
    # a frozen replica repeats its graph at the remaining times
    while j < n_t:
        snap(j)
        j += 1
    return hist, n_counts, frozen, events, skips


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
    hists, n_counts, absorbed, events, skips = zip(*results)
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
        mean_nodes=np.array(n_counts).mean(axis=0),
        events=events,
        skips=skips,
        replicas=config.replicas,
    )
