"""Simulated network: nodes, NICs with finite bandwidth, latency models.

The model mirrors the paper's testbed: machines with several 1 Gbps NICs
on a LAN, plus experiments where the *client* links get an extra
100 ± 20 ms normally-distributed delay (Section VI-A).

A transfer occupies a transmit slot on the sender for the serialization
time (``bytes / per_nic_bandwidth``), crosses the link after a sampled
propagation delay, occupies a receive slot on the destination for the
same serialization time, and finally lands in the destination's inbox.

Fault injection: whole nodes can be crashed (silently dropping all
traffic), and every transfer passes the send filters, where the fault
plane (:mod:`repro.faults.injector`) cuts, loses, delays or rewrites it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from .engine import Environment, Timeout
from .probe import Probe
from .resources import Resource, Store
from .rng import RngTree

GBPS = 1e9 / 8  # bytes per second in one gigabit per second


class LatencyModel:
    """Samples one-way propagation delays in seconds."""

    def sample(self, rng) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed one-way delay (our LAN default: 50 us)."""

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative latency: {delay}")
        self.delay = delay

    def sample(self, rng) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Uniformly distributed delay in [low, high]."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"bad uniform bounds: [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class NormalLatency(LatencyModel):
    """Normally distributed delay, clamped below at ``floor``.

    The paper's WAN experiments add 100 +/- 20 ms (normal distribution)
    to the client NICs; ``NormalLatency(0.100, 0.020)`` reproduces that.
    """

    def __init__(self, mean: float, stddev: float, floor: float = 1e-6):
        if mean < 0 or stddev < 0:
            raise ValueError(f"bad normal parameters: mean={mean} stddev={stddev}")
        self.mean = mean
        self.stddev = stddev
        self.floor = floor

    def sample(self, rng) -> float:
        return max(self.floor, rng.gauss(self.mean, self.stddev))

    def __repr__(self) -> str:
        return f"NormalLatency({self.mean}, {self.stddev})"


@dataclass(slots=True, init=False)
class Message:
    """Envelope delivered to a node's inbox.

    Treated as immutable by convention; one is allocated per transfer,
    so it is a slotted record with a hand-written ``__init__``
    (DESIGN.md D28).
    """

    src: str
    dst: str
    payload: Any
    size: int
    sent_at: float
    msg_id: int
    # FIFO stream identity, stamped by ``send``: the (src, dst, stream)
    # key and this message's position in that stream.
    stream_pair: Any
    stream_seq: int

    def __init__(self, src, dst, payload, size, sent_at, msg_id, stream_pair, stream_seq):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.sent_at = sent_at
        self.msg_id = msg_id
        self.stream_pair = stream_pair
        self.stream_seq = stream_seq


@dataclass
class SendAttempt:
    """Mutable draft of one transfer, offered to registered send filters.

    A filter (the fault plane, a test tap, ...) may observe the draft,
    replace the payload (tampering/corruption), set ``drop`` to swallow
    the message, or add ``extra_delay`` seconds of propagation time.
    Source, destination, and stream identity are fixed: the simulated
    adversary sits *on the wire*, it cannot re-address traffic.
    """

    src: str
    dst: str
    payload: Any
    size: int
    stream: Optional[str]
    drop: bool = False
    extra_delay: float = 0.0


@dataclass
class NicConfig:
    """Network interface capacity of one node."""

    count: int = 4
    bandwidth: float = GBPS  # bytes/second per NIC


class Node:
    """A machine in the simulated cluster."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cores: int = 8,
        nic: Optional[NicConfig] = None,
        probe: Optional[Probe] = None,
    ):
        self.env = env
        self.name = name
        self.nic = nic or NicConfig()
        self.probe = probe if probe is not None else Probe(env)
        self.inbox: Store = Store(env)
        self.cpu = Resource(env, capacity=cores)
        self.tx = Resource(env, capacity=self.nic.count)
        self.rx = Resource(env, capacity=self.nic.count)
        self.crashed = False

    def compute(self, seconds: float):
        """Occupy one core for ``seconds``; use as ``yield from n.compute(s)``.

        Zero-cost work skips the scheduler entirely. Returns an iterable
        rather than being a generator function itself so ``yield from``
        delegates straight into the resource's generator — one less stack
        frame on the hottest resume path in the simulator.

        Costs paid back-to-back with no observable action in between
        (hash + MAC, ...) are passed as one sum, ``compute(a + b)``: a
        single schedule entry instead of one scheduler round-trip per
        component — see docs/PERFORMANCE.md for the design rule.

        With a subscriber on the bus the charge is reported once it
        completes (``node.compute``); without one this costs a flag test.
        """
        if seconds <= 0:
            return ()
        if self.probe.on:
            return self._reported(seconds)
        return self.cpu.use(seconds)

    def _reported(self, seconds: float):
        start = self.env.now
        yield from self.cpu.use(seconds)
        self.probe.event("node.compute", self.name, None, seconds=seconds,
                         waited=self.env.now - start - seconds)

    def crash(self) -> None:
        """Silently drop all future inbound and outbound traffic."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def __repr__(self) -> str:
        return f"Node({self.name!r})"


class _StreamRx:
    """Receiver-side in-order delivery state for one (src, dst, stream)."""

    __slots__ = ("next_seq", "buffer")

    def __init__(self):
        self.next_seq = 0
        self.buffer: dict[int, Message] = {}


class _Route:
    """Per-(src, dst, stream) cache of everything the send path touches.

    Built lazily on first use. Holds the endpoint nodes and their NIC
    slot resources, the latency model and the per-pair rng, and the FIFO
    send-sequence counter. One dict lookup
    per message replaces the half-dozen table probes of the naive path;
    ``set_latency`` updates live routes and ``reset_streams`` drops
    them, so nothing observable changes.
    """

    __slots__ = (
        "sender", "receiver", "tx", "rx", "tx_nic", "rx_nic",
        "model", "rng", "pair", "send_seq",
    )


class Network:
    """Connects nodes; owns latency models and the send-filter chain."""

    def __init__(
        self,
        env: Environment,
        rng_tree: Optional[RngTree] = None,
        default_latency: Optional[LatencyModel] = None,
        probe: Optional[Probe] = None,
    ):
        self.env = env
        self.rng_tree = rng_tree or RngTree(0)
        self.default_latency = default_latency or ConstantLatency(50e-6)
        self.probe = probe if probe is not None else Probe(env)
        # In-order delivery per (src, dst, stream), as TCP provides for
        # all client/replica connections in the paper's testbed.
        self._streams: dict[tuple, _StreamRx] = {}
        self._routes: dict[tuple, _Route] = {}
        self.nodes: dict[str, Node] = {}
        self._latency_overrides: dict[tuple[str, str], LatencyModel] = {}
        self._send_filters: list[Any] = []
        self._delivery_taps: list[Any] = []
        self._latency_rngs: dict[tuple[str, str], Any] = {}
        self._msg_ids = itertools.count()
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- topology ----------------------------------------------------------

    def add_node(
        self, name: str, cores: int = 8, nic: Optional[NicConfig] = None
    ) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name!r}")
        node = Node(self.env, name, cores=cores, nic=nic, probe=self.probe)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def set_latency(self, src: str, dst: str, model: LatencyModel) -> None:
        """Override the one-way latency for the src->dst direction."""
        self._latency_overrides[(src, dst)] = model
        for key, route in self._routes.items():
            if key[0] == src and key[1] == dst:
                route.model = model

    def set_latency_symmetric(self, a: str, b: str, model: LatencyModel) -> None:
        self.set_latency(a, b, model)
        self.set_latency(b, a, model)

    # -- fault injection -----------------------------------------------------

    def reset_streams(self, node_name: str) -> None:
        """Forget in-order stream state involving ``node_name``.

        Models connections being re-established after a crash/recovery:
        buffered out-of-order packets of the dead connections are
        dropped and sequence tracking starts fresh. (Dropping the route
        resets its send-sequence counter; in-flight messages keep the
        sequence numbers stamped on them at send time, exactly as
        before.)"""
        for table in (self._routes, self._streams):
            for key in [k for k in table if k[0] == node_name or k[1] == node_name]:
                del table[key]

    def add_send_filter(self, fn) -> None:
        """Install ``fn(attempt: SendAttempt) -> None`` on the send path.

        Filters run in registration order on every transfer, after the
        sender-crash check. This is the single interception point the
        fault-injection plane
        (:mod:`repro.faults.injector`) builds on. A filter may *change*
        the attempt; what merely watches subscribes to the probe bus
        (``net.send`` is emitted before any filter runs).
        """
        self._send_filters.append(fn)

    def add_delivery_tap(self, fn) -> None:
        """Install ``fn(msg: Message) -> None`` on the delivery path.

        Taps run at actual delivery time — after the receiver-crash
        check and after FIFO reordering — so they observe exactly the
        payloads that land in the destination inbox. Unlike send
        filters, taps are read-only: they must not mutate the message.
        The audit ledger (:mod:`repro.obs.audit`) records certified
        receives through the ``net.deliver`` event instead, emitted here
        just before the taps run.
        """
        self._delivery_taps.append(fn)

    # -- transfer ------------------------------------------------------------

    def _deliver(self, msg: Message, receiver: Node) -> None:
        if receiver.crashed:
            return
        if self.probe.on:
            self.probe.event("net.deliver", msg.dst, msg)
        if self._delivery_taps:
            for fn in tuple(self._delivery_taps):
                fn(msg)
        receiver.inbox.put(msg)

    def _stream_arrived(self, msg: Message, receiver: Node) -> None:
        """In-order (TCP-like) delivery: release the longest in-sequence
        prefix of the (src, dst, stream) connection; buffer anything
        that overtook its predecessors."""
        pair = msg.stream_pair
        rx = self._streams.get(pair)
        if rx is None:
            rx = self._streams[pair] = _StreamRx()
        seq = msg.stream_seq
        buffer = rx.buffer
        if seq == rx.next_seq and not buffer:
            # In-sequence arrival with nothing buffered — the common
            # case; skip the buffer insert/pop round-trip.
            rx.next_seq = seq + 1
            self._deliver(msg, receiver)
            return
        buffer[seq] = msg
        next_seq = rx.next_seq
        while next_seq in buffer:
            self._deliver(buffer.pop(next_seq), receiver)
            next_seq += 1
        rx.next_seq = next_seq

    def _route(self, key: tuple) -> _Route:
        """Build (and cache) the route for a (src, dst, stream) key."""
        src, dst, _stream = key
        sender = self.nodes.get(src)
        receiver = self.nodes.get(dst)
        if sender is None or receiver is None:
            raise KeyError(f"unknown endpoint in {src!r}->{dst!r}")
        route = _Route()
        route.sender = sender
        route.receiver = receiver
        route.tx = sender.tx
        route.rx = receiver.rx
        route.tx_nic = sender.nic
        route.rx_nic = receiver.nic
        route.model = self._latency_overrides.get((src, dst), self.default_latency)
        rng = self._latency_rngs.get((src, dst))
        if rng is None:
            rng = self.rng_tree.derive("network", "latency", src, dst)
            self._latency_rngs[(src, dst)] = rng
        route.rng = rng
        route.pair = key
        route.send_seq = 0
        self._routes[key] = route
        return route

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        size: Optional[int] = None,
        stream: Optional[str] = None,
    ) -> None:
        """Fire-and-forget transfer of ``payload`` from ``src`` to ``dst``.

        ``size`` defaults to the payload's ``wire_size`` attribute.
        ``stream`` names the TCP connection this message rides on (e.g.
        a client id); in-order delivery is enforced per (src, dst,
        stream). Messages of different streams may overtake each other,
        exactly like independent TCP connections.
        """
        if size is None:
            size = getattr(payload, "wire_size", None)
            if size is None:
                raise ValueError(
                    f"payload {payload!r} has no wire_size; pass size explicitly"
                )
        key = (src, dst, stream)
        route = self._routes.get(key)
        if route is None:
            route = self._route(key)
        if route.sender.crashed:
            return
        if self.probe.on:
            # Offered traffic: what the sender's stack emitted, before a
            # filter can drop or rewrite it.
            self.probe.event("net.send", src, payload, dst=dst, size=int(size))
        extra_delay = 0.0
        if self._send_filters:
            attempt = SendAttempt(src, dst, payload, int(size), stream)
            for fn in tuple(self._send_filters):
                fn(attempt)
                if attempt.drop:
                    if self.probe.on:
                        self.probe.event(
                            "net.fault", src, payload, dst=dst, size=attempt.size
                        )
                    return
            payload, size = attempt.payload, attempt.size
            extra_delay = attempt.extra_delay
        self.messages_sent += 1
        self.bytes_sent += size
        seq = route.send_seq
        route.send_seq = seq + 1
        msg = Message(
            src, dst, payload, int(size), self.env._now,
            next(self._msg_ids), key, seq,
        )
        self._transfer(msg, route, extra_delay)

    def _transfer(self, msg: Message, route: _Route, extra_delay: float = 0.0) -> None:
        """Callback-chained transfer: tx slot -> serialize -> propagate ->
        rx slot -> serialize -> deliver. (Hot path: avoids spawning a
        process per message; NIC slots use the Resource direct-handoff
        path so one scheduled event covers admission + serialization, and
        releases inline the no-waiter case.)"""
        env = self.env
        tx = route.tx
        rx = route.rx

        def on_tx_done(_event) -> None:
            if tx._waiters:
                tx.release()
            else:
                tx._in_use -= 1
            # Base model sample from the per-pair rng, then any
            # filter-added delay.
            arrival = Timeout(env, route.model.sample(route.rng) + extra_delay)
            arrival.callbacks.append(on_arrival)

        def on_arrival(_event) -> None:
            # Crashed receivers still consume stream sequence numbers
            # (the final _deliver drops the payload); otherwise in-order
            # streams would wedge forever across a crash.
            rx.request_hold(msg.size / route.rx_nic.bandwidth).callbacks.append(
                on_rx_done
            )

        def on_rx_done(_event) -> None:
            if rx._waiters:
                rx.release()
            else:
                rx._in_use -= 1
            # TCP semantics: each (src,dst,stream) connection delivers
            # in send order. A packet that overtook its predecessors
            # waits in the reorder buffer (head-of-line blocking).
            self._stream_arrived(msg, route.receiver)

        tx.request_hold(msg.size / route.tx_nic.bandwidth).callbacks.append(on_tx_done)
