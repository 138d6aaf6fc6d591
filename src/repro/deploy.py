"""One testbed, one builder: every evaluated deployment is assembled here.

The paper evaluates its systems on one testbed (Section VI-A): replica
machines on a LAN (quad 1 Gbps NICs, quad-core + HT), client machines
whose links can carry an extra 100 +/- 20 ms normally distributed delay
for the WAN scenarios, plus configurable client access bandwidth. Each
*system* is a short composition of the shared pieces below:

* :func:`build_baseline` — original Hybster with the client-side library
  ("BL"), PBFT-like read optimization available.
* :func:`build_troxy` — Troxy-backed Hybster; ``boundary`` selects
  *etroxy* (SGX costs), *ctroxy* (JNI costs, no enclave), or free;
  ``shards`` > 1 puts N agreement groups behind one shard router
  (docs/SHARDING.md).
* :func:`build_prophecy` — the Prophecy middlebox comparator.
* :func:`build_standalone` — one unreplicated server (the Jetty stand-in).

All four return the same :class:`Deployment`. A feature that is off is
not built (DESIGN.md D10): one group has no ring, router or migrator;
leases off means no lease counters or managers; the baselines have no
Troxy hosts. Absent parts are empty lists or ``None``, never missing
attributes, so tooling reads ``deployment.hosts`` / ``.router`` plainly.

This module sits below ``bench``, ``shard``, ``faults`` and ``obs`` in
the import graph; the shard pieces are imported only when ``shards`` > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from .apps.base import Application
from .baselines.prophecy import ProphecyMiddlebox
from .baselines.standalone import StandaloneServer
from .crypto.keys import KeyRing
from .hybster.client import BftClient, ClientMachine
from .hybster.config import ClusterConfig, LeaseConfig
from .hybster.replica import Replica
from .sgx.attestation import AttestationService, provision_keys
from .sgx.counters import TrustedCounterSubsystem
from .sgx.enclave import SGX_ECALL, Enclave, jni_enclave, null_enclave
from .sgx.sealed import SealedStorage
from .sim.engine import Environment
from .sim.network import LatencyModel, Network, NicConfig, NormalLatency, UniformLatency
from .sim.probe import Probe
from .sim.rng import RngTree
from .sim.trace import Tracer
from .troxy.cache import FastReadCache
from .troxy.core import TroxyCore
from .troxy.host import TroxyHost
from .troxy.lease import LeaseDirectory, LeaseGranter, LeaseHolder, LeaseManager
from .troxy.monitor import ConflictMonitor
from .troxy.prober import FastReadProber
from .workloads.legacy import LegacyClient

# Loaded GbE + kernel scheduling: tens-of-microseconds jitter. The
# jitter matters: replica execution skew is what makes concurrent
# reads conflict with in-flight writes (Fig. 10).
LAN_LATENCY = UniformLatency(30e-6, 90e-6)
WAN_DELAY = NormalLatency(0.100, 0.020)
MASTER_SECRET = b"troxy-repro-master-secret-0001"

#: ``boundary`` values of :func:`build_troxy`: "sgx" is etroxy (Troxy
#: inside an SGX enclave), "jni" is ctroxy (C/C++ outside SGX, reached
#: over JNI), "none" is a free boundary (ablations).
BOUNDARIES = ("sgx", "jni", "none")


# -- feature resolution -------------------------------------------------------------


def resolve_batching(batching: Union[bool, str, None]) -> bool:
    """Turn a batching knob into ``ClusterConfig.batching``.

    Accepts a bool or the strings "off"/"adaptive" as they arrive from
    the CLIs; None is off. Off is the paper's path, one request per
    ORDER/COMMIT round with no batch layer; on is the one adaptive
    policy of :mod:`repro.hybster.batching` (DESIGN.md D20).
    """
    if batching is None:
        return False
    if batching in ("off", "adaptive"):
        return batching == "adaptive"
    if not isinstance(batching, bool):
        raise ValueError(f"batching must be a bool, 'off' or 'adaptive': {batching!r}")
    return batching


def resolve_leases(leases: Union[LeaseConfig, bool, str, None]) -> LeaseConfig:
    """Turn a lease knob into a :class:`LeaseConfig`.

    Accepts a LeaseConfig (returned as-is), a bool, or the strings
    "on"/"off"; a lease duration is ``LeaseConfig.on(duration=...)``.
    """
    if leases is None:
        return LeaseConfig()
    if isinstance(leases, LeaseConfig):
        return leases
    if leases in ("on", "off"):
        leases = leases == "on"
    if not isinstance(leases, bool):
        raise ValueError(f"leases must be a LeaseConfig, a bool, 'on' or 'off': {leases!r}")
    return LeaseConfig.on() if leases else LeaseConfig()


_FEATURES = {"batching": resolve_batching, "leases": resolve_leases}


def resolve_features(f: int, config: Optional[ClusterConfig], **knobs) -> ClusterConfig:
    """The one place a feature is switched on: keyword, else ``config``, else off.

    ``knobs`` holds the feature keywords the calling system has
    (``batching=``, ``leases=``), each a bool, a typed config, the CLI
    string form, or None. Start from ``config`` (or ``ClusterConfig(f=f)``,
    every feature off) and apply each keyword that is given. A
    deployment is a function of its arguments and of nothing else.
    """
    config = config if config is not None else ClusterConfig(f=f)
    for name, value in knobs.items():
        if value is not None:
            config = replace(config, **{name: _FEATURES[name](value)})
    return config


# -- the deployment -----------------------------------------------------------------


@dataclass
class Group:
    """One agreement group: a leader, its followers, their Troxies."""

    group_id: str
    config: ClusterConfig
    replicas: list[Replica] = field(default_factory=list)
    hosts: list[TroxyHost] = field(default_factory=list)
    cores: list[TroxyCore] = field(default_factory=list)

    @property
    def leader(self) -> Replica:
        view = max(replica.view for replica in self.replicas)
        leader_id = self.config.leader_of(view)
        return next(r for r in self.replicas if r.replica_id == leader_id)


@dataclass
class Deployment:
    """A running deployment of any of the evaluated systems.

    ``replicas`` / ``hosts`` / ``cores`` flatten across ``groups``
    (group 0 first, so ``replica-{i}`` keep their historical indices);
    ``config`` and ``leader`` refer to group 0. Parts a system does not
    have are empty or ``None``: the baselines have no ``hosts``, the
    standalone server no ``replicas`` or ``attestation``, a one-group
    deployment no ``ring`` / ``router`` / ``migrator``.
    """

    env: Environment
    rng: RngTree
    probe: Probe
    tracer: Tracer
    net: Network
    keyring: KeyRing
    attestation: Optional[AttestationService] = None
    config: Optional[ClusterConfig] = None  # group 0's config
    groups: list[Group] = field(default_factory=list)
    replicas: list[Replica] = field(default_factory=list)
    hosts: list[TroxyHost] = field(default_factory=list)
    cores: list[TroxyCore] = field(default_factory=list)
    server: Optional[StandaloneServer] = None
    middlebox: Optional[ProphecyMiddlebox] = None
    ring: object = None  # repro.shard.HashRing
    router: object = None  # repro.shard.ShardRouter
    migrator: object = None  # repro.shard.ShardMigrator
    machines: list[ClientMachine] = field(default_factory=list)
    _client_counter: int = 0

    @property
    def leader(self) -> Replica:
        return self.groups[0].leader

    def group(self, gid: str) -> Group:
        return next(g for g in self.groups if g.group_id == gid)

    def host_of(self, replica_id: str) -> TroxyHost:
        return next(h for h in self.hosts if h.replica_id == replica_id)

    @property
    def endpoints(self) -> list:
        """The servers a legacy client may contact ("Troxy allows
        connections to any replica" of any group); empty for BL, whose
        clients carry the client-side library instead."""
        fronts = (self.server, self.middlebox)
        return self.hosts or [s for s in fronts if s is not None]

    def new_client(
        self,
        contact_index: Optional[int] = None,
        request_timeout: float = 2.0,
        *,
        read_optimization: bool = True,
        request_distribution: str = "leader",
    ):
        """A pre-connected client on the next client machine.

        Legacy clients contact the endpoints round-robin unless pinned;
        the shard topology stays invisible to them. The two keyword-only
        arguments configure BL's client-side library and apply to it
        alone.
        """
        machine = self.machines[self._client_counter % len(self.machines)]
        endpoints = self.endpoints
        if contact_index is None and endpoints:
            contact_index = self._client_counter % len(endpoints)
        self._client_counter += 1
        client_id = f"client-{self._client_counter}"
        if not endpoints:
            client = BftClient(
                machine,
                client_id=client_id,
                config=self.config,
                keyring=self.keyring,
                read_optimization=read_optimization,
                request_distribution=request_distribution,
            )
            client.connect(self.replicas)
            return client
        client = LegacyClient(
            machine,
            client_id=client_id,
            keyring=self.keyring,
            hosts=endpoints,
            contact_index=contact_index,
            request_timeout=request_timeout,
        )
        client.connect_instant()
        return client


# -- shared pieces ------------------------------------------------------------------


def _site(seed: int, trace: bool, attested: bool = True) -> Deployment:
    """The empty testbed: clock, RNG tree, probe bus, LAN, key ring and
    (for systems with enclaves) the attestation service. The trace log
    is the bus's first subscriber when ``trace`` asks for it."""
    env = Environment()
    rng = RngTree(seed)
    probe = Probe(env)
    tracer = Tracer()
    if trace:
        probe.subscribe(tracer)
    net = Network(env, rng_tree=rng, default_latency=LAN_LATENCY, probe=probe)
    return Deployment(
        env=env,
        rng=rng,
        probe=probe,
        tracer=tracer,
        net=net,
        keyring=KeyRing(MASTER_SECRET),
        attestation=AttestationService(MASTER_SECRET + b"/ias") if attested else None,
    )


def _add_group(site: Deployment, group: Group) -> None:
    if not site.groups:
        site.config = group.config
    site.groups.append(group)
    site.replicas.extend(group.replicas)
    site.hosts.extend(group.hosts)
    site.cores.extend(group.cores)


def _add_client_machines(
    site: Deployment, nic: Optional[NicConfig],
    wan: Optional[LatencyModel], servers, cores: int = 8,
) -> None:
    """The client side of the testbed: two machines with their access
    link, behind the WAN delay to every node in ``servers`` when ``wan``
    is set. ``cores`` defaults to ``Network.add_node``'s."""
    for i in range(2):
        node = site.net.add_node(f"client-machine-{i}", cores=cores, nic=nic)
        site.machines.append(ClientMachine(site.env, site.net, node))
    if wan is not None:
        for machine in site.machines:
            for server in servers:
                site.net.set_latency_symmetric(machine.node.name, server, wan)


def _hybster_server(
    site: Deployment, config: ClusterConfig, replica_id: str,
    app_factory: Callable[[], Application], cores: int, owns_inbox: bool = True,
) -> Replica:
    """One Hybster replica machine (BL, Prophecy and Troxy all run it):
    node, attested trusted subsystem, replica."""
    node = site.net.add_node(replica_id, cores=cores)
    site.attestation.register_platform(replica_id)
    # Hybster's own trusted subsystem runs in SGX reached over JNI. The
    # enclave is attested, then provisioned with the group secret; its
    # counters live in sealed storage (they survive enclave reboots).
    boundary = jni_enclave(
        node, f"tss-{replica_id}", code_identity="hybster-tss-v1", probe=site.probe
    )
    provisioned = provision_keys(
        site.attestation, replica_id, boundary, boundary.measurement, site.keyring
    )
    counters = TrustedCounterSubsystem(
        replica_id,
        provisioned.troxy_group(),
        storage=SealedStorage(MASTER_SECRET + replica_id.encode(), boundary.measurement),
    )
    return Replica(
        env=site.env,
        net=site.net,
        node=node,
        replica_id=replica_id,
        config=config,
        app=app_factory(),
        keyring=site.keyring,
        counters=counters,
        trusted_boundary=boundary,
        probe=site.probe,
        owns_inbox=owns_inbox,
    )


def _hybster_group(site, config, app_factory, cores) -> None:
    replicas = [
        _hybster_server(site, config, replica_id, app_factory, cores)
        for replica_id in config.replica_ids
    ]
    _add_group(site, Group("g0", config, replicas))


def _troxy_server(
    site: Deployment, config: ClusterConfig, replica_id: str,
    app_factory: Callable[[], Application], replica_cores: int, *,
    boundary: str, fast_reads: bool, monitor_factory,
    cache_outside: bool, epc_bytes: Optional[int], query_timeout: float,
    router=None, keys_fn=None,
):
    """One Troxy-backed server: the Hybster machine plus its Troxy.

    Returns ``(replica, host, core)``. ``router`` and ``keys_fn`` are
    None unless the deployment is sharded.
    """
    replica = _hybster_server(
        site, config, replica_id, app_factory, replica_cores, owns_inbox=False
    )
    node = replica.node
    if boundary == "sgx":
        enclave_kwargs = {} if epc_bytes is None else {"epc_bytes": epc_bytes}
        troxy_enclave = Enclave(
            node, f"troxy-{replica_id}", code_identity="troxy-v1",
            costs=SGX_ECALL, probe=site.probe, **enclave_kwargs,
        )
        runtime = "cpp_sgx"
    elif boundary == "jni":
        troxy_enclave = jni_enclave(
            node, f"troxy-{replica_id}", code_identity="troxy-v1", probe=site.probe
        )
        runtime = "cpp"
    else:
        troxy_enclave = null_enclave(node, f"troxy-{replica_id}", probe=site.probe)
        runtime = "cpp"
    # The Troxy enclave is attested before receiving the cluster keys.
    provisioned = provision_keys(
        site.attestation, replica_id, troxy_enclave, troxy_enclave.measurement,
        site.keyring,
    )
    lease_counters = None
    if config.leases.enabled:
        # The lease fence lives in the *Troxy* enclave (the tss counters
        # belong to Hybster's subsystem): its own sealed monotonic
        # counter survives enclave reboots, which is what stops a
        # rolled-back Troxy from re-installing an already-revoked lease.
        lease_counters = TrustedCounterSubsystem(
            f"troxy-{replica_id}",
            provisioned.troxy_group(),
            storage=SealedStorage(
                MASTER_SECRET + replica_id.encode() + b"/troxy-lease",
                troxy_enclave.measurement,
            ),
        )
        grantable = None
        if router is not None:
            # A group leader must only lease keys its group owns and
            # that are not pinned elsewhere or write-frozen by a
            # migration; ownership can change under it, so the veto is
            # evaluated at every grant.
            gid = router.group_of_replica(replica_id)

            def grantable(key):
                return router.group_of_key(key) == gid and not router.write_frozen(key)

        # Leader-side lease state (any replica may lead after a view
        # change, so every replica carries a manager + directory mirror).
        replica.leasing = LeaseGranter(
            replica,
            LeaseManager(
                replica_id, site.keyring.troxy_instance(replica_id), config.leases,
                grantable,
            ),
            LeaseDirectory(),
            keys_fn,
        )
    core = TroxyCore(
        node=node,
        enclave=troxy_enclave,
        replica_id=replica_id,
        config=config,
        keyring=provisioned,
        runtime=runtime,
        cache=FastReadCache(troxy_enclave, store_outside=cache_outside),
        monitor=monitor_factory() if monitor_factory else ConflictMonitor(),
        probe=site.probe,
    )
    # The enclave's roles (DESIGN.md D13): one per feature that is on.
    if fast_reads:
        core.prober = FastReadProber(core, site.rng.derive("troxy", replica_id))
    if lease_counters is not None:
        core.holder = LeaseHolder(core, lease_counters)
    if router is not None:
        from .shard.front import ShardFront

        core.front = ShardFront(core, router)
    host = TroxyHost(
        env=site.env,
        net=site.net,
        node=node,
        replica=replica,
        core=core,
        enclave=troxy_enclave,
        query_timeout=query_timeout,
        probe=site.probe,
    )
    return replica, host, core


# -- the four systems ---------------------------------------------------------------


def build_baseline(
    seed: int = 0,
    f: int = 1,
    app_factory: Callable[[], Application] = None,
    wan: Optional[LatencyModel] = None,
    client_nic: Optional[NicConfig] = None,
    replica_cores: int = 8,
    config: Optional[ClusterConfig] = None,
    batching: Union[bool, str, None] = None,
    trace: bool = False,
) -> Deployment:
    """Assemble the original Hybster deployment with client-side voting."""
    if app_factory is None:
        raise ValueError("app_factory is required")
    config = resolve_features(f, config, batching=batching)
    site = _site(seed, trace)
    _hybster_group(site, config, app_factory, replica_cores)
    _add_client_machines(site, client_nic, wan, config.replica_ids, cores=replica_cores)
    return site


def build_troxy(
    seed: int = 0,
    f: int = 1,
    app_factory: Callable[[], Application] = None,
    boundary: str = "sgx",
    fast_reads: bool = True,
    wan: Optional[LatencyModel] = None,
    client_nic: Optional[NicConfig] = None,
    replica_cores: int = 8,
    config: Optional[ClusterConfig] = None,
    batching: Union[bool, str, None] = None,
    leases: Union[LeaseConfig, bool, str, None] = None,
    monitor_factory: Callable[[], ConflictMonitor] = None,
    cache_outside: bool = True,
    epc_bytes: Optional[int] = None,
    query_timeout: float = 0.1,
    trace: bool = False,
    shards: int = 1,
) -> Deployment:
    """Assemble a Troxy-backed Hybster deployment.

    ``boundary`` selects the prototype variant: ``"sgx"`` is *etroxy*
    (enclave transition costs), ``"jni"`` is *ctroxy* (C/C++ outside
    SGX), ``"none"`` removes the boundary entirely (ablation).

    ``shards`` > 1 builds that many independent agreement groups — each
    with its own leader, trusted counters, batch assembler and fast-read
    caches — on the one network, behind one shared
    :class:`~repro.shard.router.ShardRouter`; every other knob applies
    uniformly to all groups. Group 0 keeps the historical ``replica-{i}``
    node names, later groups get a ``g{N}-`` prefix. The consistent-hash
    ring's vnode placement is derived from the deployment seed (its own
    RNG stream, so adding shards never perturbs protocol randomness).
    """
    if app_factory is None:
        raise ValueError("app_factory is required")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {sorted(BOUNDARIES)}: {boundary!r}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    base = resolve_features(f, config, batching=batching, leases=leases)
    if shards > 1 and base.replica_prefix:
        raise ValueError("a sharded deployment assigns group prefixes itself")
    configs = [base] + [replace(base, replica_prefix=f"g{g}-") for g in range(1, shards)]
    group_ids = [f"g{g}" for g in range(shards)]
    site = _site(seed, trace)

    router = keys_fn = None
    if shards > 1:
        from .shard.migrate import ShardMigrator, shard_keys_fn
        from .shard.ring import ring_from_rng
        from .shard.router import ShardRouter

        site.ring = ring_from_rng(group_ids, site.rng.derive("shard", "ring"))
        site.router = router = ShardRouter(
            site.ring, {gid: cfg.replica_ids for gid, cfg in zip(group_ids, configs)}
        )
        keys_fn = shard_keys_fn

    for gid, group_config in zip(group_ids, configs):
        group = Group(gid, group_config)
        for replica_id in group_config.replica_ids:
            replica, host, core = _troxy_server(
                site, group_config, replica_id, app_factory, replica_cores,
                boundary=boundary,
                fast_reads=fast_reads,
                monitor_factory=monitor_factory,
                cache_outside=cache_outside,
                epc_bytes=epc_bytes,
                query_timeout=query_timeout,
                router=router,
                keys_fn=keys_fn,
            )
            group.replicas.append(replica)
            group.hosts.append(host)
            group.cores.append(core)
        _add_group(site, group)

    _add_client_machines(
        site, client_nic, wan,
        [replica.replica_id for replica in site.replicas], cores=replica_cores,
    )
    if router is not None:
        site.migrator = ShardMigrator(site)
    return site


def build_standalone(
    seed: int = 0,
    app_factory: Callable[[], Application] = None,
    wan: Optional[LatencyModel] = None,
    client_nic: Optional[NicConfig] = None,
    trace: bool = False,
) -> Deployment:
    """Assemble a single non-fault-tolerant server (latency floor)."""
    if app_factory is None:
        raise ValueError("app_factory is required")
    site = _site(seed, trace, attested=False)
    node = site.net.add_node("server-0")
    site.server = StandaloneServer(site.env, site.net, node, app_factory())
    _add_client_machines(site, client_nic, wan, ["server-0"])
    return site


def build_prophecy(
    seed: int = 0,
    f: int = 1,
    app_factory: Callable[[], Application] = None,
    wan: Optional[LatencyModel] = None,
    client_nic: Optional[NicConfig] = None,
    replica_cores: int = 8,
    config: Optional[ClusterConfig] = None,
    trace: bool = False,
) -> Deployment:
    """Assemble the Prophecy comparator: replicas + middlebox + clients.

    The middlebox lives in the server-side LAN ("their voters are close
    to the replicas"); WAN delay, when configured, applies between the
    client machines and the middlebox.
    """
    if app_factory is None:
        raise ValueError("app_factory is required")
    config = config or ClusterConfig(f=f)
    site = _site(seed, trace)
    _hybster_group(site, config, app_factory, replica_cores)
    mb_node = site.net.add_node("prophecy-mb", cores=replica_cores)
    site.middlebox = ProphecyMiddlebox(
        env=site.env, net=site.net, node=mb_node, config=config,
        keyring=site.keyring, replicas=site.replicas,
        rng=site.rng.derive("prophecy"),
    )
    _add_client_machines(site, client_nic, wan, ["prophecy-mb"])
    return site
