"""Protocol registry: resolve protocol variants by name.

Every experiment entry point used to carry its own copy of the
protocol dispatch — an if-chain over ``build_rbft`` / ``build_aardvark``
/ ``build_spinning`` / ``build_prime`` / ``build_pbft`` plus the
per-variant config tweaks.  This module is the single source of truth
instead: each :class:`ProtocolSpec` bundles the variant's

* **config factory** — ``(f, scale) -> protocol config``, applying the
  variant-specific knobs (``rbft-full-order`` orders full requests,
  ``aardvark-no-vc`` disables the grace-period view change, ...);
* **node factory** — the node class the builder instantiates on each
  machine;
* **builder** — the deployment builder in
  :mod:`repro.experiments.deployments` that wires the cluster, resolved
  lazily so this module never imports the experiment layer at import
  time (the experiment layer imports *us*).

``get(name)`` raises ``ValueError`` for unknown names; ``names()``
returns the registered variants in registration order (the public
``PROTOCOL_VARIANTS`` tuple).  ``register()`` lets external code add a
variant — the only supported way to extend the protocol dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Tuple

__all__ = ["ProtocolSpec", "register", "get", "names"]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything needed to stand up one protocol variant by name."""

    name: str
    #: ``(f, scale) -> config`` — scale supplies monitoring/grace periods.
    config_factory: Callable
    #: node class; the builder instantiates one per machine.
    node_factory: Callable
    #: attribute name of the builder in ``repro.experiments.deployments``.
    builder_name: str
    #: static builder keyword overrides (e.g. ``{"tcp": False}``).
    build_kwargs: Mapping = field(default_factory=dict)

    @property
    def builder(self) -> Callable:
        """The deployment builder (lazy: avoids a circular import)."""
        from repro.experiments import deployments

        return getattr(deployments, self.builder_name)

    def build(
        self,
        f: int,
        scale,
        *,
        payload: int = 8,
        n_clients: int = 10,
        service_factory: Callable = None,
        seed: int = 0,
        link=None,
        topology=None,
        clients_factory: Callable = None,
    ):
        """Make the variant's config and stand up its deployment."""
        config = self.config_factory(f, scale)
        kwargs = dict(self.build_kwargs)
        if service_factory is not None:
            kwargs["service_factory"] = service_factory
        if link is not None:
            kwargs["link"] = link
        if topology is not None:
            kwargs["topology"] = topology
        if clients_factory is not None:
            kwargs["clients_factory"] = clients_factory
        return self.builder(
            config, n_clients=n_clients, payload=payload, seed=seed, **kwargs
        )


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add (or replace) a variant; returns the spec for chaining."""
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ProtocolSpec:
    """Look up a variant by name; raises ``ValueError`` when unknown."""
    _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError("unknown protocol variant %r" % name) from None


def names() -> Tuple[str, ...]:
    """The registered variant names, in registration order."""
    _populate()
    return tuple(_REGISTRY)


def _populate() -> None:
    """Register the built-in variants on first use.

    Deferred so importing :mod:`repro.protocols` stays cheap and free of
    import cycles (the node classes live in packages that themselves
    import :mod:`repro.protocols`).
    """
    if _REGISTRY:
        return
    from repro.core import RBFTConfig, RBFTNode
    from repro.core.config import machine_cores
    from repro.protocols.aardvark import AardvarkConfig, AardvarkNode
    from repro.protocols.base import BftNode, NodeConfig
    from repro.protocols.pbft.engine import InstanceConfig
    from repro.protocols.prime import PrimeConfig, PrimeNode
    from repro.protocols.spinning import SpinningConfig, SpinningNode

    def rbft_config(full_order):
        def factory(f, scale):
            config = RBFTConfig(
                f=f,
                monitoring_period=scale.monitoring_period,
                order_full_requests=full_order,
                cores_per_machine=machine_cores(f),
            )
            # Each ordering round costs Θ(n²) certificate messages *per
            # instance*; at n in the hundreds, millisecond-paced rounds
            # would drown the deployment in PREPARE/COMMIT traffic for
            # near-empty batches.  Above the configurable pacing
            # threshold (default f > 3) rounds slow to the paced delay so
            # batches amortise the quadratic fan-out — and certificate
            # batching across instances activates automatically
            # (``RBFTConfig.batching_active``).  The f ≤ 3 testbed keeps
            # the paper's 1 ms and the exact path.
            if f > config.pacing_f_threshold:
                config = replace(config, batch_delay=config.paced_batch_delay)
            return config

        return factory

    def aardvark_config(view_change):
        def factory(f, scale):
            return AardvarkConfig(
                instance=InstanceConfig(f=f),
                grace_period=(scale.aardvark_grace if view_change else 1e9),
                requirement_period=scale.aardvark_period,
                heartbeat_timeout=0.2,
            )

        return factory

    def spinning_config(f, scale):
        return SpinningConfig(
            instance=InstanceConfig(f=f, auto_advance_view=True, multicast_auth=True)
        )

    def prime_config(f, scale):
        return PrimeConfig(f=f)

    def pbft_config(f, scale):
        return NodeConfig(instance=InstanceConfig(f=f))

    for name, config_factory, node_factory, builder_name, kwargs in (
        ("rbft", rbft_config(False), RBFTNode, "build_rbft", {}),
        ("rbft-udp", rbft_config(False), RBFTNode, "build_rbft", {"tcp": False}),
        ("rbft-full-order", rbft_config(True), RBFTNode, "build_rbft", {}),
        ("aardvark", aardvark_config(True), AardvarkNode, "build_aardvark", {}),
        ("aardvark-no-vc", aardvark_config(False), AardvarkNode, "build_aardvark", {}),
        ("spinning", spinning_config, SpinningNode, "build_spinning", {}),
        ("prime", prime_config, PrimeNode, "build_prime", {}),
        ("pbft", pbft_config, BftNode, "build_pbft", {}),
    ):
        register(
            ProtocolSpec(
                name=name,
                config_factory=config_factory,
                node_factory=node_factory,
                builder_name=builder_name,
                build_kwargs=kwargs,
            )
        )
