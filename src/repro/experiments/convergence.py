"""Registration convergence and cache ablation experiments (E3, A2)."""

from __future__ import annotations

from repro.core.config import SiphocConfig
from repro.core.manet_slp import ManetSlpConfig
from repro.experiments.tables import Table
from repro.scenarios import ManetConfig, ManetScenario
from repro.slp.service import SERVICE_SIP_CONTACT


def convergence_table(
    routings: tuple[str, ...] = ("aodv", "olsr"),
    n_nodes: int = 9,
    seeds: tuple[int, ...] = (1, 2, 3),
) -> Table:
    """E3: how long until a fresh binding is resolvable network-wide.

    AODV (reactive) resolves on demand via the in-band query, so the
    relevant latency is per-lookup; OLSR (proactive) floods adverts with
    routing traffic, so the cache converges without any lookups at all.
    """
    table = Table(
        title="E3: registration availability",
        columns=["routing", "mode", "mean_s", "max_s", "resolved"],
    )
    for routing in routings:
        proactive_times: list[float] = []
        lookup_times: list[float] = []
        resolved = 0
        attempts = 0
        for seed in seeds:
            scenario = ManetScenario(
                ManetConfig(
                    n_nodes=n_nodes,
                    topology="grid",
                    routing=routing,
                    seed=seed,
                    spacing=90.0,
                    tx_range=140.0,
                )
            )
            scenario.start()
            scenario.converge(20.0 if routing == "olsr" else 5.0)
            registered_at = scenario.sim.now
            scenario.add_phone(0, "alice")
            predicate = "(user=sip:alice@voicehoc.ch)"
            far_slp = scenario.stacks[-1].manet_slp

            # Proactive convergence: when does the far cache hold the entry?
            if scenario.sim.run_until(
                lambda: bool(far_slp.lookup_cached(SERVICE_SIP_CONTACT, predicate)),
                timeout=45.0,
                step=0.2,
            ):
                proactive_times.append(scenario.sim.now - registered_at)

            # On-demand lookup latency from the far corner.
            results: list[float] = []
            start = scenario.sim.now
            far_slp.find_services(
                SERVICE_SIP_CONTACT,
                predicate,
                callback=lambda entries: results.append(
                    scenario.sim.now - start if entries else float("nan")
                ),
            )
            scenario.sim.run_until(lambda: bool(results), timeout=10.0)
            attempts += 1
            if results and results[0] == results[0]:
                resolved += 1
                lookup_times.append(results[0])
            scenario.stop()
        if proactive_times:
            table.add_row(
                routing,
                "proactive cache fill",
                sum(proactive_times) / len(proactive_times),
                max(proactive_times),
                f"{len(proactive_times)}/{len(seeds)}",
            )
        table.add_row(
            routing,
            "on-demand lookup",
            sum(lookup_times) / len(lookup_times) if lookup_times else float("nan"),
            max(lookup_times) if lookup_times else float("nan"),
            f"{resolved}/{attempts}",
        )
    return table


def cache_ablation_table(
    lifetimes: tuple[float, ...] = (10.0, 30.0, 120.0),
    refresh_ratios: tuple[float, ...] = (0.5,),
    routing: str = "olsr",
    n_nodes: int = 9,
    seed: int = 2,
    observation: float = 60.0,
) -> Table:
    """A2: advert lifetime / refresh-rate ablation.

    Short lifetimes keep caches fresh but force constant re-advertisement;
    long lifetimes risk stale entries after a node leaves.
    """
    table = Table(
        title=f"A2: advert lifetime ablation ({routing})",
        columns=[
            "lifetime_s",
            "refresh_s",
            "hit_after_warmup",
            "stale_after_leave",
            "adverts_piggybacked",
        ],
    )
    for lifetime in lifetimes:
        for ratio in refresh_ratios:
            refresh = max(1.0, lifetime * ratio)
            slp_config = ManetSlpConfig(
                advert_lifetime=lifetime, refresh_interval=refresh
            )
            scenario = ManetScenario(
                ManetConfig(
                    n_nodes=n_nodes,
                    topology="grid",
                    routing=routing,
                    seed=seed,
                    spacing=90.0,
                    tx_range=140.0,
                    siphoc=SiphocConfig(slp=slp_config),
                )
            )
            scenario.start()
            scenario.converge(15.0)
            scenario.add_phone(0, "alice")
            predicate = "(user=sip:alice@voicehoc.ch)"
            far_slp = scenario.stacks[-1].manet_slp
            scenario.sim.run(scenario.sim.now + observation)
            hit = bool(far_slp.lookup_cached(SERVICE_SIP_CONTACT, predicate))
            # Node 0 leaves abruptly (no deregistration); probe the cache a
            # fixed 20 s later: short lifetimes have purged the ghost entry,
            # long ones still serve it — the freshness/overhead tradeoff.
            scenario.nodes[0].up = False
            scenario.sim.run(scenario.sim.now + 20.0)
            stale = bool(far_slp.lookup_cached(SERVICE_SIP_CONTACT, predicate))
            table.add_row(
                lifetime,
                refresh,
                hit,
                stale,
                scenario.stats.count("manetslp.adverts_piggybacked"),
            )
            scenario.stop()
    table.add_note(
        "stale_after_leave shows entries that outlive a crashed node for"
        " up to their advertised lifetime — the freshness/overhead tradeoff"
    )
    return table
