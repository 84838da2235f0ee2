"""Deterministic discrete-event network simulator.

This is the substrate that replaces the paper's physical testbed (laptops,
iPAQs, 802.11 ad hoc radios, firewall-enforced multihop): a virtual clock,
a unit-disk wireless medium, Linux-like nodes with UDP sockets and netfilter
hook chains, node mobility, and a wired Internet cloud with DNS.
"""

from repro.netsim.capture import (
    CapturedFrame,
    Chain,
    NetfilterHooks,
    PacketCapture,
    Verdict,
)
from repro.netsim.energy import EnergyCoefficients, EnergyModel, WAVELAN_2MBPS
from repro.netsim.holdtable import HoldTable
from repro.netsim.internet import DnsService, InternetCloud, make_internet_host
from repro.netsim.medium import WirelessMedium
from repro.netsim.mobility import (
    RandomWaypointMobility,
    ReferencePointGroupMobility,
    place_chain,
    place_grid,
    place_random,
)
from repro.netsim.node import Node, Router, StaticRouter, UdpSocket
from repro.netsim.packet import (
    BROADCAST,
    FRAMING_BYTES,
    PORT_AODV,
    PORT_OLSR,
    PORT_SIP,
    PORT_SIPHOC_CTRL,
    PORT_SIPHOC_TUNNEL,
    PORT_SLP,
    Datagram,
    Packet,
    internet_ip,
    is_internet_address,
    is_manet_address,
    manet_ip,
)
from repro.netsim.simulator import EventHandle, PeriodicTask, Simulator
from repro.netsim.stats import SampleSeries, Stats, TrafficCounter

__all__ = [
    "BROADCAST",
    "CapturedFrame",
    "Chain",
    "Datagram",
    "DnsService",
    "EnergyCoefficients",
    "EnergyModel",
    "EventHandle",
    "FRAMING_BYTES",
    "HoldTable",
    "InternetCloud",
    "NetfilterHooks",
    "Node",
    "PORT_AODV",
    "PORT_OLSR",
    "PORT_SIP",
    "PORT_SIPHOC_CTRL",
    "PORT_SIPHOC_TUNNEL",
    "PORT_SLP",
    "Packet",
    "PacketCapture",
    "PeriodicTask",
    "RandomWaypointMobility",
    "ReferencePointGroupMobility",
    "Router",
    "SampleSeries",
    "Simulator",
    "StaticRouter",
    "Stats",
    "TrafficCounter",
    "UdpSocket",
    "Verdict",
    "WAVELAN_2MBPS",
    "WirelessMedium",
    "internet_ip",
    "is_internet_address",
    "is_manet_address",
    "make_internet_host",
    "manet_ip",
    "place_chain",
    "place_grid",
    "place_random",
]
