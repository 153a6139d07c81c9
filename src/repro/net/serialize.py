"""Topology serialization: save and load internetworks as JSON.

Captures the durable facts of a :class:`~repro.net.network.Network` —
domains (with business relationships and policy flags), routers, hosts,
and links — so that a generated topology can be archived, shared, and
reloaded for reproducible experiments.  Control-plane and IPvN
deployment state is deliberately *not* serialized: it is derived state;
reload the topology and re-run the deployment script.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain, Relationship
from repro.net.errors import TopologyError
from repro.net.network import Network
from repro.net.node import Host, Router

FORMAT_VERSION = 1


def network_to_dict(network: Network) -> Dict:
    """A JSON-serializable snapshot of *network*'s topology."""
    domains = []
    for asn in sorted(network.domains):
        domain = network.domains[asn]
        relationships = {str(neighbor): rel.value
                         for neighbor, rel in sorted(domain.relationships.items())}
        domains.append({
            "asn": asn,
            "name": domain.name,
            "prefix": str(domain.prefix),
            "tier": domain.tier,
            "propagates_anycast": domain.propagates_anycast,
            "default_routed": domain.default_routed,
            "relationships": relationships,
        })
    routers = []
    hosts = []
    for node_id in sorted(network.nodes):
        node = network.nodes[node_id]
        record = {"id": node.node_id, "ipv4": str(node.ipv4),
                  "asn": node.domain_id}
        if isinstance(node, Host):
            record["access_router"] = node.access_router
            hosts.append(record)
        else:
            record["is_border"] = bool(getattr(node, "is_border", False))
            routers.append(record)
    links = []
    for key in sorted(network.links):
        link = network.links[key]
        endpoints = (link.a, link.b)
        if any(network.nodes[end].is_host for end in endpoints):
            continue  # host access links are recreated by add_host
        links.append({"a": link.a, "b": link.b, "cost": link.cost,
                      "delay": link.delay, "up": link.up})
    return {"format": FORMAT_VERSION, "domains": domains, "routers": routers,
            "hosts": hosts, "links": links}


def network_from_dict(data: Dict) -> Network:
    """Rebuild a :class:`Network` from :func:`network_to_dict` output.

    Raises :class:`TopologyError` for any malformed document: a
    non-object, a missing or mistyped field, or values the topology
    rejects.
    """
    if not isinstance(data, dict):
        raise TopologyError(
            f"topology document must be an object, got {type(data).__name__}")
    if data.get("format") != FORMAT_VERSION:
        raise TopologyError(
            f"unsupported topology format {data.get('format')!r}")
    try:
        return _build_network(data)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise TopologyError(f"malformed topology document: "
                            f"{type(exc).__name__}: {exc}") from exc


def _build_network(data: Dict) -> Network:
    network = Network()
    for record in data["domains"]:
        network.add_domain(Domain(asn=record["asn"], name=record["name"],
                                  prefix=Prefix.parse(record["prefix"]),
                                  propagates_anycast=record["propagates_anycast"],
                                  tier=record["tier"],
                                  default_routed=record.get(
                                      "default_routed", False)))
    for record in data["routers"]:
        network.add_router(record["id"], record["asn"],
                           is_border=record["is_border"],
                           ipv4=IPv4Address.parse(record["ipv4"]))
    # Relationships first (links validate borders, not relationships,
    # but keeping the domain records complete before wiring is tidier).
    for record in data["domains"]:
        domain = network.domains[record["asn"]]
        for neighbor, value in record["relationships"].items():
            domain.set_relationship(int(neighbor), Relationship(value))
    for record in data["links"]:
        link = network.add_link(record["a"], record["b"], cost=record["cost"],
                                delay=record["delay"])
        if not record["up"]:
            link.fail()
    for record in data["hosts"]:
        network.add_host(record["id"], record["asn"], record["access_router"],
                         ipv4=IPv4Address.parse(record["ipv4"]))
    return network


def save_network(network: Network, path: Union[str, Path]) -> None:
    """Write *network* to *path* as JSON."""
    Path(path).write_text(json.dumps(network_to_dict(network), indent=1))


def load_network(path: Union[str, Path]) -> Network:
    """Load a network previously written by :func:`save_network`.

    An unreadable file or invalid JSON raises :class:`TopologyError`,
    like a malformed document (:func:`network_from_dict`).
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise TopologyError(f"cannot load topology {str(path)!r}: "
                            f"{exc}") from exc
    return network_from_dict(data)
