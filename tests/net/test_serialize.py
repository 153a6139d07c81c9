"""Round-trip tests for topology serialization."""

import json

import pytest

from repro.net import Network, ipv4_packet
from repro.net.errors import TopologyError
from repro.net.serialize import (load_network, network_from_dict,
                                 network_to_dict, save_network)
from repro.core.orchestrator import Orchestrator
from repro.topogen import small_internet
from tests.conftest import build_hub_network


def roundtrip(network: Network) -> Network:
    return network_from_dict(network_to_dict(network))


#: Edits that turn a valid topology document into a malformed one.
MALFORMED = {
    "json-list": lambda data: [data],
    "no-domains": lambda data: {key: value for key, value in data.items()
                                if key != "domains"},
    "router-without-asn": lambda data: {**data, "routers": [
        {key: value for key, value in router.items() if key != "asn"}
        for router in data["routers"]]},
    "relationships-not-object": lambda data: {**data, "domains": [
        {**domain, "relationships": 5} for domain in data["domains"]]},
    "string-cost": lambda data: {**data, "links": [
        {**link, "cost": "1"} for link in data["links"]]},
}


class TestRoundTrip:
    def test_stats_preserved(self):
        original = build_hub_network()
        clone = roundtrip(original)
        assert clone.stats() == original.stats()

    def test_addresses_preserved(self):
        original = build_hub_network()
        clone = roundtrip(original)
        for node_id, node in original.nodes.items():
            assert clone.node(node_id).ipv4 == node.ipv4
            assert clone.node(node_id).domain_id == node.domain_id

    def test_relationships_preserved(self):
        original = build_hub_network()
        clone = roundtrip(original)
        for asn, domain in original.domains.items():
            assert clone.domains[asn].relationships == domain.relationships
            assert clone.domains[asn].tier == domain.tier

    def test_link_state_preserved(self):
        original = build_hub_network()
        original.link_between("w1", "w2").fail()
        clone = roundtrip(original)
        assert not clone.link_between("w1", "w2").up

    def test_policy_flags_preserved(self):
        original = build_hub_network()
        original.domains[2].propagates_anycast = False
        clone = roundtrip(original)
        assert not clone.domains[2].propagates_anycast

    def test_generated_internet_roundtrip(self):
        original = small_internet(5).network
        clone = roundtrip(original)
        assert clone.stats() == original.stats()
        assert sorted(clone.links) == sorted(original.links)

    def test_forwarding_equivalence(self):
        """A reloaded topology converges to the same forwarding paths."""
        original = small_internet(5).network
        clone = roundtrip(original)
        orig_orch = Orchestrator(original, seed=1)
        clone_orch = Orchestrator(clone, seed=1)
        orig_orch.converge()
        clone_orch.converge()
        hosts = sorted(n.node_id for n in original.nodes.values() if n.is_host)
        for src, dst in zip(hosts[:5], hosts[-5:]):
            if src == dst:
                continue
            packet_a = ipv4_packet(original.node(src).ipv4,
                                   original.node(dst).ipv4)
            packet_b = ipv4_packet(clone.node(src).ipv4, clone.node(dst).ipv4)
            trace_a = orig_orch.forward(packet_a, src)
            trace_b = clone_orch.forward(packet_b, src)
            assert trace_a.node_path() == trace_b.node_path()


class TestFiles:
    def test_save_and_load(self, tmp_path):
        original = build_hub_network()
        path = tmp_path / "topology.json"
        save_network(original, path)
        clone = load_network(path)
        assert clone.stats() == original.stats()

    def test_file_is_json(self, tmp_path):
        path = tmp_path / "topology.json"
        save_network(build_hub_network(), path)
        data = json.loads(path.read_text())
        assert data["format"] == 1
        assert {"domains", "routers", "hosts", "links"} <= set(data)

    def test_unknown_format_rejected(self):
        with pytest.raises(TopologyError):
            network_from_dict({"format": 99})

    @pytest.mark.parametrize("field", ["cost", "delay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "inf", "negative"])
    def test_bad_link_values_rejected(self, field, value):
        # json.loads accepts the NaN and Infinity tokens; the loader
        # must still refuse the link they describe.
        data = network_to_dict(build_hub_network())
        data["links"][0][field] = value
        with pytest.raises(TopologyError, match=f"link {field}"):
            network_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_documents_rejected(self, edit, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(edit(network_to_dict(build_hub_network()))))
        with pytest.raises(TopologyError, match="topology"):
            load_network(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "topology.json"
        path.write_text('{"format": 1, "domains": [')
        with pytest.raises(TopologyError, match="cannot load topology"):
            load_network(path)
