"""Tests for the NAT model."""

from __future__ import annotations

import pytest

from repro import ZenFunction
from repro.network import (
    Header,
    NatRule,
    NatTable,
    Prefix,
    apply_nat,
    ip_to_int,
    make_header,
)


class TestNat:
    @pytest.fixture
    def table(self):
        return NatTable.of(
            "edge-nat",
            [
                NatRule(
                    match_src=Prefix.parse("192.168.0.0/16"),
                    translate_src=Prefix.parse("203.0.113.0/24"),
                ),
                NatRule(
                    match_dst=Prefix.parse("203.0.113.0/24"),
                    translate_dst=Prefix.parse("192.168.0.0/16"),
                    set_dst_port=8080,
                ),
            ],
        )

    def test_source_nat_preserves_host_bits(self, table):
        f = ZenFunction(lambda h: apply_nat(table, h), [Header])
        out = f.evaluate(make_header(src_ip=ip_to_int("192.168.5.7")))
        # /24 translation keeps the low 8 bits only.
        assert out.src_ip == ip_to_int("203.0.113.7")

    def test_destination_nat_and_port(self, table):
        f = ZenFunction(lambda h: apply_nat(table, h), [Header])
        out = f.evaluate(
            make_header(
                src_ip=ip_to_int("8.8.8.8"),
                dst_ip=ip_to_int("203.0.113.9"),
                dst_port=80,
            )
        )
        assert out.dst_port == 8080
        assert (out.dst_ip >> 16) == (ip_to_int("192.168.0.0") >> 16)

    def test_first_match_only(self, table):
        # A packet matching rule 1 must not also have rule 2 applied.
        f = ZenFunction(lambda h: apply_nat(table, h), [Header])
        out = f.evaluate(
            make_header(
                src_ip=ip_to_int("192.168.1.1"),
                dst_ip=ip_to_int("203.0.113.5"),
                dst_port=80,
            )
        )
        assert out.dst_port == 80  # rule 2 skipped

    def test_no_match_is_identity(self, table):
        f = ZenFunction(lambda h: apply_nat(table, h), [Header])
        pkt = make_header(src_ip=ip_to_int("8.8.8.8"))
        assert f.evaluate(pkt) == pkt

    @pytest.mark.parametrize("backend", ["sat", "bdd"])
    def test_find_pre_nat_packet(self, table, backend):
        """Invert the NAT: which input produces a given output address?"""
        f = ZenFunction(lambda h: apply_nat(table, h), [Header])
        witness = f.find(
            lambda h, out: out.src_ip == ip_to_int("203.0.113.42"),
            backend=backend,
        )
        assert witness is not None
        out = f.evaluate(witness)
        assert out.src_ip == ip_to_int("203.0.113.42")

    def test_nat_composition_with_verify(self, table):
        """Translated sources always land in the public prefix."""
        f = ZenFunction(lambda h: apply_nat(table, h), [Header])
        public = Prefix.parse("203.0.113.0/24")
        cex = f.verify(
            lambda h, out: (
                (h.src_ip & 0xFFFF0000) != ip_to_int("192.168.0.0")
            )
            | ((out.src_ip & public.mask) == public.address)
        )
        assert cex is None

