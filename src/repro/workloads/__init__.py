"""Random workload generation for benchmarks (seeded, reproducible)."""

from .generators import (
    chain_query,
    chain_topology,
    fat_tree,
    fat_tree_device,
    fat_tree_device_names,
    fat_tree_host_address,
    fat_tree_hosts,
    fat_tree_reach_query,
    random_acl,
    random_acl_rule,
    random_header,
    random_nat_rule,
    random_port_range,
    random_prefix,
    random_route_map,
    resolve_rng,
)

__all__ = [
    "chain_query",
    "chain_topology",
    "fat_tree",
    "fat_tree_device",
    "fat_tree_device_names",
    "fat_tree_host_address",
    "fat_tree_hosts",
    "fat_tree_reach_query",
    "random_acl",
    "random_acl_rule",
    "random_header",
    "random_nat_rule",
    "random_port_range",
    "random_prefix",
    "random_route_map",
    "resolve_rng",
]
