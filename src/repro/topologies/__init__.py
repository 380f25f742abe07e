"""Evaluation topologies: Internet Topology Zoo equivalents plus gadgets."""
