"""Destination-based routing configurations: splitting ratios + propagation."""
