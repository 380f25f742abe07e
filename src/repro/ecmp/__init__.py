"""Traditional TE with ECMP: link weights and equal-split shortest-path routing."""
