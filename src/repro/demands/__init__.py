"""Traffic demand models: matrices, gravity/bimodal samplers, uncertainty sets."""
