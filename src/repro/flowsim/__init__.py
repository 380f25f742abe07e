"""Traffic simulators: steady-state fluid loads and packet-level emulation."""
