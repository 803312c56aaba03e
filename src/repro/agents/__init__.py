"""Node agents: providers, collectors (with behaviour models), governors."""
