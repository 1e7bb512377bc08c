"""The request-level benchmark: four workloads over one shared world,
end-to-end metrics, and an outside-in per-layer trace (see README.md)."""
