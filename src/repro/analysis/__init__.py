"""Analysis layer: metrics aggregation, statistics, complexity fits,
regret curves, and paper-style table formatting."""
