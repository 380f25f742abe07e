"""COYOTE's algorithmic core: DAG construction, splitting optimization, pipeline."""
