"""Network model substrate: capacitated digraphs, per-destination DAGs, paths."""
