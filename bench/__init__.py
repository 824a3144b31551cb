"""The repository's benchmark: five workloads over the LOD pipeline,
end-to-end and per-layer metrics, a traced run. See ``bench/README.md``."""
