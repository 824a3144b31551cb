"""Shared helpers for the benchmark suite."""


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a heavy end-to-end scenario with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
