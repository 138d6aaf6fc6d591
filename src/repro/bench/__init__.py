"""Benchmark harness: the experiment data functions (``experiments``,
``critpath``), their rendering (``report``) and the one producer of
every tracked table (``python -m repro.bench``)."""
