"""Vectorized CSR graph kernels.

:mod:`~repro.kernels.biggraph` holds the one CSR class, ``BigGraph``, and the
chunked CSR metric kernels, which run on a BigGraph and on a SimpleGraph's
cached CSR view (itself a BigGraph) alike: among them the JDD and 3K
counters behind P_2 and P_3 extraction, and the component labels behind
every giant component; :mod:`~repro.kernels.bfs` and
:mod:`~repro.kernels.betweenness` are the bit-parallel BFS and batched
Brandes sweeps behind them.  :mod:`~repro.kernels.rewiring` is the one
rewiring engine.  Callers import the kernel they need from its module.
"""
