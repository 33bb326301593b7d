"""Vectorized CSR graph kernels.

:mod:`~repro.kernels.biggraph` holds the chunked CSR metric kernels, which
run on a SimpleGraph's cached CSR snapshot (:mod:`~repro.kernels.csr`) and
on a BigGraph alike; :mod:`~repro.kernels.bfs` and
:mod:`~repro.kernels.betweenness` are the bit-parallel BFS and batched
Brandes sweeps behind them.  :mod:`~repro.kernels.rewiring` is the one
rewiring engine.  Callers import the kernel they need from its module.
"""
