"""Batch cleaning of app-tagged encrypted mobile traffic.

Pipeline: ingest packets or flow tables, discard plaintext and known
background-service flows with lightweight DPI, cluster the remaining
encrypted flows per app, prune clusters by keep/drop rules, and score
the result by training a flow classifier against an oracle-cleaned
baseline.
"""

import os

# One BLAS thread per process. numpy's OpenBLAS otherwise starts a thread
# pool when numpy is imported, and another in every forked worker, where
# the pools of parallel workers contend for the same CPUs. It reads the
# variable only when numpy is first imported, so a program that imports
# numpy before flowclean keeps its threads, and a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
