"""Run the suite on one BLAS thread, as perfbench does.

Several tests assert a wall-clock order or bound; a multi-threaded BLAS next
to another BLAS process can make a 10 x 10 planar ``ibu`` take a second
instead of milliseconds.  The thread counts are read when numpy is first
imported, which happens after this file loads; a value already set in the
environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
