"""Import the package before any test module imports numpy.

``balanced_spectra`` defaults ``OPENBLAS_NUM_THREADS`` to 1 on import, and
OpenBLAS reads it only when numpy first loads.  Importing the package here
makes the tests run one BLAS thread per process, as the command-line program
does, and so compare the same eigenvalue bytes.
"""

import balanced_spectra  # noqa: F401
