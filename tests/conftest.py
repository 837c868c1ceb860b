"""Import the package before any test module imports numpy.

``balanced_spectra`` sets ``OPENBLAS_THREAD_TIMEOUT`` on import, and OpenBLAS
reads it only when numpy first loads.  Importing the package here makes the
tests run OpenBLAS the way the command-line program does.
"""

import balanced_spectra  # noqa: F401
