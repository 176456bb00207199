"""The numpy build that output bytes depend on: its version, the CPU
features its SIMD dispatch uses, and the OpenBLAS kernel it runs.

Output bytes are identical for one numpy build, dispatch level and BLAS
kernel; tools/output_digest.py and tools/bench_layers.py record these
beside their figures.
"""

import ctypes
import glob
import os

import numpy as np
from numpy._core import _multiarray_umath


def openblas_core():
    """The kernel name OpenBLAS chose (SkylakeX, Haswell, ...), read from the
    library bundled with numpy; "unknown" where that library or its symbol
    is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numpy_build():
    """numpy's version, baseline CPU features, the dispatch features found
    on this CPU (as space-separated names) and the OpenBLAS kernel."""
    features = _multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "cpu_baseline": " ".join(_multiarray_umath.__cpu_baseline__),
        "cpu_dispatch": " ".join(name for name in _multiarray_umath.__cpu_dispatch__
                                 if features.get(name)),
        "openblas_core": openblas_core(),
    }

