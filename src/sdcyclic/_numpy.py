"""numpy, imported on first attribute access rather than at import time.

``count``, argument checks and every refusal are integer work, and the
numpy import is most of a command's start-up time; with ``np`` from here
those commands never pay for it.  No module reads ``np`` at import time
(module-level ``np.`` names are annotations, which stay strings).

``importlib.util.LazyLoader`` would do the same, but before Python 3.12 it
takes no lock: a second thread reading ``np`` while the first one's read
runs the import finds a half-filled module.  Here the first read runs
``import numpy``, which waits on the import lock, then takes numpy's
attributes and becomes a plain module, so later reads are plain module
lookups.
"""

import sys
import types


class _Numpy(types.ModuleType):
    def __getattr__(self, name: str):
        import numpy

        self.__dict__.update(vars(numpy))
        self.__class__ = types.ModuleType
        return getattr(numpy, name)


np = sys.modules.get("numpy") or _Numpy("numpy")
