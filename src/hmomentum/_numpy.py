"""numpy for the package's modules, imported at its first use.

Every module takes `np` from here.  Where numpy is already imported, `np`
is numpy itself.  Otherwise it is a module made by the standard library's
lazy loader (`importlib.util.LazyLoader`), which runs numpy's import at
its first attribute access and from then on is the plain numpy module, so
an array path reads the same numpy as before.  A command that needs no
array, `eval` and every usage error, then never imports numpy, which is
most of a cold start.  The lazy module goes into sys.modules, as an eager
import's would: numpy's own relative imports look it up there, and a later
`import numpy` anywhere gets the same module.  The first load is not
guarded against two threads touching it at once; CPython added that guard
to LazyLoader later (gh-114763).  This module holds no physics and imports
only the standard library.
"""

import importlib.util
import sys


def _numpy():
    """sys.modules' numpy, else a lazy numpy registered there."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
