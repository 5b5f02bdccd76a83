"""Modules of the package imported at their first use: numpy, and the
package's own `transform` and `verification`.

`lazy(name)` returns the module `name`: the one in sys.modules where it is
already imported, and otherwise a module made by the standard library's
lazy loader (`importlib.util.LazyLoader`), which runs its import at its
first attribute access and from then on is the plain module, so that a
caller reads the same module as an eager import would give.  Every module
takes `np = lazy("numpy")` from here, and the package binds `transform`
and `verification` so (`hmomentum/__init__.py`).  A command that needs no
array, `eval` and every usage error, then never imports numpy, and only
`table`, `plot` and `verify` run the numerical transform and the checks,
which were most of a cold start.  The lazy module goes into sys.modules,
as an eager import's would: numpy's own relative imports look it up
there, a later `import numpy` anywhere gets the same module, and a tracer
finds each of the package's layers there.  The first load is not guarded
against two threads touching it at once; CPython added that guard to
LazyLoader later (gh-114763).  This module holds no physics and imports
only the standard library.
"""

import importlib.util
import sys


def lazy(name: str):
    """sys.modules' module `name`, else a lazy one registered there."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy("numpy")
