"""Worker-side importability: register this package for cloudpickle
by-value serialization.

The driver (harness) owns ``ray.init`` and may run from any cwd; Ray
workers then cannot resolve ``wine_label_ocr_ray`` by name (the package
is not installed site-wide) and every stage callable would fail to
deserialize — observed as an infinite retry hang, not an error. With
by-value registration the code ships inside the pickled callables, so
no worker-side import is needed at all.

Registering the top-level package is enough: cloudpickle pickles a
module by value when the module or any parent package is registered,
so no submodule needs importing here, and the driver imports only the
modules its pipeline uses.

Idempotent; called lazily by every pipeline/query builder.
"""

from __future__ import annotations

_done = False


def ensure_serializable() -> None:
    global _done
    if _done:
        return
    import ray.cloudpickle as cp

    import wine_label_ocr_ray

    cp.register_pickle_by_value(wine_label_ocr_ray)
    _done = True
