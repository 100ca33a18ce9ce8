"""Pipeline stages (Ray Data map/group functions)."""

from __future__ import annotations

import functools


def per_process(cls, **kwargs):
    """A ``map_batches`` task for the stateful stage ``cls``: each worker
    process builds ``cls(**kwargs)`` once and reuses it for every batch.
    Unlike a fixed actor pool, a task holds no CPU between batches, so
    the plan finishes at any ``num_cpus``."""
    items = tuple(sorted(kwargs.items()))

    def stage(batch):
        return _instance(cls, items)(batch)
    stage.__name__ = cls.__name__
    return stage


@functools.lru_cache(maxsize=8)
def _instance(cls, items):
    return cls(**dict(items))
