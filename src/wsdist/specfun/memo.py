"""A function's values at the keys met so far, each computed once."""

import numpy as np


class Memo:
    """fn's values at the keys met so far: the keys, sorted, with fn's
    values along the last axis.  fn maps a sorted 1-D array of keys not
    met before to its values there; where each value is fixed by its own
    key, a value read here has the bits of a lone call of fn."""

    def __init__(self, fn, keys, values):
        """keys and values: empty arrays of the keys' dtype and of the
        values' dtype and leading shape."""
        self.fn = fn
        # replaced as one tuple, so no reader pairs new keys with old values
        self.table = (keys, values)

    def __call__(self, keys):
        """fn's values at each key of the 1-D array keys."""
        known, values = self.table
        at = np.searchsorted(known, keys)
        inside = at < known.size
        hit = np.zeros(keys.shape, dtype=bool)
        hit[inside] = known[at[inside]] == keys[inside]
        if not hit.all():
            new = np.unique(keys[~hit])
            merged = np.concatenate((known, new))
            order = np.argsort(merged, kind="stable")
            known = merged[order]
            values = np.concatenate((values, self.fn(new)), axis=-1)[..., order]
            self.table = (known, values)
            at = np.searchsorted(known, keys)
        return values[..., at]
