"""The per-node-checking tape that the engine's finiteness rule is tested against."""

import numpy as np

from imvalign import autodiff as ad


class CheckingTape(ad.Tape):
    """A tape that raises :class:`NonFiniteError` at the first NaN or
    infinite output, before recording it."""

    def record(self, name, out_data, backward):
        if not np.isfinite(out_data).all():
            raise ad.NonFiniteError(name, len(self.nodes))
        return super().record(name, out_data, backward)
