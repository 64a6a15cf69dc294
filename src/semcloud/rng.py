"""numpy's legacy ``RandomState`` stream, drawn by the standard library.

``np.random.RandomState(seed)`` and ``random.Random`` run the same MT19937
generator (Matsumoto and Nishimura, ACM TOMACS 1998).  Loading the state
numpy builds from an integer seed into a ``random.Random`` gives its stream
bit for bit: ``random()`` is ``rand()`` (both are the 53-bit
``genrand_res53``), and ``randint(high)`` below is legacy ``randint(high)``.
A stage that only draws, such as ``gen``, ``pilot`` or ``simulate``, then
loads no numpy.
"""

import functools
import operator
import random


def check_seed(seed):
    """``seed`` as an int in ``[0, 2**32)``, the seeds numpy takes: a
    TypeError for anything that is not an integer, a ValueError out of range."""
    seed = operator.index(seed)
    if not 0 <= seed <= 0xFFFFFFFF:
        raise ValueError("Seed must be between 0 and 2**32 - 1, got %d" % seed)
    return seed


@functools.lru_cache(maxsize=64)
def _state(seed):
    """``setstate`` argument for numpy's integer seeding (``init_genrand``)."""
    mt = [seed]
    for i in range(1, 624):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return 3, tuple(mt) + (624,), None


class LegacyRandom(random.Random):
    """A ``random.Random`` that draws what ``np.random.RandomState(seed)`` draws.

    The seed is an integer in ``[0, 2**32)``, as numpy requires: anything
    that is not an integer (``None`` included, which numpy takes from OS
    entropy) is a TypeError, and an integer out of range a ValueError.
    Seeding loads a cached state, so reseeding costs microseconds.
    """

    def seed(self, seed):
        self.setstate(_state(check_seed(seed)))

    def randint(self, high):
        """Legacy ``RandomState.randint(high)`` for ``1 <= high <= 2**32``:
        32-bit draws masked to ``high - 1``'s bits until one is below ``high``."""
        if not 1 <= high <= 0x100000000:
            raise ValueError("need 1 <= high <= 2**32, got %r" % (high,))
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        mask = (1 << (high - 1).bit_length()) - 1
        while True:
            value = self.getrandbits(32) & mask
            if value < high:
                return value
