"""Ring abstraction used by every transform in this package.

Set-function values are plain Python objects (ints for the prime field,
floats for f64); a Ring object supplies the arithmetic.  This keeps the
transforms generic: the same butterfly or matrix kernel runs over exact
modular arithmetic, floating point, or an operation-counting wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

MERSENNE61 = (1 << 61) - 1


class Ring:
    """Commutative ring contract: constants zero/one, operations add/neg/mul.

    sub and eq have default implementations; concrete rings may override
    them (sub counts as a single addition-class operation when counted).
    """

    id = "abstract"
    exact = True
    zero: object = None
    one: object = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return a == b

    def from_int(self, m):
        """Canonical image of a Python integer in the ring."""
        raise NotImplementedError

    def sample(self, rng):
        """Uniform random element, drawn from a random.Random instance."""
        raise NotImplementedError

    def sample_nonzero(self, rng):
        """Uniform random element excluding zero."""
        v = self.sample(rng)
        while self.eq(v, self.zero):
            v = self.sample(rng)
        return v


class PrimeField(Ring):
    """Integers modulo p (default 2^61 - 1), elements kept canonical in [0, p)."""

    id = "modp"
    exact = True

    def __init__(self, p: int = MERSENNE61):
        if p < 2:
            raise ValueError(f"modulus must be at least 2, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def from_int(self, m):
        return m % self.p

    def sample(self, rng):
        return rng.randrange(self.p)

    def sample_nonzero(self, rng):
        if self.p == 2:
            return 1
        return rng.randrange(1, self.p)

    def __repr__(self):
        return f"PrimeField(p={self.p})"


class Float64Ring(Ring):
    """IEEE double arithmetic.  Not exact: equality checks need tolerances."""

    id = "f64"
    exact = False
    zero = 0.0
    one = 1.0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def from_int(self, m):
        return float(m)

    def sample(self, rng):
        return rng.random()

    def __repr__(self):
        return "Float64Ring()"


@dataclass
class OpCounter:
    """Mutable add/mul tally.  neg and sub count as addition-class ops."""

    adds: int = 0
    muls: int = 0

    def reset(self):
        self.adds = 0
        self.muls = 0


class CountingRing(Ring):
    """Wrapper that counts ring operations while delegating to an inner ring.

    Constants (zero/one/from_int) are free.  The counter is a plain int
    tally, so a counted pipeline must stay single-threaded for the counts
    to be exact; every algorithm in this package is single-threaded.
    """

    def __init__(self, inner: Ring, counter: OpCounter | None = None):
        self.inner = inner
        self.counter = counter if counter is not None else OpCounter()
        self.id = inner.id
        self.exact = inner.exact
        self.zero = inner.zero
        self.one = inner.one

    def add(self, a, b):
        self.counter.adds += 1
        return self.inner.add(a, b)

    def neg(self, a):
        self.counter.adds += 1
        return self.inner.neg(a)

    def sub(self, a, b):
        self.counter.adds += 1
        return self.inner.sub(a, b)

    def mul(self, a, b):
        self.counter.muls += 1
        return self.inner.mul(a, b)

    def eq(self, a, b):
        return self.inner.eq(a, b)

    def from_int(self, m):
        return self.inner.from_int(m)

    def sample(self, rng):
        return self.inner.sample(rng)

    def sample_nonzero(self, rng):
        return self.inner.sample_nonzero(rng)

    def __repr__(self):
        return f"CountingRing({self.inner!r})"


def make_ring(ring_id: str, p: int | None = None) -> Ring:
    """Construct a ring from its CLI identifier ("modp" or "f64")."""
    if ring_id == "modp":
        return PrimeField(p if p is not None else MERSENNE61)
    if ring_id == "f64":
        if p is not None:
            raise ValueError("modulus only applies to the modp ring")
        return Float64Ring()
    raise ValueError(f"unknown ring {ring_id!r} (expected 'modp' or 'f64')")
