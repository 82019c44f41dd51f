"""Ring abstraction used by every transform in this package.

Set-function values are plain Python objects (ints for the prime field,
floats for f64); a Ring object supplies the arithmetic.  This keeps the
transforms generic: one executor runs the fast transforms, the zeta and
Moebius transforms and the DAG rounds on arrays over any ring, in one of
two element forms (`arrays.element_form`).  Exactly
`PrimeField(2^61 - 1)` takes the uint64 form, with its own arithmetic
mod p (the `m61` module); every other ring, `CountingRing` and
`Float64Ring` included, the object form, whose operations are this
ring's methods.  Values come back as Python objects either way.
"""

from __future__ import annotations

from dataclasses import dataclass

MERSENNE61 = (1 << 61) - 1
# Miller-Rabin with these bases decides primality exactly below
# 3317044064679887385961981 (about 3.3e24); above it, it is a
# strong-probable-prime test.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over fixed prime bases (see _PRIME_BASES)."""
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


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


class PrimeField(Ring):
    """Integers modulo a prime p (default 2^61 - 1), kept canonical in [0, p)."""

    id = "modp"
    exact = True

    def __init__(self, p: int = MERSENNE61):
        if p < 2:
            raise ValueError(f"modulus must be at least 2, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
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
