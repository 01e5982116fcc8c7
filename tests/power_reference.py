"""Reference powers of an element, which ``GradedMap``'s binomial series is
compared against.

``invert`` sums the geometric series of a unit, and ``power_by_squaring``
takes the e-th power of an element by repeated squaring, of its inverse
when e < 0.  Both multiply whole ``Element``s, so they read nothing of the
split c*u + rest that the binomial series uses.
"""

from spokeseq.algebra import Element
from spokeseq.errors import InvertibilityError


def invert(elt: Element) -> Element:
    """Inverse of a unit: one invertible term plus nilpotent terms.

    Writing elt = c*u + nu with u the one monomial the ring calls a unit,
    the inverse is u_inv * sum_k (-nu*u_inv)^k, and the series must
    terminate (nu nilpotent via truncation or exterior relations).
    """
    ring = elt.ring
    units = [(mono, c) for mono, c in elt.coeffs.items() if ring.is_unit_monomial(mono)]
    if len(units) != 1:
        raise InvertibilityError(
            f"element {elt!r} has {len(units)} invertible terms; need exactly 1"
        )
    ((mono, c),) = units
    u_inv = Element(ring, {ring.unit_inverse(mono): pow(c, ring.p - 2, ring.p)})
    one = Element.one(ring)
    # step = 1 - elt*u_inv = -nu*u_inv
    step = one + (elt * u_inv).scale(-1)
    total = power = one
    for _ in range(10_000):
        power = power * step
        if power.is_zero():
            return u_inv * total
        total = total + power
    raise InvertibilityError(f"geometric series for {elt!r} does not terminate")


def power_by_squaring(elt: Element, e: int) -> Element:
    """elt^e by repeated squaring, of ``invert(elt)`` when e < 0."""
    base = elt if e >= 0 else invert(elt)
    out = Element.one(elt.ring)
    e = abs(e)
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out
