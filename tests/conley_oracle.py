"""A check of the Conley index that no command runs, for the tests.

``block_independence`` is the check of acceptance criterion 7: two blocks
of one flow that isolate the same invariant set give equal HI.
"""
from mcfhom import conley
from mcfhom.config import DEFAULT


def block_independence(a, b, seed=0, coeff="Z", tols=DEFAULT):
    """(equal, ra, rb): whether the systems a and b, which must share one
    field, give equal HI, and their two ``compute_HI`` results."""
    conley._shared((a, b), "field")
    ra, rb = (conley.compute_HI(s, seed=seed, coeff=coeff, tols=tols)
              for s in (a, b))
    return ra.homology == rb.homology, ra, rb
