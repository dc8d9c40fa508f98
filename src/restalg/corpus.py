"""The default verification corpus.

Small unital inverse semigroups of different flavours (groups, chains of
idempotents, symmetric inverse monoids, a Brandt semigroup with identity)
plus, on request, the zero-adjoined semigroup of each.
"""

from __future__ import annotations

from functools import lru_cache

from .families import (
    adjoin_identity,
    gen_brandt,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from .restricted import build_restricted_semigroup

@lru_cache(maxsize=1)
def _base_members():
    return (
        ("trivial", gen_group("cyclic", 1)),
        ("Z2", gen_group("cyclic", 2)),
        ("Z4", gen_group("cyclic", 4)),
        ("S3", gen_group("symmetric", 3)),
        ("chain2", gen_chain_semilattice(2)),
        ("chain3", gen_chain_semilattice(3)),
        ("chain4", gen_chain_semilattice(4)),
        ("I1", gen_symmetric_inverse_monoid(1)),
        ("I2", gen_symmetric_inverse_monoid(2)),
        ("I3", gen_symmetric_inverse_monoid(3)),
        ("B2_1", adjoin_identity(gen_brandt([[0]], 2))),
    )


def restricted_of(label):
    base = dict(_base_members())
    if label in base:
        return build_restricted_semigroup(base[label])
    raise KeyError(label)


def default_corpus(include_restricted=True):
    """(label, semigroup) pairs; the zero-adjoined variants come after the
    base members, labelled "<base>_r"."""
    members = list(_base_members())
    if include_restricted:
        for label, _S in _base_members():
            members.append((label + "_r", restricted_of(label).sr))
    return members
