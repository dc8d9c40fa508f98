"""Small helpers the tests share; the library has no use for them."""

import numpy as np

from restalg.corpus import default_corpus
from restalg.io_json import semigroup_to_dict


def corpus_member(label):
    """The default corpus member called ``label``, zero-adjoined ones
    included."""
    for name, S in default_corpus():
        if name == label:
            return S
    raise KeyError(f"unknown corpus member {label!r}")


def function_to_dict(f, *, semigroup_path=None):
    """The JSON object of a coefficient function, as the ``norm`` command
    reads it: its semigroup inline or as a path, its coefficients as
    [re, im] pairs."""
    sem = semigroup_path if semigroup_path else semigroup_to_dict(f.base)
    return {"semigroup": sem, "coeffs": [[float(c.real), float(c.imag)] for c in f.coeffs]}


def same_table(S, T):
    """Whether two semigroups have the same product table and involution."""
    return S.n == T.n and np.array_equal(S.mul, T.mul) and np.array_equal(S.star, T.star)
