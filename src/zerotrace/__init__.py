"""zerotrace: exact combinatorics of zero-set trace families.

Given functions f_1..f_d from a domain into a field, the zero sets of
their nontrivial linear combinations form a set system on any finite
sample.  This package enumerates those trace families exactly over Q
and prime fields, measures them (VC dimension, Littlestone dimension,
both shatter profiles), constructs the extremal witnesses, and checks
every structural claim with an independent brute-force oracle.
"""

__version__ = "0.1.0"
