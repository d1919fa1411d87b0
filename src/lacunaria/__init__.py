"""Exact-arithmetic and Monte Carlo laboratory for permuted lacunary sums.

Subpackages:

* :mod:`lacunaria.seqgen` -- integer sequence generators and validation
* :mod:`lacunaria.diophantine` -- solution counting for two- and multi-term
  linear equations over a sequence prefix
* :mod:`lacunaria.permute` -- index-window permutations and the pairing
  construction that breaks the Gaussian limit
* :mod:`lacunaria.spectra` -- exact rational variance computations via
  frequency-multiset expansion
* :mod:`lacunaria.simulate` -- fixed-point Monte Carlo of permuted partial
  sums and distributional statistics
* :mod:`lacunaria.cli` -- command-line driver with reproducible manifests
"""

__version__ = "0.2.0"
