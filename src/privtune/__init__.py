"""Privacy accounting for best-of-many hyper-parameter tuning.

The package bounds the privacy level of a tuning protocol that trains a
randomized number of candidate models under a differentially private
base mechanism and releases only the best one. It provides trade-off
curve primitives (:mod:`privtune.tradeoff`), run-count distributions
(:mod:`privtune.runcount`), the selection accountant and the prior
Renyi bound (:mod:`privtune.accountant`), exact finite-alphabet
selection computations (:mod:`privtune.discrete`), a Monte Carlo
distinguishing game that lower-bounds the true privacy level
(:mod:`privtune.audit`), and a command-line front end
(:mod:`privtune.cli`).
"""

__version__ = "0.1.0"
