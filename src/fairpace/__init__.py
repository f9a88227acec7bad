"""Online fair allocation via paced first-price auctions.

The package simulates the pacing dynamics over item streams drawn from
i.i.d., corrupted, Markov, and periodic arrival models, solves the
box-constrained Eisenberg-Gale dual for hindsight and reference
benchmarks, and measures regret, envy, and convergence of utilities and
expenditures across repeated sample paths.

Every name is imported from the module that defines it, for example
`from fairpace.pace import run_pace`.
"""

__version__ = "0.1.0"
