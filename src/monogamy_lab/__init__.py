"""Monogamy of Bell-functional violations over no-signalling polytopes.

Exact-rational construction and LP verification of the chained multipartite
Bell functionals, their monogamy trade-offs with an outsider's correlations,
the resulting guessing-probability and key-rate bounds, and
randomness-amplification thresholds for partially free sources.
"""
