"""Double-pushout graph transformation over finite labelled directed graphs.

The engine provides the set-theoretic constructions (gluing, deletion,
pullback), decidable pushout/pullback recognition for squares of injective
morphisms, rule application guarded by the dangling condition, and a
constructive commutation for parallel independent derivations.
"""

__version__ = "0.1.0"
