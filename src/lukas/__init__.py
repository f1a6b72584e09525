"""Lukasiewicz-style proof and refutation calculi for intermediate logics
and normal extensions of K4, with finite Kripke semantics as the oracle."""

__version__ = "0.1.0"
