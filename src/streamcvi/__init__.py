"""Incremental cluster validity indices for streaming data.

Four index variants (Xie-Beni and a squared-distance Davies-Bouldin relative,
each with and without an exponential forgetting factor) maintained in a single
pass over a stream, driven by sequential k-means or a simplified online
ellipsoidal clusterer. The root exports the run API; every other piece is
imported from its module.
"""

from .engine import RunConfig, StreamEngine, run

__version__ = "0.1.0"
