"""Incremental cluster validity indices for streaming data.

Four index variants (Xie-Beni and a squared-distance Davies-Bouldin relative,
each with and without an exponential forgetting factor) maintained in a single
pass over a stream, driven by sequential k-means or a simplified online
ellipsoidal clusterer.
"""

from .core import MembershipVector, PrototypeSet, StreamPoint
from .cvi import INDEX_FAMILIES, IndexSet
from .dispersion import Accumulators, new_accumulators, update_dispersion
from .engine import RunConfig, StreamEngine, run
from .oec import OecConfig, chi2_inverse, mahalanobis_sq, oec_init, oec_membership, oec_step
from .skmeans import SkMeansState, skmeans_init, skmeans_step

__version__ = "0.1.0"
