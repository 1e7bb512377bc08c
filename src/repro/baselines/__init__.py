"""Baseline access-control schemes the paper compares against.

* :mod:`repro.baselines.chaining` — capability chaining with indirection
  (Redell's scheme, fig 4.4): validation walks and cryptographically
  checks the whole delegation chain;
* :mod:`repro.baselines.icap` — I-Cap-style *store-revoked* validation
  (section 4.5's second approach): a revocation database consulted per
  access, growing without bound absent a collection scheme;
* :mod:`repro.baselines.refresh` — Lampson-style short-lived certificates
  that must be continually refreshed (section 4.14: "capabilities must
  be continually refreshed"), whose background cost OASIS's event-driven
  updates avoid.
"""

from repro.baselines.chaining import CapabilityChain, ChainedCapabilityScheme
from repro.baselines.icap import ICapScheme
from repro.baselines.refresh import RefreshScheme

__all__ = [
    "ChainedCapabilityScheme",
    "CapabilityChain",
    "ICapScheme",
    "RefreshScheme",
]
