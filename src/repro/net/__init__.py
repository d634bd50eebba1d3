"""Network substrate.

Models the paper's 100 Mbps departmental LAN (§4) at flow granularity:

* :mod:`repro.net.lan` — a shared segment plus per-host NICs with
  max-min fair bandwidth sharing between concurrent flows (fluid model).
* :mod:`repro.net.ip` — IPv4 address pools; each SODA Daemon owns a
  disjoint pool to hand out to virtual service nodes (§4.3).
* :mod:`repro.net.http` — an HTTP/1.1 transfer model used for active
  service image downloading (§4.3) and for client request/response
  exchanges.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "http": ["HttpModel", "HttpTransferStats"],
    "ip": ["IPAddressPool", "IPPoolExhausted", "parse_ipv4"],
    "lan": ["LAN", "Flow", "NetworkInterface"],
})
