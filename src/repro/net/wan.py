"""Wide-area links between LANs (§3.5's wide-area HUP).

"One way to construct a wide-area HUP is to *federate* multiple local
HUPs" — which makes cross-HUP traffic (above all, service image
downloads from an ASP repository in another site) traverse a WAN link.
A :class:`WanLink` joins two LANs through gateway NICs and carries
cross-site transfers with:

* fair sharing of the WAN bandwidth among concurrent cross transfers
  (per-flow caps recomputed as transfers join/leave),
* cut-through forwarding approximated by running the two LAN-side
  flows concurrently under the WAN cap (completion = both sides done),
* WAN propagation latency added once.

Intra-LAN traffic is untouched; the WAN appears to each LAN only as a
pair of ordinary (busy) NICs.

Two extensions serve the parallel federated simulator
(:mod:`repro.sim.parallel`):

* :class:`WanTransferDescriptor` — a picklable, pure-data description
  of a cross-cluster transfer.  Sub-kernel shards cannot hand each
  other live :class:`Flow` objects, so the message plane ships
  descriptors and each side applies the same closed-form timing
  (``latency + size / bandwidth``).  Descriptors allow ``size_mb == 0``
  (latency-only control messages); the flow-based
  :meth:`WanLink.transfer` requires a positive size, like the LAN.
* **Lookahead declaration** — :attr:`WanLink.lookahead_s` (and the
  descriptor's field of the same name) is the link's guaranteed lower
  bound on cross-cluster event propagation: no byte sent at ``t`` can
  be observed remotely before ``t + lookahead_s``.  Conservative
  parallel simulation synchronizes shards in epochs of the *minimum*
  lookahead over all inter-cluster links.

Fault hooks (:meth:`WanLink.stall` / :meth:`WanLink.restore`) mirror
the LAN's ``stall_nic``/``unstall_nic`` so the fault injector can
freeze a WAN link: a stalled link's gateway NICs are stalled on both
member LANs, pinning every active (and newly started) transfer at zero
rate until restore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.lan import LAN, Flow, NetworkInterface
from repro.sim.kernel import Event, Simulator

__all__ = ["WanTransfer", "WanTransferDescriptor", "WanLink"]


@dataclass(frozen=True)
class WanTransferDescriptor:
    """A serializable cross-shard WAN transfer (pure data, picklable).

    The analytic twin of a :class:`WanTransfer`: ``delivery_time``
    applies the link's propagation latency plus the serialization time
    of ``size_mb`` at the link rate, with no live simulator objects
    involved — both sides of an epoch barrier can evaluate it and agree
    bit-for-bit.  ``size_mb == 0`` models a latency-only control
    message (broker calls, placement broadcasts).
    """

    src: str
    dst: str
    size_mb: float
    bandwidth_mbps: float
    lookahead_s: float  # the link's declared latency lower bound
    label: str = ""

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise ValueError(f"size_mb must be non-negative, got {self.size_mb}")
        if self.bandwidth_mbps <= 0:
            raise ValueError(
                f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}"
            )
        if self.lookahead_s <= 0:
            raise ValueError(
                "a cross-shard link needs a positive lookahead "
                f"(latency), got {self.lookahead_s}"
            )

    @property
    def transfer_s(self) -> float:
        """Serialization time of the payload at the full link rate."""
        return self.size_mb * 8.0 / self.bandwidth_mbps

    def delivery_time(self, send_time: float) -> float:
        """When the last byte lands, for a send at ``send_time``."""
        return send_time + self.lookahead_s + self.transfer_s

    def segments(self, send_time: float) -> dict:
        """The hop as trace-span material, for a send at ``send_time``.

        The returned interval ``[start, end]`` has duration exactly
        ``latency_s + transfer_s``, so ``wan_transfer`` spans built from
        it tile the end-to-end path of a federated trace to 1e-9 (see
        :mod:`repro.obs.federation`).
        """
        return {
            "start": send_time,
            "end": self.delivery_time(send_time),
            "latency_s": self.lookahead_s,
            "transfer_s": self.transfer_s,
        }


class WanTransfer:
    """One cross-LAN transfer; ``done`` fires when the last byte lands.

    Like :class:`~repro.net.lan.Flow`'s, ``done`` fires with no value,
    so the transfer and its event form no cycle.
    """

    def __init__(self, link: "WanLink", flow_a: Flow, flow_b: Flow):
        self.link = link
        self.flow_a = flow_a
        self.flow_b = flow_b
        self.done: Event = Event(link.sim)
        self.started_at = link.sim.now
        self.finished_at: Optional[float] = None

    @property
    def size_mb(self) -> float:
        return self.flow_a.size_mb

    @property
    def elapsed(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.link.sim.now
        return end - self.started_at


class WanLink:
    """A bandwidth/latency pipe joining two LANs."""

    def __init__(
        self,
        sim: Simulator,
        lan_a: LAN,
        lan_b: LAN,
        bandwidth_mbps: float,
        latency_s: float = 0.030,
        name: str = "wan",
    ):
        if bandwidth_mbps <= 0:
            raise ValueError(f"WAN bandwidth must be positive, got {bandwidth_mbps}")
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {latency_s}")
        if lan_a is lan_b:
            raise ValueError("a WAN link must join two distinct LANs")
        self.sim = sim
        self.lan_a = lan_a
        self.lan_b = lan_b
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_s = latency_s
        self.name = name
        # Gateway routers: one NIC on each LAN, sized to the WAN rate so
        # the gateway itself never under-sells the pipe.
        self.gateway_a = lan_a.nic(f"{name}-gw-a", bandwidth_mbps)
        self.gateway_b = lan_b.nic(f"{name}-gw-b", bandwidth_mbps)
        self._active: List[WanTransfer] = []
        self._stalled = False

    def _side_of(self, nic: NetworkInterface) -> Optional[LAN]:
        for lan in (self.lan_a, self.lan_b):
            if lan._nics.get(nic.name) is nic:
                return lan
        return None

    @property
    def active_transfers(self) -> List[WanTransfer]:
        return list(self._active)

    # -- lookahead declaration (conservative parallel simulation) ----------
    @property
    def lookahead_s(self) -> float:
        """The guaranteed lower bound on cross-LAN event propagation.

        Propagation latency is paid by every transfer regardless of
        size, so nothing sent at ``t`` is observable on the far side
        before ``t + lookahead_s`` — the property conservative epoch
        synchronization rests on (see :mod:`repro.sim.parallel`).
        """
        return self.latency_s

    def describe(self, size_mb: float, label: str = "") -> WanTransferDescriptor:
        """A picklable descriptor of a transfer over this link."""
        return WanTransferDescriptor(
            src=self.gateway_a.name,
            dst=self.gateway_b.name,
            size_mb=size_mb,
            bandwidth_mbps=self.bandwidth_mbps,
            lookahead_s=self.latency_s,
            label=label or self.name,
        )

    # -- fault hooks (mirror LAN.stall_nic/unstall_nic) --------------------
    @property
    def stalled(self) -> bool:
        return self._stalled

    def stall(self) -> None:
        """Freeze the link: all transfers (current and new) stop moving.

        Implemented by stalling the gateway NIC on each member LAN, so
        the LAN allocators pin every flow through the gateways at zero
        rate.  Idempotent; transfers resume from their remaining bytes
        on :meth:`restore`.
        """
        if self._stalled:
            return
        self._stalled = True
        self.lan_a.stall_nic(self.gateway_a)
        self.lan_b.stall_nic(self.gateway_b)

    def restore(self) -> None:
        """Unfreeze the link; blocked transfers pick up where they left off."""
        if not self._stalled:
            return
        self._stalled = False
        self.lan_a.unstall_nic(self.gateway_a)
        self.lan_b.unstall_nic(self.gateway_b)

    def _reshare(self) -> None:
        """Fair WAN share for each active transfer, applied as caps."""
        if not self._active:
            return
        share = self.bandwidth_mbps / len(self._active)
        for transfer in self._active:
            for flow in (transfer.flow_a, transfer.flow_b):
                if flow.remaining_mb > 0:
                    flow.set_rate_cap(share)

    def transfer(
        self,
        src: NetworkInterface,
        dst: NetworkInterface,
        size_mb: float,
        label: str = "",
    ) -> WanTransfer:
        """Start a cross-LAN transfer from ``src`` to ``dst``."""
        if size_mb <= 0:
            raise ValueError(
                f"WAN transfer size must be positive, got {size_mb} "
                "(latency-only messages use WanTransferDescriptor)"
            )
        src_lan = self._side_of(src)
        dst_lan = self._side_of(dst)
        if src_lan is None or dst_lan is None:
            raise ValueError(
                f"endpoints must live on the linked LANs "
                f"(src={src.name!r}, dst={dst.name!r})"
            )
        if src_lan is dst_lan:
            raise ValueError(
                f"{src.name!r} and {dst.name!r} share a LAN; use LAN.transfer"
            )
        src_gateway = self.gateway_a if src_lan is self.lan_a else self.gateway_b
        dst_gateway = self.gateway_a if dst_lan is self.lan_a else self.gateway_b
        share = self.bandwidth_mbps / (len(self._active) + 1)
        flow_a = src_lan.transfer(
            src, src_gateway, size_mb, rate_cap_mbps=share, label=f"{label}:wan-in"
        )
        flow_b = dst_lan.transfer(
            dst_gateway, dst, size_mb, rate_cap_mbps=share, label=f"{label}:wan-out"
        )
        transfer = WanTransfer(self, flow_a, flow_b)
        self._active.append(transfer)
        self._reshare()

        both = self.sim.all_of([flow_a.done, flow_b.done])

        def _finish(_event: Event) -> None:
            self._active.remove(transfer)
            self._reshare()
            if self.latency_s > 0:
                delay = self.sim.timeout(self.latency_s)
                delay.callbacks.append(
                    lambda _ev: (_set_finished(), transfer.done.succeed())
                )
            else:
                _set_finished()
                transfer.done.succeed()

        def _set_finished() -> None:
            transfer.finished_at = self.sim.now

        both.callbacks.append(_finish)
        return transfer
