"""HUP federation (paper §3.5 future work, implemented as an extension).

"One way to construct a wide-area HUP is to *federate* multiple local
HUPs, each having its own SODA Agent and Master."  The federation layer
here routes a service creation request across member HUPs (members keep
full autonomy: each has its own Agent, Master, accounts and billing),
and remembers the placement so teardown/resizing reach the right HUP.

Member selection is pluggable: a *selection strategy* orders the
members to try for each request.  The default is first-fit in
registration order (the original behaviour); the market layer provides
a cheapest-spot-price strategy
(:func:`repro.market.placement.cheapest_spot_price`) so price-aware
federations route tenants to the member currently charging least.

The global tier of the sharded wide-area federation — the geo-aware
:class:`~repro.sim.parallel.GeoBroker` — lives in :mod:`repro.sim.parallel`,
next to the cluster shards that host it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.core.agent import ServiceCreationReply, SODAAgent
from repro.core.auth import Credentials
from repro.core.errors import AdmissionError, ServiceNotFoundError
from repro.core.policies import SwitchingPolicy
from repro.core.requirements import ResourceRequirement
from repro.image.repository import ImageRepository
from repro.sim.kernel import Event

__all__ = ["FederatedHUP", "first_fit", "nearest_first"]

#: A selection strategy: (requirement, members) -> member names in try order.
SelectionStrategy = Callable[
    [ResourceRequirement, Dict[str, SODAAgent]], Sequence[str]
]


def first_fit(
    requirement: ResourceRequirement, members: Dict[str, SODAAgent]
) -> List[str]:
    """The default strategy: members in registration order."""
    return list(members)


def nearest_first(
    origin: str, latency_s: Dict[tuple, float]
) -> SelectionStrategy:
    """A geo-aware strategy: members ordered by WAN latency from ``origin``.

    ``latency_s`` maps unordered cluster pairs (both ``(a, b)`` and
    ``(b, a)`` are accepted) to one-way WAN latency; ``origin`` itself
    costs zero.  Unknown pairs sort last.  Ties break by member name,
    so the ordering is deterministic.
    """

    def distance(member: str) -> tuple:
        if member == origin:
            return (0.0, member)
        lat = latency_s.get((origin, member), latency_s.get((member, origin)))
        return (lat if lat is not None else float("inf"), member)

    def strategy(
        requirement: ResourceRequirement, members: Dict[str, SODAAgent]
    ) -> List[str]:
        return sorted(members, key=distance)

    return strategy


class FederatedHUP:
    """Routes SODA API calls across multiple autonomous local HUPs."""

    def __init__(
        self,
        members: Dict[str, SODAAgent],
        selection: Optional[SelectionStrategy] = None,
    ):
        if not members:
            raise ValueError("a federation needs at least one member HUP")
        self.members = dict(members)
        self.selection = selection or first_fit
        self._placements: Dict[str, str] = {}  # service -> member name

    def _candidate_order(self, requirement: ResourceRequirement) -> List[str]:
        """The members to try, in strategy order (validated)."""
        order = list(self.selection(requirement, dict(self.members)))
        unknown = [name for name in order if name not in self.members]
        if unknown:
            raise ValueError(
                f"selection strategy returned non-member HUP(s): {unknown}"
            )
        return order

    @property
    def member_names(self) -> List[str]:
        return list(self.members)

    def locate(self, service_name: str) -> str:
        """Which member hosts ``service_name``."""
        try:
            return self._placements[service_name]
        except KeyError:
            raise ServiceNotFoundError(
                f"service {service_name!r} not hosted in this federation"
            ) from None

    def service_creation(
        self,
        credentials: Credentials,
        service_name: str,
        repository: ImageRepository,
        image_name: str,
        requirement: ResourceRequirement,
        policy: Optional[SwitchingPolicy] = None,
    ) -> Generator[Event, Any, ServiceCreationReply]:
        """Create on the first member (in strategy order) that admits.

        Each member authenticates independently (autonomous management):
        the ASP must be registered with the member that ends up hosting.
        """
        if service_name in self._placements:
            raise AdmissionError(f"service {service_name!r} already placed")
        last_error: Optional[Exception] = None
        for member_name in self._candidate_order(requirement):
            agent = self.members[member_name]
            if not agent.master.can_admit(requirement):
                continue
            try:
                reply = yield from agent.service_creation(
                    credentials=credentials,
                    service_name=service_name,
                    repository=repository,
                    image_name=image_name,
                    requirement=requirement,
                    policy=policy,
                )
            except AdmissionError as exc:
                last_error = exc
                continue
            self._placements[service_name] = member_name
            return reply
        raise AdmissionError(
            f"no member HUP can admit {requirement} for {service_name!r}"
            + (f" (last error: {last_error})" if last_error else "")
        )

    def service_teardown(
        self, credentials: Credentials, service_name: str
    ) -> Generator[Event, Any, None]:
        member = self.locate(service_name)
        yield from self.members[member].service_teardown(credentials, service_name)
        del self._placements[service_name]

    def service_resizing(
        self,
        credentials: Credentials,
        service_name: str,
        repository: ImageRepository,
        n_new: int,
    ) -> Generator[Event, Any, Any]:
        member = self.locate(service_name)
        record = yield from self.members[member].service_resizing(
            credentials, service_name, repository, n_new
        )
        return record

    def total_services(self) -> int:
        return len(self._placements)
