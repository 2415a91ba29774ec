"""Edge-server capacity allocation and waiting-time model.

Section II charges each user a waiting time ``wt_j^i`` "consumed when
waiting for the resource allocated by S", and Section III argues that too
much offloading "will inevitably increase the load of S".  The paper does
not pin down the allocation discipline, so three standard ones are
provided; all return a :class:`ServerAllocation` mapping each user to an
allocated capacity ``I_s^i`` and a waiting time.

* :class:`EqualShareAllocation` — capacity split evenly across users with
  remote work; no queueing (pure processor sharing).
* :class:`ProportionalShareAllocation` — capacity proportional to each
  user's remote load (weighted processor sharing); no queueing.
* :class:`FCFSQueueAllocation` — users are admitted in id order, each
  receiving full capacity but waiting for the work of everyone ahead; the
  default, because it makes the multi-user saturation of Figs. 6-8
  visible: waiting grows linearly in total offloaded work.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Mapping

from repro.mec.devices import EdgeServer
from repro.mec.energy import MIN_REMOTE_LOAD


@dataclass(frozen=True)
class ServerAllocation:
    """Per-user server capacity (``I_s^i``) and waiting time (``wt^i``)."""

    capacity: dict[str, float]
    waiting: dict[str, float]

    def capacity_for(self, user_id: str) -> float:
        """Allocated capacity for *user_id* (0 when nothing allocated)."""
        return self.capacity.get(user_id, 0.0)

    def waiting_for(self, user_id: str) -> float:
        """Waiting time for *user_id* (0 when not queued)."""
        return self.waiting.get(user_id, 0.0)


class AllocationPolicy(abc.ABC):
    """Strategy deciding how the edge server divides its capacity."""

    @abc.abstractmethod
    def allocate(
        self, server: EdgeServer, remote_loads: Mapping[str, float]
    ) -> ServerAllocation:
        """Return the allocation for the given per-user remote workloads.

        *remote_loads* maps user id to the total computation weight that
        user offloads; users at or below
        :data:`~repro.mec.energy.MIN_REMOTE_LOAD` are idle and receive no
        capacity and no waiting time.  A load above that floor must get
        capacity ``> 0``: formula (2) rejects a zero grant.
        """


class EqualShareAllocation(AllocationPolicy):
    """``I_s^i = C / n_active``; no queueing delay."""

    def allocate(
        self, server: EdgeServer, remote_loads: Mapping[str, float]
    ) -> ServerAllocation:
        active = [user for user, load in remote_loads.items() if load > MIN_REMOTE_LOAD]
        if not active:
            return ServerAllocation({}, {})
        share = server.total_capacity / len(active)
        return ServerAllocation(
            capacity={user: share for user in active},
            waiting={user: 0.0 for user in active},
        )


class ProportionalShareAllocation(AllocationPolicy):
    """``I_s^i`` proportional to the user's remote load; no queueing delay.

    Under proportional sharing every active user finishes its remote work
    in the same time ``total_load / C`` — the processor-sharing fluid
    limit.
    """

    def allocate(
        self, server: EdgeServer, remote_loads: Mapping[str, float]
    ) -> ServerAllocation:
        active = {user: load for user, load in remote_loads.items() if load > MIN_REMOTE_LOAD}
        if not active:
            return ServerAllocation({}, {})
        total = sum(active.values())
        return ServerAllocation(
            capacity={
                user: server.total_capacity * load / total for user, load in active.items()
            },
            waiting={user: 0.0 for user in active},
        )


class FCFSQueueAllocation(AllocationPolicy):
    """First-come-first-served: full capacity, queue-position waiting.

    Users are ordered by id (the arrival order in our simulations); user
    ``k`` waits for the cumulative remote work of users ``1..k-1`` divided
    by the server capacity.  This is the discipline under which "too much
    offloading will inevitably increase the load of S" bites hardest and
    the multi-user figures become interesting.
    """

    def allocate(
        self, server: EdgeServer, remote_loads: Mapping[str, float]
    ) -> ServerAllocation:
        active = [
            (user, load)
            for user, load in sorted(remote_loads.items())
            if load > MIN_REMOTE_LOAD
        ]
        capacity: dict[str, float] = {}
        waiting: dict[str, float] = {}
        backlog = 0.0
        for user, load in active:
            capacity[user] = server.total_capacity
            waiting[user] = backlog / server.total_capacity
            backlog += load
        return ServerAllocation(capacity, waiting)
