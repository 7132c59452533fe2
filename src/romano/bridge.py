"""Topic bridge between two broker networks.

Each end of the bridge is an ordinary client collocated with its broker.
It subscribes to an allow-list of bridged topics (exact names; the
broker has no wildcard matching) and forwards every matching delivery
to the far end over a reliable, ordered channel (a TCP-like pipe,
modeled as a lossless FIFO link with fixed latency).  The far end
republishes into its own network under the same topic.

A relay frame is a ``(sender, topic, data)`` tuple, the sender being the
forwarding relay's client id; each end keeps the frames it republishes
in ``crossings``.  Echo back into the bridge is cut at the broker: a
relay is a local client of its broker, and the broker never sends a
local client a copy of its own PUBLISH, so a message can cross at most
once.
"""

from __future__ import annotations

from typing import Optional

from .session import ACTIVE, ClientSession

BRIDGE_LATENCY_US = 50_000  # one-way delay of the relay channel


class BridgeEnd:
    """One side of the bridge.  Its owner pairs two ends by setting each
    one's ``peer`` to the other, then starts both."""

    def __init__(self, session: ClientSession,
                 topics: tuple[str, ...]) -> None:
        self.sim = session.sim
        self.session = session
        self.topics = topics
        self.peer: Optional["BridgeEnd"] = None  # set by the owner
        self.forwarded = 0
        self.republished = 0
        self.crossings: list[tuple[str, str, bytes]] = []  # relay frames
        session.on_message = self._on_local_delivery

    def start(self) -> None:
        def connected() -> None:
            for topic in self.topics:
                self.session.subscribe(topic)

        self.session.connect(on_ok=connected)

    def ready(self) -> bool:
        """Connected, with a topic id for every bridged topic."""
        return (self.session.state == ACTIVE
                and all(t in self.session.topic_ids for t in self.topics))

    # -- local network -> channel ------------------------------------------------

    def _on_local_delivery(self, topic: str, data: bytes) -> None:
        if topic not in self.topics:
            return
        self.forwarded += 1
        self.sim.call_at(self.sim.now + BRIDGE_LATENCY_US,
                         self.peer._on_channel,
                         (self.session.client_id, topic, data))

    # -- channel -> local network ---------------------------------------------------

    def _on_channel(self, frame: tuple[str, str, bytes]) -> None:
        _, topic, data = frame
        self.crossings.append(frame)
        self.republished += 1
        self.session.publish(topic, data)
