"""Faults injected from outside the program, at the receiving endpoint.

A test wraps the callback attached at an address, the same seam wire
taps use, so production classes carry no switch for lost frames or a
host that is down.  A link that is down is the link's own
``LinkModel.connected`` flag.
"""
from romano import codec
from romano import mqttsn as sn
from romano.simnet import PORT_MQTTSN


def connection_ack(src: str, data: bytes) -> bool:
    """Matches a PUBLISH whose data is a ROMANO ConnectionAck."""
    return (len(data) > 7 and data[1] == sn.MsgType.PUBLISH
            and data[7] == codec.DataType.CONNECTION_ACK)


class Swallow:
    """Swallow frames arriving at (addr, port) that match ``pred(src, data)``.

    ``pred=None`` matches every frame, so the host hears nothing, as if
    it were down.  ``count=None`` swallows without limit; otherwise the
    first ``count`` matches go.  ``lift()`` lets everything through again.

    The frame is swallowed at delivery, so frames already in flight when
    the swallow is installed are matched too; the network counts a
    swallowed frame as delivered, since the link carried it.
    """

    def __init__(self, net, addr, pred=None, count=None, port=PORT_MQTTSN):
        inner = net.endpoint(addr, port)
        if inner is None:
            raise ValueError(f"nothing attached at {addr} port {port}")
        self.pred = pred
        self.count = count
        self.swallowed = 0
        self.lifted = False

        def receive(src: str, data: bytes) -> None:
            if self._matches(src, data):
                self.swallowed += 1
            else:
                inner(src, data)

        net.attach(addr, receive, port)

    def _matches(self, src: str, data: bytes) -> bool:
        if self.lifted or (self.count is not None
                           and self.swallowed >= self.count):
            return False
        return self.pred is None or self.pred(src, data)

    def lift(self) -> None:
        self.lifted = True
