"""A hardened socket replays a lost ack while it is itself sending.

The consumed counter is the hardened socket's ack, and a receiver
replays it when the sender's xmit word shows a retransmission.  If a
server's ack of the request is dropped and the server is already
blocked in its reply's send, only the reply's ack wait is running on
that end; it must wake on the client's retransmission and replay the
ack, or both ends retransmit until their budgets run out.
"""

from repro.sim.faults import Fault, FaultKind, FaultPlan, FaultSite
from tests.faults import harness

#: Every 2 us up to the echo's last packet (the connection is up at
#: about 3,268 us); some of these drops strike the server's ack.
DROP_TIMES = [2800.0 + 2.0 * i for i in range(260)]


def test_a_dropped_ack_never_stalls_both_ends():
    for t in DROP_TIMES:
        plan = FaultPlan([Fault(time=t, site=FaultSite.MESH_LINK,
                                kind=FaultKind.DROP)])
        outcome, system = harness.run_socket_exchange(
            0, variant="AU-2copy", nbytes=64, plan=plan)
        # The client always gets its echo.  Only the echo's own ack can
        # still be lost for good: the client has nothing left to send,
        # so nothing prompts a replay, and the server times out.
        assert outcome["client"] == "ok", (t, outcome)
