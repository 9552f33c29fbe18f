"""The client-facing surface of a replica (paper Fig. 16 L. 8-22).

Four replica kinds answer clients — Spider's execution replicas, its
agreement replicas in the Spider-0E variant, and the BFT and HFT
baselines — and the paper's comparison is only fair because one client
drives them all.  What they do for that client is the same four steps,
written here once: admit a request, answer a weak read, execute an agreed
request exactly once, MAC the reply.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.app.statemachine import is_read_only
from repro.core.messages import (
    ClientRequest,
    Reply,
    RequestWrapper,
    WeakRead,
    WeakReadReply,
)
from repro.crypto.primitives import attach_auth, make_mac, verify, verify_mac_vector


class ClientFacing:
    """Mixin over :class:`~repro.sim.node.Node`.

    The host provides ``app`` (the state machine), ``t`` (latest admitted
    or agreed counter per client), ``u`` (the reply cache: client ->
    ``(counter, result)``) and ``reply_group`` (the group id its wrappers
    and replies name).
    """

    executed_count = 0
    weak_read_count = 0

    def _admit(self, src, request: ClientRequest) -> Optional[RequestWrapper]:
        """Validate a request; the wrapper to order, or ``None``.

        The MAC vector is checked before the duplicate filter and the
        signature after it: a retry of the request answered last gets the
        cached reply again without costing a signature verification.
        Recording the counter in ``t`` is the host's business — a host
        that orders the request itself does it now, Spider-0E leaves it to
        the agreed stream.
        """
        body = request.body
        if body.client != src.name:
            return None
        if not verify_mac_vector(request.auth, body, body.client, self.name):
            return None
        if body.counter <= self.t.get(body.client, 0):
            cached = self.u.get(body.client)
            if cached is not None and cached[0] == body.counter:
                self._send_reply(body.client, cached[0], cached[1])
            return None
        if not verify(request.signature, body, signer=body.client):
            return None
        return RequestWrapper(body=body, signature=request.signature, group=self.reply_group)

    def _on_weak_read(self, src, message: WeakRead) -> None:
        if message.client != src.name:
            return
        if not verify_mac_vector(message.auth, message, message.client, self.name):
            return
        if not is_read_only(message.operation):
            return
        result = self.app.execute(message.operation)
        self.weak_read_count += 1
        reply = WeakReadReply(result=result, nonce=message.nonce, sender=self.name)
        reply = attach_auth(reply, mac=make_mac(self.name, message.client, reply))
        self.send(src, reply)

    def _execute_once(self, wrapper: RequestWrapper, reply: bool = True) -> bool:
        """Execute an agreed request unless the reply cache already covers
        its counter; True iff it executed."""
        body = wrapper.body
        cached = self.u.get(body.client)
        if cached is not None and cached[0] >= body.counter:
            return False
        result = self.app.execute(body.operation)
        self.executed_count += 1
        self.u[body.client] = (body.counter, result)
        self.t[body.client] = max(self.t.get(body.client, 0), body.counter)
        if reply:
            self._send_reply(body.client, body.counter, result)
        return True

    def _send_reply(self, client: str, counter: int, result: Any) -> None:
        target = self.network.nodes.get(client) if self.network else None
        if target is None:
            return
        reply = Reply(result=result, counter=counter, sender=self.name, group=self.reply_group)
        reply = attach_auth(reply, mac=make_mac(self.name, client, reply))
        self.send(target, reply)
