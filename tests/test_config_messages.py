"""Tests for configuration validation and protocol message invariants."""

import pytest

from repro.core import SpiderConfig
from repro.core.messages import (
    AddGroup,
    ClientRequest,
    Execute,
    RemoveGroup,
    Reply,
    RequestBody,
    RequestWrapper,
)
from repro.errors import ConfigurationError


class TestSpiderConfig:
    def test_defaults_are_valid(self):
        SpiderConfig().validate()

    def test_sizes(self):
        config = SpiderConfig(fa=2, fe=1)
        assert config.agreement_size == 7
        assert config.execution_size == 3

    def test_commit_capacity_covers_ke(self):
        config = SpiderConfig(ke=100, commit_capacity=10)
        assert config.commit_channel_capacity == 100
        config.validate()

    def test_rejects_negative_fa(self):
        with pytest.raises(ConfigurationError):
            SpiderConfig(fa=-1).validate()

    def test_rejects_fe_zero(self):
        with pytest.raises(ConfigurationError):
            SpiderConfig(fe=0).validate()

    def test_rejects_small_ag_window(self):
        with pytest.raises(ConfigurationError):
            SpiderConfig(ka=64, ag_window=32).validate()

    def test_rejects_unknown_irmc(self):
        with pytest.raises(ConfigurationError):
            SpiderConfig(irmc_kind="quantum").validate()

    def test_rejects_negative_z(self):
        with pytest.raises(ConfigurationError):
            SpiderConfig(z=-1).validate()

    def test_fa_zero_allowed_for_sequencers(self):
        config = SpiderConfig(fa=0)
        config.validate()
        assert config.agreement_size == 1

    def test_pbft_config_propagates_f(self):
        assert SpiderConfig(fa=2).pbft_config().f == 2


class TestMessageInvariants:
    def body(self, **overrides):
        defaults = dict(operation=("put", "k", "v"), client="c", counter=1)
        defaults.update(overrides)
        return RequestBody(**defaults)

    def test_request_body_equality_by_content(self):
        assert self.body() == self.body()
        assert self.body() != self.body(counter=2)

    def test_signed_content_excludes_authenticators(self):
        body = self.body()
        request_a = ClientRequest(body=body, signature=None, auth=None, group="g")
        request_b = ClientRequest(body=body, signature=None, auth=None, group="g")
        assert request_a.body.signed_content() == request_b.body.signed_content()

    def test_wrapper_content_binds_group(self):
        wrapper_a = RequestWrapper(body=self.body(), signature=None, group="g0")
        wrapper_b = RequestWrapper(body=self.body(), signature=None, group="g1")
        assert wrapper_a.signed_content() != wrapper_b.signed_content()

    def test_execute_sizes(self):
        wrapper = RequestWrapper(body=self.body(), signature=None, group="g0")
        full = Execute(seq=1, request=wrapper)
        placeholder = Execute(seq=1, request=None, placeholder=("read", "c", 1))
        assert placeholder.size_bytes() < full.size_bytes()

    def test_execute_of_writes_the_three_literal_wire_shapes(self):
        """``Execute.of`` / ``slots()`` are the only code that knows the
        wire shapes: what ``of`` builds is repr-, size- and digest-identical
        to the literal construction (simulated hashing is charged by repr
        length), and ``slots()`` reads every shape back."""
        from repro.crypto.primitives import digest

        wrapper = RequestWrapper(body=self.body(), signature=None, group="g0")
        read = ("read", "c", 1)
        shapes = [
            (Execute(seq=3, request=wrapper), (wrapper,), False),
            (Execute(seq=3, request=None, placeholder=read), (read,), False),
            (Execute(seq=3, request=None, batch=(wrapper, read)), (wrapper, read), True),
            (Execute(seq=3, request=None, batch=(wrapper,)), (wrapper,), True),  # not collapsed
        ]
        for literal, slots, batched in shapes:
            built = Execute.of(3, slots, batched)
            assert built == literal
            assert repr(built) == repr(literal)
            assert built.payload_size() == literal.payload_size()
            assert digest(built) == digest(literal)
            assert built.slots() == slots
            assert Execute.of(literal.seq, literal.slots(), literal.batch is not None) == literal
        assert len({repr(literal) for literal, _, _ in shapes}) == len(shapes)

    def test_reply_mac_binds_all_fields(self):
        reply = Reply(result=("ok", 1), counter=3, sender="e0", group="g0")
        content = reply.signed_content()
        assert "('ok', 1)" in str(content)
        assert 3 in content and "e0" in content

    def test_admin_messages_carry_nonce(self):
        add = AddGroup(group="g", members=("a", "b"), admin="admin", nonce=7)
        remove = RemoveGroup(group="g", admin="admin", nonce=8)
        assert 7 in add.signed_content()
        assert 8 in remove.signed_content()
        assert add.signed_content() != AddGroup(
            group="g", members=("a", "b"), admin="admin", nonce=9
        ).signed_content()


class TestMixedWorkloadIntegration:
    def test_interleaved_writes_reads_multiple_groups(self):
        """Writes from two regions interleaved with strong and weak reads
        stay linearizable: a strong read issued after a write's completion
        observes it."""
        from tests.test_spider_basic import build_system

        sim, system = build_system()
        va = system.make_client("va", "virginia", group_id="g0")
        tk = system.make_client("tk", "tokyo", group_id="g1")
        observations = []

        def tk_script(step=0):
            # write -> weak read of own write -> strong read of va's write
            if step == 0:
                tk.write(("put", "tk-key", 1)).add_callback(lambda _: tk_script(1))
            elif step == 1:
                def on_weak(result):
                    observations.append(("tk-weak", result))
                    tk_script(2)

                tk.weak_read(("get", "tk-key")).add_callback(on_weak)
            elif step == 2:
                tk.strong_read(("get", "shared")).add_callback(
                    lambda result: observations.append(("tk-strong", result))
                )

        # va's write finishes in ~6 ms, long before tk's chain reaches the
        # strong read (>170 ms), so the read is ordered after the write.
        va.write(("put", "shared", "from-va"))
        tk_script()
        sim.run(until=20000.0)
        results = dict(observations)
        # Strong read ordered after the write observes it (E-Safety II).
        assert results["tk-strong"] == ("value", "from-va")
        # The weak read follows the client's own completed write
        # (read-your-writes holds here because the local group executed it
        # before replying).
        assert results["tk-weak"] == ("value", 1)
