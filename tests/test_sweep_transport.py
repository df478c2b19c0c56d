"""The transport contract: identity across boundaries, loss handling.

Three promises, exercised per transport: (1) a fixed grid yields
byte-identical canonical records whatever carries the shards; (2) a
worker that dies hard costs a retry, never a hang and never a torn
checkpoint; (3) every spec comes back as exactly one record — result
or failure — even when no worker can be started at all.
"""

import asyncio
import io
import json

import pytest

from repro.sweep.checkpoint import canonical_lines
from repro.sweep.engine import resolve_transport, run_sweep
from repro.sweep.grid import SweepGrid
from repro.sweep.transport import (
    InlineTransport,
    PoolTransport,
    StreamTransport,
    TRANSPORT_NAMES,
    make_transport,
)
from repro.sweep.transport.base import RetryLedger, failure_record
from repro.sweep.worker import HELLO_PREFIX, RESULT_PREFIX, serve


def tiny_grid(**overrides):
    base = dict(
        name="tiny",
        machines=("baseline",),
        replacement=("lru", "fifo"),
        placement=("first_fit",),
        frames=(8,),
        capacities=(10_000,),
        seeds=(0, 1),
        length=400,
        pages=32,
        requests=200,
        mean_lifetime=60,
        programs=2,
        program_length=200,
    )
    base.update(overrides)
    return SweepGrid.from_dict(base)


def tiny_specs(**overrides):
    return [shard.spec() for shard in tiny_grid(**overrides).shards()]


class TestMakeTransport:
    def test_spellings_build_the_right_transports(self):
        assert isinstance(make_transport("inline"), InlineTransport)
        assert isinstance(make_transport("pool", workers=3), PoolTransport)
        assert isinstance(make_transport("subprocess"), StreamTransport)
        assert make_transport("pool", workers=3).workers == 3

    def test_subprocess_is_local_hosts_only(self):
        carrier = make_transport("subprocess", workers=2)
        assert carrier.name == "subprocess"
        assert all(host in ("local", "localhost") for host in carrier.hosts)

    def test_ssh_spelling_parses_hosts(self):
        carrier = make_transport("ssh:alpha, beta", workers=4)
        assert isinstance(carrier, StreamTransport)
        assert carrier.hosts == ("alpha", "beta")
        assert carrier.name == "ssh:alpha,beta"

    def test_ssh_with_no_hosts_rejected(self):
        with pytest.raises(ValueError, match="no hosts"):
            make_transport("ssh:")

    def test_unknown_name_lists_the_spellings(self):
        with pytest.raises(ValueError) as caught:
            make_transport("carrier-pigeon")
        for spelling in TRANSPORT_NAMES:
            assert spelling in str(caught.value)

    def test_default_resolution_matches_history(self):
        assert resolve_transport(None, 1, 4).name == "inline"
        assert resolve_transport(None, 4, 4).name == "pool"
        # One shard: a pool costs more than it saves.
        assert resolve_transport(None, 4, 1).name == "inline"

    def test_transport_instances_pass_through(self):
        carrier = InlineTransport()
        assert resolve_transport(carrier, 4, 4) is carrier


class TestByteIdentity:
    def test_same_grid_same_bytes_under_every_transport(self):
        """The acceptance criterion: one grid, one seed, three
        transports, byte-identical canonical record lines."""
        canon = {}
        for name in ("inline", "pool", "subprocess"):
            result = run_sweep(tiny_grid(), workers=2, transport=name)
            assert result.ok, (name, result.failures)
            assert result.transport == name
            canon[name] = canonical_lines(result.records)
        assert canon["inline"] == canon["pool"]
        assert canon["inline"] == canon["subprocess"]


class TestRetryLedger:
    def test_requeue_until_budget_then_failure(self):
        ledger = RetryLedger(retries=2, transport="test")
        spec = {"shard": "s1"}
        boom = RuntimeError("boom")
        assert ledger.record_loss(spec, boom) is None
        assert ledger.record_loss(spec, boom) is None
        failed = ledger.record_loss(spec, boom)
        assert failed["shard"] == "s1"
        assert failed["attempts"] == 3
        assert failed["transport"] == "test"
        assert "RuntimeError: boom" in failed["error"]

    def test_budget_is_per_shard(self):
        ledger = RetryLedger(retries=1)
        assert ledger.record_loss({"shard": "a"}, "x") is None
        assert ledger.record_loss({"shard": "b"}, "x") is None
        assert ledger.losses({"shard": "a"}) == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            RetryLedger(retries=-1)

    def test_failure_record_shape(self):
        record = failure_record({"shard": "s"}, "lost", "pool", attempts=2)
        assert record == {"shard": "s", "error": "lost",
                          "transport": "pool", "attempts": 2}

    def test_ledger_keys_on_the_id_field(self):
        ledger = RetryLedger(retries=0, transport="pool", key="point")
        failed = ledger.record_loss({"point": "p1"}, "x")
        assert failed["point"] == "p1" and "shard" not in failed
        assert ledger.losses({"point": "p1"}) == 1


class TestPoolLoss:
    def test_hard_worker_death_is_retried_not_hung(self, tmp_path):
        """The imap_unordered replacement: one worker dying hard
        (os._exit, as an OOM kill looks from here) breaks the pool;
        the transport requeues the in-flight shards on a fresh pool
        and the campaign completes with every record present."""
        specs = tiny_specs()
        specs[0] = dict(specs[0],
                        inject_exit_once=str(tmp_path / "died.marker"))
        records = list(PoolTransport(workers=2).run(specs))
        assert len(records) == len(specs)
        assert not [r for r in records if "error" in r]
        assert {r["shard"] for r in records} == {s["shard"] for s in specs}

    def test_shard_that_kills_every_worker_becomes_a_failure(self):
        """A poison shard dies on every attempt: after the retry
        budget it must come back as a failure record — bounded retry,
        not an infinite respawn loop."""
        spec = dict(tiny_specs()[0], inject_exit=True)
        records = list(PoolTransport(workers=1, retries=1).run([spec]))
        assert len(records) == 1
        assert records[0]["transport"] == "pool"
        assert records[0]["attempts"] == 2
        assert "error" in records[0]

    def test_poison_shard_takes_no_innocents_with_it(self):
        """Every death breaks the whole pool, so the shards sharing it
        with a poison shard are lost each time too.  They are requeued,
        never charged as failed: only the poison shard, once it runs
        alone, becomes a failure record."""
        specs = tiny_specs()
        specs[1] = dict(specs[1], inject_exit=True)
        records = list(PoolTransport(workers=2).run(specs))
        assert len(records) == len(specs)
        failed = [record for record in records if "error" in record]
        assert [record["shard"] for record in failed] == [specs[1]["shard"]]
        assert {record["shard"] for record in records} \
            == {spec["shard"] for spec in specs}

    def test_failure_records_carry_the_configured_id_key(self):
        spec = {"point": "p", "inject_exit": True}
        (record,) = PoolTransport(workers=1, retries=0, key="point").run(
            [spec])
        assert record["point"] == "p" and "shard" not in record


class TestStreamLoss:
    def test_worker_death_respawns_and_completes(self, tmp_path):
        specs = tiny_specs(seeds=(0,))
        specs[0] = dict(specs[0],
                        inject_exit_once=str(tmp_path / "died.marker"))
        records = list(StreamTransport(workers=1).run(specs))
        assert len(records) == len(specs)
        assert not [r for r in records if "error" in r]

    def test_poison_shard_fails_without_hanging(self):
        spec = dict(tiny_specs()[0], inject_exit=True)
        carrier = StreamTransport(workers=1, retries=1, respawns=4)
        records = list(carrier.run([spec]))
        assert len(records) == 1
        assert records[0]["attempts"] == 2
        assert "error" in records[0]

    def test_unspawnable_worker_yields_failures_not_a_hang(self):
        """Every slot dead, respawn budget zero: the leftover specs
        must come back as failure records immediately."""
        carrier = StreamTransport(workers=1, python="/nonexistent/python",
                                  respawns=0, hello_timeout=5.0)
        specs = [{"shard": "a"}, {"shard": "b"}]
        records = list(carrier.run(specs))
        assert [r["shard"] for r in records] == ["a", "b"]
        assert all("no live transport workers remain" in r["error"]
                   for r in records)

    def test_stdout_noise_cannot_tear_the_record_stream(self):
        """A shard that prints to stdout mid-run: the worker shields
        the protocol channel, so the record still arrives intact and
        matches the inline run of the same (unannotated) spec."""
        clean = tiny_specs(seeds=(0,))[:1]
        noisy = [dict(clean[0], inject_print="STRAY OUTPUT LINE")]
        streamed = list(StreamTransport(workers=1).run(noisy))
        inline = list(InlineTransport().run(clean))
        assert len(streamed) == 1 and "error" not in streamed[0]
        assert canonical_lines(streamed) == canonical_lines(inline)

    def test_empty_spec_list_is_a_no_op(self):
        assert list(StreamTransport(workers=1).run([])) == []

    def test_slot_whose_spawn_outlasts_the_work_takes_none(self):
        """Other slots run while one awaits its spawn; if they drain the
        queue meanwhile, the late slot must stop, not pop an empty one."""
        class SlowSecondSpawn(StreamTransport):
            spawned = 0

            async def _spawn(self, host):
                self.spawned += 1
                await asyncio.sleep(0 if self.spawned == 1 else 0.05)
                return object()

            async def _roundtrip(self, proc, spec):
                return dict(spec)

            async def _close(self, proc):
                pass

        specs = [{"shard": name} for name in ("a", "b", "c")]
        records = list(SlowSecondSpawn(workers=2).run(specs))
        assert sorted(r["shard"] for r in records) == ["a", "b", "c"]


class TestWorkerProtocol:
    def run_worker(self, lines):
        stdout = io.StringIO()
        status = serve(stdin=io.StringIO("".join(line + "\n"
                                                 for line in lines)),
                       stdout=stdout)
        return status, stdout.getvalue().splitlines()

    def test_hello_then_one_result_per_spec(self):
        status, out = self.run_worker([json.dumps({"shard": "x"}), ""])
        assert status == 0
        assert out[0].startswith(HELLO_PREFIX)
        hello = json.loads(out[0][len(HELLO_PREFIX):])
        assert hello["worker"] == "repro.sweep.worker"
        replies = [line for line in out[1:]
                   if line.startswith(RESULT_PREFIX)]
        assert len(replies) == 1   # the blank line was skipped, not answered

    def test_replies_are_sorted_key_json(self):
        _, out = self.run_worker([json.dumps({"shard": "x"})])
        payload = out[-1][len(RESULT_PREFIX):]
        record = json.loads(payload)
        assert payload == json.dumps(record, sort_keys=True)
        # A bare spec names no machine: the failure came back as a
        # record, proving shard errors never kill the worker loop.
        assert record["shard"] == "x" and "error" in record

    def test_undecodable_spec_becomes_an_error_record(self):
        status, out = self.run_worker(["{this is not json"])
        assert status == 0
        record = json.loads(out[-1][len(RESULT_PREFIX):])
        assert record["shard"] == "?"
        assert "undecodable spec" in record["error"]


class FakeTransport:
    """A stub worker boundary: proves the engine's seam is the protocol."""

    name = "fake"

    def run(self, specs):
        for spec in specs:
            yield {"shard": spec["shard"], "sweep": "tiny", "stubbed": True}


class TestEngineSeam:
    def test_engine_accepts_a_transport_instance(self):
        result = run_sweep(tiny_grid(), transport=FakeTransport())
        assert result.transport == "fake"
        assert all(record["stubbed"] for record in result.records)

    def test_unknown_transport_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown transport"):
            run_sweep(tiny_grid(), transport="carrier-pigeon")

    def test_transport_failures_count_as_shard_failures(self, tmp_path):
        class LossyTransport:
            name = "lossy"

            def run(self, specs):
                for index, spec in enumerate(specs):
                    yield failure_record(spec, "dropped", "lossy") \
                        if index == 0 else \
                        {"shard": spec["shard"], "sweep": "tiny"}

        path = tmp_path / "results.jsonl"
        result = run_sweep(tiny_grid(), results_path=path,
                           transport=LossyTransport())
        assert len(result.failures) == 1
        # The failure was reported but never checkpointed: resume will
        # re-execute exactly the lost shard.
        assert len(path.read_text().splitlines()) == len(result.records)
        assert result.failures[0]["transport"] == "lossy"
