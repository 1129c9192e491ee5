"""Fleet-wide request-context shipping (repro.fleet x repro.ctx).

Each machine's epoch delta now carries the epoch's context ledger;
the store merges the ledgers per fleet epoch (commutatively, inside
the same atomic manifest commit as the samples) and answers
per-request-class queries via :meth:`FleetStore.ctx_meta` and the
``dcpifleet classes`` subcommand.
"""

import io
import json

from repro.ctx import canonical_ledger_bytes
from repro.fleet.cli import main as fleet_main
from repro.fleet.machine import FleetConfig, FleetMachine, FleetSession
from repro.fleet.store import FleetStore
from repro.fleet.transport import Delta, DeltaTransport
from repro.obs.report import REPORT_SCHEMA


def _machine(seed=1, context=True):
    return FleetMachine("m00", "altavista", seed, context=context,
                        drain_interval=3_000)


def test_delta_carries_epoch_ledger():
    machine = _machine()
    delta = machine.run_epoch(9_000)
    assert delta.ctx is not None
    assert delta.ctx["classes"], "no classes attributed"
    assert sum(len(r) for r in delta.ctx["requests"].values()) > 0
    # The next epoch's ledger starts from scratch: consecutive deltas
    # never overlap, attribution included.
    second = machine.run_epoch(9_000)
    assert second.epoch == delta.epoch + 1
    assert second.ctx is not None


def test_context_off_ships_none():
    delta = _machine(context=False).run_epoch(6_000)
    assert delta.ctx is None


def test_transport_roundtrips_ctx_verbatim():
    machine = _machine()
    delta = machine.run_epoch(9_000)
    deliveries = DeltaTransport().ship(delta)
    assert len(deliveries) == 1
    assert canonical_ledger_bytes(deliveries[0].ctx) \
        == canonical_ledger_bytes(delta.ctx)


def test_store_merges_persists_and_dedupes_ctx(tmp_path):
    root = tmp_path / "store"
    store = FleetStore(root)
    machine_a = _machine(seed=1)
    machine_b = FleetMachine("m01", "timesharing", 102, context=True,
                             drain_interval=3_000)
    delta_a = machine_a.run_epoch(9_000)
    delta_b = machine_b.run_epoch(9_000)
    assert store.ingest(delta_a)
    assert store.ingest(delta_b)
    merged = store.ctx_meta()
    assert merged is not None
    # Both machines' classes are present: the merge is a union.
    names = set(merged["classes"])
    assert any(name.startswith("search.") for name in names), names
    assert any(name.startswith("ts.") for name in names), names
    # Per-epoch filtering sees the same single epoch.
    assert store.ctx_meta(epochs=[delta_a.epoch]) is not None
    assert store.ctx_meta(epochs=[delta_a.epoch + 7]) is None

    # A duplicate delivery is deduped before the ctx merge: counts
    # stay byte-identical.
    before = canonical_ledger_bytes(store.ctx_meta())
    assert not store.ingest(delta_a)
    assert canonical_ledger_bytes(store.ctx_meta()) == before

    # The ledger rides the manifest: a fresh handle reads it back.
    reopened = FleetStore(root)
    assert canonical_ledger_bytes(reopened.ctx_meta()) == before
    assert reopened.stats()["ctx_epochs"] >= 1


def test_session_end_to_end_with_context(tmp_path):
    config = FleetConfig(machines=2, epochs=2,
                         epoch_instructions=9_000, context=True)
    store = FleetStore(tmp_path / "store")
    result = FleetSession(config).run(store)
    assert result.report()["ok"], result.findings
    assert result.report()["config"]["context"] is True
    merged = store.ctx_meta()
    assert merged is not None
    assert len(store.ledger["ctx"]) == 2      # one blob per epoch

    # dcpifleet classes renders the merged attribution and exits 0.
    out = io.StringIO()
    rc = fleet_main(["classes", "--store", str(tmp_path / "store")],
                    out=out)
    assert rc == 0
    assert "class" in out.getvalue()

    # JSON path, epoch-filtered.
    out = io.StringIO()
    rc = fleet_main(["classes", "--store", str(tmp_path / "store"),
                     "--epochs", "0", "--json", "-"], out=out)
    assert rc == 0
    report = json.loads(out.getvalue())
    assert (report["schema"], report["tool"]) == (REPORT_SCHEMA,
                                                  "dcpifleet")
    assert report["classes"]


def test_classes_without_context_exits_one(tmp_path):
    config = FleetConfig(machines=1, epochs=1,
                         epoch_instructions=6_000)
    FleetSession(config).run(FleetStore(tmp_path / "plain"))
    out = io.StringIO()
    rc = fleet_main(["classes", "--store", str(tmp_path / "plain")],
                    out=out)
    assert rc == 1
    assert "--context" in out.getvalue()


def test_ctx_merge_is_order_independent(tmp_path):
    deltas = []
    for index, seed in enumerate((1, 102)):
        machine = FleetMachine("m%02d" % index, "dss", seed,
                               context=True, drain_interval=3_000)
        deltas.append(machine.run_epoch(9_000))
    store_ab = FleetStore(tmp_path / "ab")
    store_ba = FleetStore(tmp_path / "ba")
    for delta in deltas:
        store_ab.ingest(delta)
    for delta in reversed(deltas):
        store_ba.ingest(delta)
    assert canonical_ledger_bytes(store_ab.ctx_meta()) \
        == canonical_ledger_bytes(store_ba.ctx_meta())
