"""Energy-model tests: calibration reproduces the paper's anchors."""

import pytest

from repro.core.events import Ev
from repro.energy import (
    COMPONENT_OF_EVENT,
    VWR2A_COMPONENTS,
    default_model,
    default_table,
    table3_breakdown,
)
from repro.energy.anchors import (
    CPU_PJ_PER_CYCLE,
    FFT_ACCEL_TOTAL_MW,
    VWR2A_POWER_MW,
    VWR2A_TOTAL_MW,
)
from repro.energy.tables import _accel_anchor, _vwr2a_anchor


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def vwr2a_anchor():
    return _vwr2a_anchor()


@pytest.fixture(scope="module")
def accel_anchor():
    return _accel_anchor()


def test_every_vwr2a_event_is_mapped():
    for attr, name in vars(Ev).items():
        if attr.startswith("_") or not isinstance(name, str):
            continue
        if name.startswith("cpu."):
            continue
        assert name in COMPONENT_OF_EVENT, name


def test_table_has_positive_energies():
    table = default_table()
    assert all(v >= 0 for v in table.per_event_pj.values())
    assert all(v >= 0 for v in table.leakage_pj_per_cycle.values())
    assert table.cpu_pj_per_cycle == CPU_PJ_PER_CYCLE


def test_anchor_reproduces_table3_total(model, vwr2a_anchor):
    report = model.vwr2a_report(vwr2a_anchor.events, vwr2a_anchor.cycles)
    assert report.power_mw() == pytest.approx(VWR2A_TOTAL_MW, rel=0.02)


def test_anchor_reproduces_table3_components(model, vwr2a_anchor):
    report = model.vwr2a_report(vwr2a_anchor.events, vwr2a_anchor.cycles)
    rows = table3_breakdown(report)
    assert rows["DMA"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["dma"], rel=0.05
    )
    assert rows["Memories"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["memories"], rel=0.05
    )
    assert rows["Control"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["control"], rel=0.05
    )
    assert rows["Datapath"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["datapath"], rel=0.05
    )


def test_accel_anchor_reproduces_total(model, accel_anchor):
    report = model.accel_report(accel_anchor.events, accel_anchor.cycles)
    assert report.power_mw() == pytest.approx(FFT_ACCEL_TOTAL_MW, rel=0.02)


def test_power_ratio_matches_paper(model, vwr2a_anchor, accel_anchor):
    ours = model.vwr2a_report(
        vwr2a_anchor.events, vwr2a_anchor.cycles
    ).power_mw()
    theirs = model.accel_report(
        accel_anchor.events, accel_anchor.cycles
    ).power_mw()
    assert ours / theirs == pytest.approx(5.5, rel=0.05)


def test_leakage_scales_with_idle_cycles(model):
    """More idle cycles, same activity -> more energy, lower power."""
    events = {Ev.RC_ALU_ADD: 1000}
    short = model.vwr2a_report(events, 1000)
    long = model.vwr2a_report(events, 10000)
    assert long.total_pj > short.total_pj
    assert long.power_mw() < short.power_mw()


def test_activity_based_power_varies_by_kernel(model):
    """Low-activity (control-heavy) windows draw less power than the FFT
    anchor — the paper's delineation row behaviour."""
    anchor = _vwr2a_anchor()
    fft_power = model.vwr2a_report(anchor.events, anchor.cycles).power_mw()
    sparse = {Ev.LCU_ISSUE: 5000, Ev.PM_FETCH: 35000, Ev.SRF_READ: 5000}
    sparse_power = model.vwr2a_report(sparse, 5000).power_mw()
    assert sparse_power < fft_power


def test_cpu_energy_helper(model):
    assert model.cpu_energy_uj(1_000_000) == pytest.approx(
        CPU_PJ_PER_CYCLE, rel=1e-6
    )


def test_report_component_scoping(model):
    events = {Ev.RC_ALU_MUL: 10, Ev.FFT_ACCEL_BUTTERFLY: 10}
    vwr2a = model.vwr2a_report(events, 10)
    assert "accel_datapath" not in vwr2a.by_component
    accel = model.accel_report(events, 10)
    assert "datapath" not in accel.by_component
    assert set(vwr2a.by_component) <= set(VWR2A_COMPONENTS)


# ---------------------------------------------------------------------------
# The one activity fold (reports and per-launch attribution)
# ---------------------------------------------------------------------------

def _fft_launches(engine: str = "auto"):
    """Kernel launches of an FFT-256 flow, with their event deltas."""
    from repro.kernels import FftEngine, KernelRunner

    runner = KernelRunner(engine=engine)
    log = []
    runner.launch_log = log
    signal = [((i * 37 + (i * i) % 211) % 2000) - 1000 for i in range(256)]
    FftEngine(runner, 256).run(signal, signal[::-1])
    return log


def test_fold_histogram_equals_per_event_energy(model):
    """Differential: a launch's folded events == per-event energies."""
    launches = _fft_launches()
    assert launches
    for result in launches:
        assert result.engine == "compiled"
        assert result.events
        folded = model.fold_histogram(result.events)
        expected = {}
        for name, count in result.events.items():
            component = COMPONENT_OF_EVENT[name]
            expected[component] = expected.get(component, 0.0) \
                + count * model.table.event_energy(name)
        assert set(folded.by_component) == set(expected)
        for component, pj in expected.items():
            assert folded.by_component[component] == pytest.approx(
                pj, rel=1e-12
            )


def test_fold_histogram_leakage_matches_report(model):
    events = {Ev.RC_ALU_ADD: 30, Ev.SRF_READ: 10}
    folded = model.fold_histogram(
        events, cycles=500, powered_components=("datapath", "control")
    )
    direct = model.report(
        events, 500, powered_components=("datapath", "control"),
    )
    assert folded.by_component == direct.by_component
    assert folded.cycles == direct.cycles == 500


def test_fold_histogram_ignores_event_key_order(model):
    events = {Ev.RC_ALU_MUL: 7, Ev.SPM_WIDE_READ: 3, Ev.VWR_WORD_READ: 11,
              Ev.SRF_READ: 5, Ev.PM_FETCH: 13}
    reordered = dict(reversed(list(events.items())))
    assert model.fold_histogram(events) == model.fold_histogram(reordered)
    assert model.report(events, 100) == model.report(reordered, 100)


def test_reference_launches_fold_like_compiled(model):
    """Launch energy does not depend on the engine that ran the launch."""
    compiled = _fft_launches()
    reference = _fft_launches("reference")
    assert [r.engine for r in reference] == ["reference"] * len(compiled)
    for ref, cmp_ in zip(reference, compiled):
        assert ref.events == cmp_.events
        assert model.fold_histogram(ref.events) \
            == model.fold_histogram(cmp_.events)
