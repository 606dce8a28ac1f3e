"""The command line writes each run's files as the run arrives.

A 2-strategy x 2-seed grid with traces must write the same bytes, file for
file, with one worker and with two, as it did when the whole grid was held
until it ended (the digests below). The serial grid must hold at most one
finished run's series at a time: once the next run starts, no earlier
run's ``Metrics`` may still be reachable.
"""

import gc
import hashlib
import weakref

import pytest

from fwdsim import InterferenceConfig, ScenarioConfig, cli, render_scenario

# Written by the command line below when it kept every run's metrics until
# the grid ended.
DIGESTS = {
    "DistrDataFwd_seed1.csv":
        "ce6812392a3a0cf9a142e2d8726c64905269d5491d763e2cc518c46f97accc05",
    "DistrDataFwd_seed1_summary.txt":
        "9b943cf6994b2c87560a47fc78bef662cea75d72a3198a13b401e616adfdd68c",
    "DistrDataFwd_seed1_trace.log":
        "24ee030826152d281afd31bd6e4a65dd51d30888cd94da69075060087e8b543b",
    "DistrDataFwd_seed2.csv":
        "257d14491c5d2803f4decea1832d786fee0138a421b0dcdc516c6dfd7101792d",
    "DistrDataFwd_seed2_summary.txt":
        "c543fad18939c6f331cb292f36696dab3f563709fcc8237d91c673f353b365ee",
    "DistrDataFwd_seed2_trace.log":
        "1f1678f2019ed341dd827ec43573e192cb126c176c6bb17a4242c07e28e44be4",
    "PDD-CR_seed1.csv":
        "1d89c97bb090354500a9590cb1aa653af797ff229595e9ce8c0e78d757a70f17",
    "PDD-CR_seed1_summary.txt":
        "b9526ac91ad6ab96b4d0653c037433fd776206f3995e63e2d60f126ddee74a99",
    "PDD-CR_seed1_trace.log":
        "d4f3935db1f59ea84bfeb62026a14fb81196e1714d67e95e942ab00ac95fb020",
    "PDD-CR_seed2.csv":
        "db78d46d10f7737217bfd62825504ca9cefa34d7331a4ea69f9e5635ec4fb843",
    "PDD-CR_seed2_summary.txt":
        "ad711fd918cddba313cc5c4f76305e4ed88ad99a10cb03663be0f70e15bd0275",
    "PDD-CR_seed2_trace.log":
        "782b532047f77e9a6692c187151f30a1dfbcaccbb28817ed7aba11d925437de1",
    "comparison.csv":
        "4337d81938f6e1d6dc5939d6865bfc60d656ed33d568f7419aefdee802f03f76",
}


def run_cli(tmp_path, workers):
    cfg = ScenarioConfig(horizon=400, interference=InterferenceConfig(
        prob_per_cycle=0.05, multiplier=3.0))
    path = tmp_path / "grid.scenario"
    path.write_text(render_scenario(cfg))
    out = tmp_path / "out"
    assert cli.main([str(path), "--strategy", "PDD-CR", "DistrDataFwd",
                     "--seeds", "1", "2", "--trace", "--workers", str(workers),
                     "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_writes_the_same_bytes_as_when_held_to_the_end(tmp_path, workers):
    out = run_cli(tmp_path, workers)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == DIGESTS


def test_serial_grid_holds_one_finished_run_at_a_time(tmp_path, monkeypatch):
    # With the cyclic garbage collector off, reference counting alone must
    # free each finished run: its simulation holds no reference cycle.
    real = cli._run_one
    finished = []

    def tracked(cfg):
        assert [ref for ref in finished if ref() is not None] == []
        metrics, trace = real(cfg)
        finished.append(weakref.ref(metrics))
        return metrics, trace

    monkeypatch.setattr(cli, "_run_one", tracked)
    collecting = gc.isenabled()
    gc.disable()
    try:
        run_cli(tmp_path, workers=1)
    finally:
        if collecting:
            gc.enable()
    assert len(finished) == 4
