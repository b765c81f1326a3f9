#!/usr/bin/env python3
"""Router co-simulation benchmark: builds the harness from source and runs
one workload, or the self-test.

    python3 cosimbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cosimbench/run.py --self-test

Human-readable lines go to standard output first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
README.md). The exit code is 0 only when every per-run check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lockstep", "breakpoint", "driver", "os-bound")
# Every run must end within 180 s; a hung harness process is killed first.
RUN_TIMEOUT_S = 170
# Host seconds per harness process.
PROCESS_SECONDS = 2.0
# An instance is calm when the hypervisor stole less than this share of the
# VM's CPU time while it ran (README.md, "Steal").
CALM_STEAL = 0.01
# Calm instances of each kind (untraced, traced) a run needs before it stops
# at --seconds. On a busy host a run measures on, up to RUN_STRETCH times
# --seconds.
MIN_CALM = 12
RUN_STRETCH = 1.5
# Host times are given in reference seconds: seconds of a host on which the
# harness's host probe takes this long (README.md, "Reference seconds").
REF_PROBE_S = 0.025
# Timed host probes per harness process, each about REF_PROBE_S long; a
# run's slowdown needs this many calm ones.
PROBES_PER_PROCESS = 4

# Table 1 speed-ups over GDB-Wrapper: the paper's and EXPERIMENTS.md's.
PAPER_RATIOS = {"breakpoint": 1.3, "driver": 3.0}
EXPERIMENTS_RATIOS = {"breakpoint": 1.7, "driver": 3.9}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not (ROOT / "src" / "router" / "testbench.hpp").is_file():
        raise SystemExit(f"cosimbench: no router sources under {ROOT / 'src'}; "
                         "run from a full checkout")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "cosimbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "cosim_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"cosimbench: build step failed: {' '.join(cmd)}")
    return build_dir / "cosim_bench"


def run_process(binary, workload, seed, seconds, trace, quick, fault, deadline):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if fault:
        cmd.append("--fault")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"cosimbench: harness timed out: {' '.join(cmd)}") from None
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr[-4000:])
        raise SystemExit(f"cosimbench: harness failed ({done.returncode}): {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_probes(binary, deadline):
    """Host probes, each with its steal share, from a process of their own
    (cosim_bench --probe)."""
    cmd = [str(binary), "--probe", str(PROBES_PER_PROCESS)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"cosimbench: host probe timed out: {' '.join(cmd)}") from None
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr[-4000:])
        raise SystemExit(f"cosimbench: host probe failed ({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])["probes"]


def run_harness(binary, workload, seed, seconds, trace, quick=False, fault=False):
    """Runs the workload in harness processes of PROCESS_SECONDS each, one
    after another, and pools their records. Host speed differs from process
    to process (thread and malloc-arena placement, address layout) by more
    than it differs between instances of one process, so one process per run
    would make the run's median depend on which placement that process drew.
    The run stops once it has measured for `seconds` and holds MIN_CALM calm
    instances of each kind it reports; while the hypervisor steals from the
    VM it measures on, up to RUN_STRETCH times `seconds`."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    kinds = (False, True) if trace else (False,)
    records, probes = [], []
    start = time.monotonic()
    while True:
        # The host probe runs before each harness process, so the run's
        # probes spread over it as its instances do.
        probes += run_probes(binary, deadline)
        records.append(run_process(binary, workload, seed, min(seconds, PROCESS_SECONDS),
                                   trace, quick, fault, deadline))
        elapsed = time.monotonic() - start
        insts = [i for r in records for i in r["instances"]]
        enough = all(sum(1 for i in insts if i["traced"] == kind and is_calm(i)) >= MIN_CALM
                     for kind in kinds)
        if fault or elapsed >= RUN_STRETCH * seconds or (elapsed >= seconds and enough):
            break
    pooled = dict(records[0])
    pooled["instances"] = insts
    pooled["probes"] = probes
    # The lowest high-water mark: a process sometimes gains a malloc arena
    # (+1 MB) and that should not decide the run's figure (README.md).
    pooled["peak_rss_kb"] = min(r["peak_rss_kb"] for r in records)
    for key in ("wait_us_p50", "wait_us_p99"):
        pooled[key] = statistics.median(r[key] for r in records)
    pooled["wait_samples"] = sum(r["wait_samples"] for r in records)
    pooled["processes"] = len(records)
    return pooled


# ---------------------------------------------------------------------------
# Statistics


def upper_percentile(samples):
    """The highest percentile with at least ten samples beyond it, capped at
    the 99th; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    q = min(0.99, max(0.5, 1.0 - 10.0 / n))
    index = min(n - 1, int(q * n))
    return ordered[index], q * 100.0


def is_calm(inst):
    return inst["steal_share"] < CALM_STEAL


def calm(insts, minimum=MIN_CALM):
    """The instances (or host probes) during which the hypervisor stole less
    than CALM_STEAL of the VM's CPU time. Steal comes in bursts from other
    tenants of the host, and 5% of it slows the co-simulation by 15% to 32%
    (README.md). When fewer than `minimum` were calm, the `minimum` with the
    least steal."""
    quiet = [i for i in insts if is_calm(i)]
    if len(quiet) >= minimum:
        return quiet
    return sorted(insts, key=lambda i: i["steal_share"])[:minimum]


def host_slowdown(record):
    """How much slower than the reference host the host ran during the run:
    the median of its calm probes over REF_PROBE_S. Host load from other
    tenants moves the co-simulation's speed by up to 50% over minutes without
    any steal showing, and the probe moves with it (README.md)."""
    probes = calm(record["probes"], PROBES_PER_PROCESS)
    return statistics.median(p["probe_s"] for p in probes) / REF_PROBE_S


def sim_rate(inst):
    return inst["sim_us"] / inst["phase_s"]


def per_sim_ms(value, sim_us):
    return value / (sim_us / 1000.0) if sim_us > 0 else 0.0


def fingerprint(inst):
    dropped = inst["dropped_input"] + inst["dropped_no_route"] + inst["dropped_output"]
    return (inst["delta_cycles"], inst["received"], dropped)


# ---------------------------------------------------------------------------
# Per-run checks


def check_instances(record):
    """Returns (attempted, failed, problems). A packet fails when its
    checksum is bad or it is unaccounted for; every packet of an instance
    that ended with a co-simulation error or degraded, or that did not drain
    when it had to, counts as failed."""
    attempted = failed = 0
    problems = []
    for i, inst in enumerate(record["instances"]):
        attempted += inst["produced"]
        bad = inst["checksum_bad"] + inst["unaccounted"]
        if record["drain"] and not inst["settled"]:
            bad = inst["produced"]
            problems.append(f"instance {i}: packets still in flight at the drain limit")
        if inst["cosim_error"] or inst["degraded"]:
            bad = inst["produced"]
        failed += bad
        if not inst["conservation_ok"]:
            problems.append(f"instance {i}: {inst['unaccounted']} packets unaccounted for")
        if inst["checksum_bad"]:
            problems.append(f"instance {i}: {inst['checksum_bad']} bad checksums")
        if inst["cosim_error"]:
            problems.append(f"instance {i}: co-simulation error")
        if inst["degraded"]:
            problems.append(f"instance {i}: session degraded")
        if inst["sim_us"] <= 0 or inst["produced"] == 0:
            problems.append(f"instance {i}: no simulated progress")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(record):
    untraced = [i for i in record["instances"] if not i["traced"]]
    insts = calm(untraced)

    def median(f):
        return statistics.median(f(i) for i in insts)

    def cpu(inst):
        return per_sim_ms(inst["user_s"] + inst["sys_s"], inst["sim_us"])

    windows = [ms for i in insts for ms in i["windows_ms"]]
    p_hi, q_hi = upper_percentile(windows)
    measured = {
        "sim_us_per_s": (median(sim_rate), "us/s"),
        "window_ms_p50": (statistics.median(windows), "ms"),
        "cpu_s_per_sim_ms": (median(cpu), "s/sim_ms"),
        "setup_s": (median(lambda i: i["setup_s"]), "s"),
    }
    slowdown = host_slowdown(record)
    metrics = {
        "sim_us_per_s": (measured["sim_us_per_s"][0] * slowdown, "us/s"),
        "window_ms_p50": (measured["window_ms_p50"][0] / slowdown, "ms"),
        "cpu_s_per_sim_ms": (measured["cpu_s_per_sim_ms"][0] / slowdown, "s/sim_ms"),
        "setup_s": (measured["setup_s"][0] / slowdown, "s"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
        "forwarded_pct": (median(lambda i: i["forwarded_pct"]), "%"),
    }
    # The upper percentile is printed but not a metric: it did not repeat
    # from run to run within a tenth (README.md).
    notes = [f"host-time metrics from {len(insts)} of {len(untraced)} instances, "
             f"{sum(map(is_calm, untraced))} calm (steal under {100 * CALM_STEAL:g}%); "
             f"steal {100 * max(i['steal_share'] for i in insts):.2f}% at most in those, "
             f"{100 * statistics.median(i['steal_share'] for i in untraced):.2f}% median of all",
             f"host probe: {sum(map(is_calm, record['probes']))} of {len(record['probes'])} "
             f"probes calm; slowdown against the {1e3 * REF_PROBE_S:g} ms reference "
             f"{slowdown:.4f}; host times below are host seconds / slowdown",
             "as measured in host seconds: " + ", ".join(
                 f"{name} {value:.6g} {unit}" for name, (value, unit) in measured.items()),
             f"windows: {len(windows)} of {record['window_us']:g} simulated us; "
             f"p{q_hi:.2f} {p_hi:.4f} ms host (informational)"]
    return metrics, notes


def histogram_p50(bounds, buckets):
    total = sum(buckets)
    if total == 0:
        return 0.0
    seen = 0
    for i, count in enumerate(buckets):
        seen += count
        if seen >= 0.5 * total:
            return float(bounds[min(i, len(bounds) - 1)])
    return float(bounds[-1])


def per_layer(record):
    traced = calm([i for i in record["instances"] if i["traced"]])
    untraced = calm([i for i in record["instances"] if not i["traced"]])
    sim_us = sum(i["sim_us"] for i in traced)
    wall = sum(i["phase_s"] for i in traced)

    def total(key):
        return sum(i.get(key, 0) for i in traced)

    def counter(name):
        return sum(i["counters"].get(name, 0) for i in traced)

    def rate(value):
        return per_sim_ms(value, sim_us)

    cycle_s, between_s, wait_s = total("cycle_s"), total("between_s"), total("wait_s")
    unattributed_s = wall - cycle_s - between_s
    dispatches = total("process_dispatches")
    bounds = traced[0]["gdbk_roundtrip_bounds"] if traced else []
    buckets = [sum(col) for col in zip(*(i["gdbk_roundtrip_buckets"] for i in traced))]
    traced_rate = statistics.median(sim_rate(i) for i in traced)
    untraced_rate = statistics.median(sim_rate(i) for i in untraced)
    steal = sum(i["steal_share"] * i["phase_s"] for i in traced)

    def pct(part):
        return 100.0 * part / wall if wall > 0 else 0.0

    m = {
        "sysc.delta_cycles": (rate(total("delta_cycles")), "1/sim_ms"),
        "sysc.process_dispatches": (rate(dispatches), "1/sim_ms"),
        "sysc.channel_updates": (rate(total("channel_updates")), "1/sim_ms"),
        "sysc.timed_advances": (rate(total("timed_advances")), "1/sim_ms"),
        "sysc.cycle_s": (rate(cycle_s), "s/sim_ms"),
        "sysc.between_s": (rate(between_s), "s/sim_ms"),
        "sysc.ns_per_dispatch": (1e9 * cycle_s / dispatches if dispatches else 0.0, "ns"),
        "cosim.gdbk.polls": (rate(counter("cosim.gdbk.polls")), "1/sim_ms"),
        "cosim.gdbk.roundtrip_us_p50": (histogram_p50(bounds, buckets) if buckets else 0.0, "us"),
        "ipc.tx_transfers": (rate(total("tx_transfers")), "1/sim_ms"),
        "ipc.rx_transfers": (rate(total("rx_transfers")), "1/sim_ms"),
        "ipc.tx_bytes": (rate(total("tx_bytes")), "B/sim_ms"),
        "ipc.rx_bytes": (rate(total("rx_bytes")), "B/sim_ms"),
        "ipc.wait_s": (rate(wait_s), "s/sim_ms"),
        "ipc.wait_us_p50": (record["wait_us_p50"], "us"),
        "ipc.wait_us_p99": (record["wait_us_p99"], "us"),
        "rsp.transactions": (rate(total("rsp_transactions")), "1/sim_ms"),
        "cosim.gdbw.steps": (rate(counter("cosim.gdbw.steps")), "1/sim_ms"),
        "cosim.drvk.messages": (rate(counter("cosim.drvk.messages_in")
                                     + counter("cosim.drvk.messages_out")), "1/sim_ms"),
        "cosim.drvk.interrupts_sent": (rate(counter("cosim.drvk.interrupts_sent")), "1/sim_ms"),
        "cosim.starvations": (rate(total("starvations")), "1/sim_ms"),
        "cosim.starvation_wait_s": (rate(total("starvation_wait_s")), "s/sim_ms"),
        "iss.instructions": (rate(counter("iss.instructions")), "1/sim_ms"),
        "host.user_s": (rate(total("user_s")), "s/sim_ms"),
        "host.sys_s": (rate(total("sys_s")), "s/sim_ms"),
        "host.vol_ctxsw": (rate(total("vol_ctxsw")), "1/sim_ms"),
        "host.invol_ctxsw": (rate(total("invol_ctxsw")), "1/sim_ms"),
        "router.forwarded": (rate(total("forwarded")), "1/sim_ms"),
        "router.dropped_input": (rate(total("dropped_input")), "1/sim_ms"),
        "router.dropped_output": (rate(total("dropped_output")), "1/sim_ms"),
        "router.checksum_bad": (rate(total("checksum_bad")), "1/sim_ms"),
        "ledger.unattributed_s": (rate(unattributed_s), "s/sim_ms"),
        "ledger.cycle_pct": (pct(cycle_s), "%"),
        "ledger.between_pct": (pct(between_s), "%"),
        "ledger.unattributed_pct": (pct(unattributed_s), "%"),
        "ledger.ipc_wait_pct": (pct(wait_s), "%"),
        "trace.overhead_pct": (100.0 * (1.0 - traced_rate / untraced_rate), "%"),
        "host.steal_pct": (pct(steal), "%"),
        "host.probe_ms": (1e3 * REF_PROBE_S * host_slowdown(record), "ms"),
        "check.instances": (float(len(record["instances"])), "count"),
        "check.distinct_fingerprints": (
            float(len({fingerprint(i) for i in record["instances"]})), "count"),
    }
    notes = [
        f"ledger over {len(traced)} calm traced instances, {sim_us:.0f} simulated us, "
        f"wall {wall:.4f} s:",
        f"  sysc.cycle_s {cycle_s:.4f} + sysc.between_s {between_s:.4f} "
        f"+ unattributed {unattributed_s:.4f} = wall {wall:.4f} s",
        f"  shares of wall: cycle {pct(cycle_s):.1f}%, between {pct(between_s):.1f}%, "
        f"unattributed {pct(unattributed_s):.1f}%; ipc.wait_s {pct(wait_s):.1f}% "
        "(inside cycle or between)",
        f"  trace.overhead_pct: traced {traced_rate:.1f} vs untraced {untraced_rate:.1f} "
        "simulated us per host s (medians over the calm instances of each kind)",
        f"  ipc.wait_us_p50/p99: medians of each process's percentiles over all its "
        f"traced instances, {record['wait_samples']} Tx->Rx spans in all; "
        "cosim.gdbk.roundtrip_us_p50 is a registry bucket bound",
    ]
    return m, notes


def summarize(record, trace):
    attempted, failed, problems = check_instances(record)
    metrics, notes = per_layer(record) if trace else end_to_end(record)
    prints = len({fingerprint(i) for i in record["instances"]})
    lines = [
        f"workload {record['workload']} ({record['scheme']}, {record['num_cpus']} CPU), "
        f"seed {record['seed']}, trace {int(trace)}",
        f"{record['processes']} processes, {len(record['instances'])} instances of "
        f"{record['instance_sim_us']:g} simulated us"
        f"{' (drain limit)' if record['drain'] else ''}; distinct fingerprints "
        f"(delta cycles, received, dropped) {prints}",
    ] + notes
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:16.6f} {unit}")
    for p in problems:
        lines.append(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


# ---------------------------------------------------------------------------
# Self-test


def self_test(binary, seconds):
    ok = True
    rates = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_harness(binary, workload, 1, seconds, trace, quick=True)
            lines, result = summarize(record, trace)
            good = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            print(f"[{'ok' if good else 'FAIL'}] {workload} trace {trace}: "
                  f"{result['attempted']} packets, {result['failed']} failed")
            if not good:
                print("\n".join(lines))
            ok &= good
            if trace == 0:
                rates[workload] = result["metrics"]["sim_us_per_s"]["value"]
    # Negative control: a wire cut by fault injection must not read clean.
    record = run_harness(binary, "driver", 1, seconds, 0, quick=True, fault=True)
    _, result = summarize(record, 0)
    faults = sum(i["faults_injected"] for i in record["instances"])
    caught = faults > 0 and not result["correct"] and result["failed"] > 0
    print(f"[{'ok' if caught else 'FAIL'}] negative control (driver, disconnect fault): "
          f"{faults} faults injected, {result['attempted']} packets, "
          f"{result['failed']} failed, correct={result['correct']}")
    ok &= caught
    print("Table 1 speed-up over GDB-Wrapper, sim_us_per_s ratio (informational, quick mode):")
    for workload, scheme in (("breakpoint", "GDB-Kernel"), ("driver", "Driver-Kernel")):
        print(f"  {scheme:14s} {rates[workload] / rates['lockstep']:5.2f}x   "
              f"paper ~{PAPER_RATIOS[workload]}x, EXPERIMENTS.md {EXPERIMENTS_RATIOS[workload]}x")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="short run of every workload plus a fault-injected control")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary, min(args.seconds, 1.0))
    record = run_harness(binary, args.workload, args.seed, args.seconds, args.trace)
    lines, result = summarize(record, args.trace == 1)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
