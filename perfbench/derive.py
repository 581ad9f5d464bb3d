"""Per-layer metrics of a traced run, derived from its spans.

stps_perfbench --trace 1 writes one JSON object per span:
  {"id", "parent", "request", "name", "start_ns", "end_ns", "counters"}
A span's layer is its name up to the first dot (datagen, core, sketch,
planner, update, server, io, bench). `derive()` turns the spans into the
per_layer metrics of BENCHMARK.json; a layer the workload does not
exercise reports 0 (io.write_ms on join_sweep, server.ping_ms on
snapshot_restart, ...).

Conventions:
  * durations are medians over the spans of that name, in ms;
  * a layer's self time is the span's duration minus its children's;
    <layer>.self_share is the layer's summed self time over all layers';
  * server.* spans are client round trips: the server's own work happens
    on its threads and is not a child span. server.overhead_ms pairs each
    sampled PROBE with the same probe run in-process (core.probe, same
    request id) and subtracts.
"""

import json
import statistics

LAYERS = ["datagen", "core", "sketch", "planner", "update", "server", "io",
          "bench"]


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quantile(values, q):
    """Linear-interpolated quantile (the C++ Samples::Quantile rule)."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def median_ms(spans):
    return statistics.median([ms(s) for s in spans]) if spans else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def derive(spans):
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def counter(span, key):
        return span["counters"].get(key, 0.0)

    out = {}
    # --- set-up layers
    out["datagen.generate_ms"] = median_ms(named("datagen.generate"))
    out["core.build_ms"] = median_ms(named("core.build"))
    out["sketch.build_ms"] = median_ms(named("sketch.build"))
    out["planner.stats_ms"] = median_ms(named("planner.stats"))

    # --- join_sweep: planner and core
    out["planner.plan_ms"] = median_ms(named("planner.plan"))

    def parts(request_name, run_name):
        """(request span, its run child, its plan child) triples."""
        rows = []
        for req in named(request_name):
            kids = {k["name"]: k for k in children.get(req["id"], [])}
            if run_name in kids:
                rows.append((req, kids[run_name], kids.get("planner.plan")))
        return rows

    warm = parts("bench.join", "core.join")
    cold = parts("bench.cold_join", "core.join")
    warmup = parts("bench.warmup_join", "core.join")
    out["core.execute_ms"] = statistics.median(
        [ms(run) - (ms(plan) if plan else 0.0) for _, run, plan in warm]
    ) if warm else 0.0
    runs = [run for _, run, _ in warm]
    n = len(runs)

    def total(key, rows=runs):
        return sum(counter(r, key) for r in rows)

    out["core.pairs_candidate"] = ratio(total("pairs_candidate"), n)
    out["core.pairs_verified"] = ratio(total("pairs_verified"), n)
    out["core.matches"] = ratio(total("matches"), n)
    out["core.verify_yield"] = ratio(total("matches"), total("pairs_verified"))
    out["spatial.batch_width"] = ratio(total("batch_lanes_filled"),
                                       total("batch_distance_calls"))
    out["text.signature_rejections"] = ratio(total("signature_rejections"), n)
    all_auto = runs + [run for _, run, _ in cold + warmup]
    # The factor by which the estimate missed, either way (>= 1).
    errors = []
    for r in all_auto:
        est = counter(r, "planner_estimated_candidates")
        got = counter(r, "pairs_candidate")
        if est and got:
            errors.append(max(got / est, est / got))
    out["planner.candidate_error"] = (statistics.median(errors) if errors
                                      else 0.0)
    out["planner.plan_switches"] = total("planner_plan_switches", all_auto)
    sppjf = median_ms(named("core.sppjf_budget"))
    out["planner.cold_regret"] = ratio(median_ms(named("bench.cold_join")),
                                       sppjf)
    out["core.parallel_speedup"] = ratio(median_ms(named("core.sppjf_1thread")),
                                         sppjf)

    # --- probes and the server
    out["core.probe_ms"] = median_ms(named("core.probe"))
    probe_rtt = {s["request"]: ms(s) for s in named("server.PROBE")}
    overhead = [probe_rtt[s["request"]] - ms(s) for s in named("core.probe")
                if s["request"] in probe_rtt]
    out["server.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    out["server.ping_ms"] = median_ms(named("server.PING"))
    stats = {int(counter(s, "phase")): s for s in named("server.STATS")}

    def stats_delta(key):
        if 0 not in stats or 1 not in stats:
            return 0.0
        return counter(stats[1], key) - counter(stats[0], key)

    out["server.requests_failed"] = stats_delta("failed")
    out["server.connections_rejected"] = stats_delta("rejected")

    # --- update (PUBLISH replies and STATS differences)
    publishes = named("server.PUBLISH")
    out["update.publish_ms"] = statistics.median(
        [counter(s, "publish_ms") for s in publishes]) if publishes else 0.0
    out["update.delta_frac"] = ratio(sum(counter(s, "delta")
                                         for s in publishes), len(publishes))
    published = stats_delta("publishes")
    out["update.blocks_rebuilt_per_publish"] = ratio(
        stats_delta("blocks_rebuilt"), published)
    out["update.dirty_users_per_publish"] = ratio(
        stats_delta("dirty_users_published"), published)
    out["bench.writer_lag_p99_ms"] = quantile(
        [counter(s, "lag_ms") for s in named("server.INSERT")], 0.99)

    # --- io
    out["io.write_ms"] = median_ms(named("io.write"))
    out["io.open_ms"] = median_ms(named("io.open"))
    out["io.load_ms"] = median_ms(named("io.load"))
    out["io.read_verified_ms"] = median_ms(named("io.read_verified"))
    opens = named("io.open")
    out["io.file_bytes"] = counter(opens[-1], "file_bytes") if opens else 0.0

    # --- self time per layer
    self_ms = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        kids = sum(ms(k) for k in children.get(s["id"], []))
        self_ms[layer] = self_ms.get(layer, 0.0) + max(0.0, ms(s) - kids)
    grand = sum(self_ms.values())
    for layer in LAYERS:
        out[layer + ".self_share"] = ratio(self_ms[layer], grand)
    return out
