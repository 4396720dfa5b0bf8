/**
 * @file
 * Benchmark entry point: runs one workload for a time budget and prints every
 * metric by name with its unit, then one JSON result line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--tiny] [--spans-dir <dir>]
 *   perfbench --list-metrics
 *
 * A run repeats the whole workload (set-up, measured phase, durability
 * audit) until the time budget is spent, at least twice. Every
 * repetition of one seed must produce byte-identical virtual metrics;
 * host-time metrics (set-up, CPU per op) are reported as the median and
 * quartiles across the repetitions. With --trace 1 the odd repetitions
 * record spans, the first traced repetition's spans are written out,
 * and the per-layer metrics are printed instead of the end-to-end ones.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

enum class Kind
{
    EndToEnd,
    Layer,
};

/** Every metric the benchmark reports, with its unit and direction. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;
    Kind kind;
};

constexpr MetricDef kMetrics[] = {
    {"kops", "kops", "higher", Kind::EndToEnd},
    {"op_p50_ns", "ns", "lower", Kind::EndToEnd},
    {"op_p99_ns", "ns", "lower", Kind::EndToEnd},
    {"op_p999_ns", "ns", "lower", Kind::EndToEnd},
    {"wire_bytes_per_op", "B/op", "lower", Kind::EndToEnd},
    {"nvm_write_amp", "ratio", "lower", Kind::EndToEnd},
    {"space_amp", "ratio", "lower", Kind::EndToEnd},
    {"setup_s", "s", "lower", Kind::EndToEnd},
    {"peak_rss_mb", "MB", "lower", Kind::EndToEnd},

    {"apps.tx_read_p50_ns", "ns", "lower", Kind::Layer},
    {"apps.tx_write_p50_ns", "ns", "lower", Kind::Layer},
    {"ds.node_reads_per_op", "count/op", "lower", Kind::Layer},
    {"frontend.cache_hit_ratio", "ratio", "higher", Kind::Layer},
    {"frontend.cache_evictions_per_op", "count/op", "lower", Kind::Layer},
    {"frontend.read_remote_p50_ns", "ns", "lower", Kind::Layer},
    {"frontend.prefetch_issued_per_op", "count/op", "lower", Kind::Layer},
    {"frontend.prefetch_hit_ratio", "ratio", "higher", Kind::Layer},
    {"frontend.commit_p50_ns", "ns", "lower", Kind::Layer},
    {"frontend.commit_p99_ns", "ns", "lower", Kind::Layer},
    {"frontend.tx_flushes_per_op", "count/op", "lower", Kind::Layer},
    {"frontend.log_wire_bytes_per_op", "B/op", "lower", Kind::Layer},
    {"frontend.log_framing_ratio", "ratio", "lower", Kind::Layer},
    {"frontend.pipeline_overlap", "ratio", "higher", Kind::Layer},
    {"frontend.pipeline_stall_ratio", "ratio", "lower", Kind::Layer},
    {"frontend.dep_stalls_per_op", "count/op", "lower", Kind::Layer},
    {"frontend.coalesced_fences_per_op", "count/op", "higher", Kind::Layer},
    {"rdma.verbs_per_op", "count/op", "lower", Kind::Layer},
    {"rdma.doorbells_per_op", "count/op", "lower", Kind::Layer},
    {"rdma.wqes_per_doorbell", "ratio", "higher", Kind::Layer},
    {"rdma.read_bytes_per_op", "B/op", "lower", Kind::Layer},
    {"rdma.write_bytes_per_op", "B/op", "lower", Kind::Layer},
    {"rdma.retries_per_op", "count/op", "lower", Kind::Layer},
    {"rdma.backoff_ns_per_op", "ns/op", "lower", Kind::Layer},
    {"rdma.timeouts", "count", "lower", Kind::Layer},
    {"sim.nic_busy_ns_per_op", "ns/op", "lower", Kind::Layer},
    {"sim.nic_utilization", "ratio", "lower", Kind::Layer},
    {"sim.host_ns_per_op", "ns/op", "lower", Kind::Layer},
    {"sim.host_ns_per_op_q1", "ns/op", "lower", Kind::Layer},
    {"sim.host_ns_per_op_q3", "ns/op", "lower", Kind::Layer},
    {"sim.setup_s_q1", "s", "lower", Kind::Layer},
    {"sim.setup_s_q3", "s", "lower", Kind::Layer},
    {"backend.busy_ns_per_op", "ns/op", "lower", Kind::Layer},
    {"backend.replayed_entries_per_op", "count/op", "lower", Kind::Layer},
    {"backend.rpc_calls_per_op", "count/op", "lower", Kind::Layer},
    {"backend.repl_bytes_per_op", "B/op", "lower", Kind::Layer},
    {"backend.repl_coalesce_ratio", "ratio", "higher", Kind::Layer},
    {"backend.repl_p99_ns", "ns", "lower", Kind::Layer},
    {"nvm.bytes_written_per_op", "B/op", "lower", Kind::Layer},
    {"nvm.blocks_in_use", "count", "lower", Kind::Layer},
    {"cluster.failover_wait_ns", "ns", "lower", Kind::Layer},
    {"cluster.failovers", "count", "lower", Kind::Layer},
    {"cluster.promotions", "count", "lower", Kind::Layer},
    {"check.op_fail_ratio", "ratio", "lower", Kind::Layer},
    {"check.latency_samples", "count", "higher", Kind::Layer},
    {"check.audit_keys", "count", "higher", Kind::Layer},
    {"trace.spans", "count", "higher", Kind::Layer},
    {"trace.host_overhead_ratio", "ratio", "lower", Kind::Layer},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    bool list = false;
    std::string spans_dir = ".bench_out";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (k == "--tiny") {
            a->tiny = true;
        } else if (k == "--list-metrics") {
            a->list = true;
        } else if ((v = val()) == nullptr) {
            return false;
        } else if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            a->trace = std::strcmp(v, "0") != 0;
        } else if (k == "--spans-dir") {
            a->spans_dir = v;
        } else {
            return false;
        }
    }
    return a->list || !a->workload.empty();
}

/** Median and quartiles as Python's statistics.quantiles(n=4) gives them. */
struct Quartiles
{
    double q1, median, q3;
};

Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 1)
        return {v[0], v[0], v[0]};
    auto at = [&](double pos) { // 1-based exclusive-method position
        pos = std::clamp(pos, 1.0, static_cast<double>(n));
        const size_t lo = static_cast<size_t>(pos);
        const double frac = pos - lo;
        return lo >= n ? v[n - 1] : v[lo - 1] + frac * (v[lo] - v[lo - 1]);
    };
    return {at((n + 1) * 0.25), at((n + 1) * 0.5), at((n + 1) * 0.75)};
}

/**
 * Peak resident set of the process less the simulated NVM devices, which
 * are zero-filled (so wholly resident) and sized by the harness, not by
 * the code under test.
 */
double
peakRssMb(uint64_t device_bytes)
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    // ru_maxrss is in KiB on Linux.
    return (ru.ru_maxrss * 1024.0 - static_cast<double>(device_bytes)) /
           (1024.0 * 1024.0);
}

/**
 * Per span name: count, and self time (duration minus the part of it
 * covered by child spans) in virtual and host ns.
 */
void
printSpanSummary(const Tracer &tr)
{
    struct Agg
    {
        uint64_t n = 0, v_self = 0, h_self = 0;
    };
    const auto &spans = tr.spans();
    std::map<uint64_t, std::vector<size_t>> children;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            children[spans[i].parent].push_back(i);
    auto covered = [&](const Tracer::Span &sp, bool host) {
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (size_t c : children[sp.id]) {
            const Tracer::Span &ch = spans[c];
            uint64_t a = host ? ch.h_start : ch.v_start;
            uint64_t b = host ? ch.h_end : ch.v_end;
            a = std::max(a, host ? sp.h_start : sp.v_start);
            b = std::min(b, host ? sp.h_end : sp.v_end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t sum = 0, end = 0;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            if (b > a)
                sum += b - a;
            end = std::max(end, b);
        }
        return sum;
    };
    std::map<std::string, Agg> agg;
    for (const Tracer::Span &sp : spans) {
        Agg &g = agg[sp.name];
        ++g.n;
        g.v_self += (sp.v_end - sp.v_start) - covered(sp, false);
        g.h_self += (sp.h_end - sp.h_start) - covered(sp, true);
    }
    std::printf("span summary (self time = duration - child coverage):\n");
    for (const auto &[name, g] : agg)
        std::printf("  %-16s n=%-8" PRIu64 " virtual_self_ns=%-12" PRIu64
                    " host_self_ns=%" PRIu64 "\n",
                    name.c_str(), g.n, g.v_self, g.h_self);
}

int
run(const Args &a)
{
    std::vector<RepResult> reps;
    std::vector<bool> traced;
    std::vector<std::string> errors;
    uint64_t spans = 0;
    const uint64_t start = hostWallNs();
    const double hard_cap_s = 140; // leaves head room under a 180 s limit
    for (size_t i = 0;; ++i) {
        Tracer tr(a.trace && i % 2 == 1);
        RepResult r;
        const uint64_t r0 = hostWallNs();
        if (!runWorkload(a.workload, a.tiny, a.seed, tr, &r)) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         a.workload.c_str());
            return 2;
        }
        const double rep_s = (hostWallNs() - r0) / 1e9;
        if (tr.on() && spans == 0) {
            spans = tr.spans().size();
            const std::string path = a.spans_dir + "/" + a.workload +
                                     "-seed" + std::to_string(a.seed) +
                                     ".spans.jsonl";
            if (!tr.write(path))
                errors.push_back("cannot write " + path);
            std::printf("spans: %s\n", path.c_str());
            printSpanSummary(tr);
        }
        for (const std::string &e : r.output_errors)
            errors.push_back("rep " + std::to_string(i) + ": " + e);
        // Every workload but failover is sized so that no call fails; on
        // failover a mid-window crash surfaces Unavailable by design.
        if (r.failed != 0 && a.workload != "failover")
            errors.push_back("rep " + std::to_string(i) + ": " +
                             std::to_string(r.failed) + " call(s) failed");
        if (!r.audit.clean())
            errors.push_back("rep " + std::to_string(i) +
                             ": durability audit failed");
        for (const std::string &v : r.audit.violations)
            errors.push_back("  audit: " + v);
        if (!reps.empty() &&
            (r.virt != reps[0].virt || r.layer != reps[0].layer ||
             r.input_digest != reps[0].input_digest))
            errors.push_back("rep " + std::to_string(i) +
                             ": virtual metrics differ from rep 0 "
                             "(determinism)");
        reps.push_back(std::move(r));
        traced.push_back(tr.on());
        const double elapsed = (hostWallNs() - start) / 1e9;
        if (reps.size() >= 2 && elapsed >= a.seconds)
            break;
        if (elapsed + rep_s > hard_cap_s)
            break;
    }

    const RepResult &r0 = reps[0];
    std::vector<double> setup, host_plain, host_traced;
    for (size_t i = 0; i < reps.size(); ++i) {
        setup.push_back(reps[i].setup_s);
        const double per_op =
            static_cast<double>(reps[i].measured_cpu_ns) /
            std::max<uint64_t>(1, reps[i].attempted);
        (traced[i] ? host_traced : host_plain).push_back(per_op);
    }
    const Quartiles qs = quartiles(setup);
    const Quartiles qh = quartiles(host_plain);

    std::map<std::string, double> values = r0.virt;
    for (const auto &[k, v] : r0.layer)
        values[k] = v;
    values["setup_s"] = qs.median;
    values["peak_rss_mb"] = peakRssMb(r0.device_bytes);
    values["sim.host_ns_per_op"] = qh.median;
    values["sim.host_ns_per_op_q1"] = qh.q1;
    values["sim.host_ns_per_op_q3"] = qh.q3;
    values["sim.setup_s_q1"] = qs.q1;
    values["sim.setup_s_q3"] = qs.q3;
    values["check.op_fail_ratio"] =
        static_cast<double>(r0.failed) / std::max<uint64_t>(1, r0.attempted);
    values["check.audit_keys"] = static_cast<double>(r0.audit.keys_checked);
    values["trace.spans"] = static_cast<double>(spans);
    values["trace.host_overhead_ratio"] =
        host_traced.empty() ? 0.0
                            : quartiles(host_traced).median / qh.median - 1.0;

    const bool correct = errors.empty();
    std::printf("workload=%s seed=%" PRIu64 " reps=%zu tiny=%d\n",
                a.workload.c_str(), a.seed, reps.size(), a.tiny ? 1 : 0);
    std::printf("input_digest=%016" PRIx64 "\n", r0.input_digest);
    std::printf("audit: ran=%d keys_checked=%" PRIu64 " violations=%zu\n",
                r0.audit.ran ? 1 : 0, r0.audit.keys_checked,
                r0.audit.violations.size());
    std::printf("attempted=%" PRIu64 " failed=%" PRIu64 "\n", r0.attempted,
                r0.failed);
    for (const std::string &e : errors)
        std::printf("ERROR %s\n", e.c_str());
    const Kind want = a.trace ? Kind::Layer : Kind::EndToEnd;
    std::string json;
    char buf[256];
    for (const MetricDef &m : kMetrics) {
        auto it = values.find(m.name);
        if (it == values.end()) {
            std::printf("ERROR metric %s not produced\n", m.name);
            return 1;
        }
        std::printf("metric %-34s %18.6f %-8s (%s is better)%s\n", m.name,
                    it->second, m.unit, m.better,
                    m.kind == Kind::EndToEnd ? " [end-to-end]" : "");
        if (m.kind != want)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", m.name, it->second, m.unit);
        json += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                correct ? "true" : "false", r0.attempted, r0.failed,
                json.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args a;
    if (!parseArgs(argc, argv, &a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--tiny] "
                     "[--spans-dir <dir>] | --list-metrics\n");
        return 2;
    }
    if (a.list) {
        for (const MetricDef &m : kMetrics)
            std::printf("%s %s %s %s\n", m.name, m.unit, m.better,
                        m.kind == Kind::EndToEnd ? "end_to_end"
                                                 : "per_layer");
        return 0;
    }
    return run(a);
}
