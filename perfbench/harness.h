#ifndef ASYMNVM_PERFBENCH_HARNESS_H_
#define ASYMNVM_PERFBENCH_HARNESS_H_

/**
 * @file
 * Shared pieces of the benchmark: host clocks, the in-memory span
 * recorder, per-op virtual latency samples, counter snapshots of every
 * layer, and the result one repetition of a workload hands back.
 *
 * All performance numbers except host time are virtual time: they come
 * from the per-session SimClock and the layers' own counters, so one seed
 * gives byte-identical values on every repetition.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "backend/backend_node.h"
#include "common/rand.h"
#include "frontend/session.h"

namespace perfbench {

using namespace asymnvm;

/** Host wall-clock nanoseconds (monotonic). */
inline uint64_t
hostWallNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + ts.tv_nsec;
}

/** Host CPU nanoseconds consumed by this process. */
inline uint64_t
hostCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + ts.tv_nsec;
}

/**
 * In-memory span recorder. A span is one call the benchmark makes into a
 * layer, stamped with the issuing session's virtual clock and host wall
 * time. Disabled recorders return id 0 and record nothing; tracing reads
 * clocks and never advances them, so traced and untraced runs produce the
 * same virtual results.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        uint64_t id;
        uint64_t parent;  //!< 0 = root
        uint64_t request; //!< shared by every span of one request
        uint64_t v_start, v_end; //!< virtual ns (issuing session clock)
        uint64_t h_start, h_end; //!< host wall ns
    };

    explicit Tracer(bool on) : on_(on) {}
    bool on() const { return on_; }

    uint64_t begin(const char *name, uint64_t parent, uint64_t request,
                   uint64_t v_now)
    {
        if (!on_)
            return 0;
        spans_.push_back(
            Span{name, spans_.size() + 1, parent, request, v_now, v_now,
                 hostWallNs(), 0});
        return spans_.size();
    }

    void end(uint64_t id, uint64_t v_now)
    {
        if (id == 0)
            return;
        Span &sp = spans_[id - 1];
        sp.v_end = v_now;
        sp.h_end = hostWallNs();
    }

    /** Fresh request id for a root span. */
    uint64_t newRequest() { return ++requests_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    uint64_t requests_ = 0;
    std::vector<Span> spans_;
};

/** Counters of one session, read before and after the measured phase. */
struct SessionSnap
{
    SessionStats st;
    uint64_t clock = 0;
    uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;

    static SessionSnap of(FrontendSession &s)
    {
        SessionSnap n;
        n.st = s.stats();
        n.clock = s.clock().now();
        n.cache_hits = s.cache().hits();
        n.cache_misses = s.cache().misses();
        n.cache_evictions = s.cache().evictions();
        return n;
    }
};

/** Counters of the primary back-end, read around the measured phase. */
struct BackendSnap
{
    uint64_t busy_ns = 0, replayed_entries = 0, rpc_calls = 0;
    uint64_t nvm_bytes_written = 0, nic_busy_ns = 0;
    ReplicationStats repl;

    static BackendSnap of(BackendNode &be)
    {
        BackendSnap n;
        n.busy_ns = be.busyNs();
        n.replayed_entries = be.replayedEntries();
        n.rpc_calls = be.rpcCalls();
        n.nvm_bytes_written = be.nvm().bytesWritten();
        n.nic_busy_ns = be.nic().busyNs();
        n.repl = be.replicationStats();
        return n;
    }
};

/** Outcome of the post-run durability audit. */
struct Audit
{
    bool ran = false;
    uint64_t keys_checked = 0;
    std::vector<std::string> violations;

    void fail(std::string what)
    {
        if (violations.size() < 16)
            violations.push_back(std::move(what));
        else if (violations.size() == 16)
            violations.push_back("... further violations elided");
    }
    bool clean() const { return ran && violations.empty(); }
};

/**
 * Everything one repetition of a workload produces. `virt` holds the
 * virtual end-to-end metrics and `layer` the counter-derived per-layer
 * metrics: both must be byte-identical across repetitions of one seed.
 */
struct RepResult
{
    double setup_s = 0;        //!< host wall time of set-up
    uint64_t measured_cpu_ns = 0; //!< host CPU time of the measured phase
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t input_digest = 0; //!< hash of the generated inputs
    uint64_t device_bytes = 0; //!< simulated NVM allocated at once
    std::map<std::string, double> virt;
    std::map<std::string, double> layer;
    Audit audit;
    std::vector<std::string> output_errors; //!< wrong results seen live
};

/** Key+value bytes of one mutation (8 B key, 64 B value). */
constexpr uint64_t kKvBytes = sizeof(Key) + Value::kSize;

/** One generated op of a pipelined get/put window. */
struct WindowOp
{
    bool put;
    Key key;
    Value value;
};

/**
 * Run @p w as one FrontendSession::executePipelined window. @p make builds
 * op i's task; a get's value lands in (*out)[i]. Records a frontend.window
 * span with one ds.op child per task built.
 */
template <typename MakeTask>
void
runWindowOps(FrontendSession &s, const std::vector<WindowOp> &w,
             Tracer &tr, MakeTask make, std::vector<Status> *results,
             std::vector<Value> *out)
{
    const uint64_t req = tr.newRequest();
    const uint64_t wspan =
        tr.begin("frontend.window", 0, req, s.clock().now());
    results->assign(w.size(), Status::Ok);
    out->assign(w.size(), Value{});
    std::vector<OpTask> tasks;
    tasks.reserve(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
        const uint64_t span = tr.begin("ds.op", wspan, req, s.clock().now());
        tasks.push_back(make(w[i], &(*out)[i]));
        tr.end(span, s.clock().now());
    }
    s.executePipelined(tasks, *results);
    tr.end(wspan, s.clock().now());
}

/**
 * True when a put after position @p i of @p w wrote @p v to op i's key.
 * Window ops run concurrently, so a get may observe such a put.
 */
inline bool
laterPutWrote(const std::vector<WindowOp> &w, size_t i, const Value &v)
{
    for (size_t j = i + 1; j < w.size(); ++j)
        if (w[j].put && w[j].key == w[i].key && w[j].value == v)
            return true;
    return false;
}

/**
 * Percentile (p in 0..100) of integer nanosecond samples, interpolated as
 * for grouped data with 1 ns classes: the value v holding rank p*n/100 is
 * refined to v + (rank - samples below v) / (samples equal to v). Virtual
 * latencies repeat exact values: the nearest-rank p50 of `tatp` and
 * `ingest` is the same integer on every seed, so a run could not be told
 * from a stuck one. The fraction (< 1 ns) keeps the estimate moving with
 * the shape of the distribution.
 */
inline double
percentile(const std::vector<uint64_t> &sorted, double p)
{
    const size_t n = sorted.size();
    if (n == 0)
        return 0;
    const double rank = p / 100.0 * static_cast<double>(n);
    // Nearest rank ceil(p*n/100); the epsilon absorbs rounding in p/100.
    const size_t idx = std::min(
        n, std::max<size_t>(1, static_cast<size_t>(std::ceil(rank - 1e-9))));
    const uint64_t v = sorted[idx - 1];
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
    const double below = static_cast<double>(lo - sorted.begin());
    const double equal = static_cast<double>(hi - lo);
    return static_cast<double>(v) +
           std::clamp((rank - below) / equal, 0.0, 1.0);
}

/**
 * Before/after counters of the measured phase plus the inputs of the
 * derived metrics. begin() resets the layers' histograms and snapshots
 * every counter; finish() snapshots them again. fillMetrics() turns the
 * deltas into the end-to-end and per-layer metrics.
 */
struct PhaseCounters
{
    std::vector<SessionSnap> s0, s1;
    BackendSnap b0, b1;
    Histogram commit_hist, remote_hist, repl_hist;
    uint64_t blocks_in_use = 0;
    uint64_t block_size = 0;
    double nic_utilization = 0;
    std::vector<uint64_t> lat; //!< per-op virtual latency
    uint64_t ops = 0;
    uint64_t mut_bytes = 0;  //!< key+value bytes of acknowledged mutations
    uint64_t live_bytes = 0; //!< key+value bytes live at the end (shadow)
    std::vector<uint64_t> read_lat, write_lat; //!< latency by call kind
    uint64_t promotions = 0; //!< mirror promotions completed (clusters)

    void begin(const std::vector<FrontendSession *> &ss, BackendNode &be)
    {
        be.resetStats();
        for (FrontendSession *s : ss) {
            s->resetStats();
            s0.push_back(SessionSnap::of(*s));
        }
        b0 = BackendSnap::of(be);
    }

    void finish(const std::vector<FrontendSession *> &ss, BackendNode &be)
    {
        for (FrontendSession *s : ss) {
            s1.push_back(SessionSnap::of(*s));
            commit_hist.merge(s->commitHistogram());
            remote_hist.merge(s->readRemoteHistogram());
        }
        b1 = BackendSnap::of(be);
        repl_hist = be.replicationHistogram();
        nic_utilization = be.nic().utilization();
        blocks_in_use =
            be.allocator().totalBlocks() - be.allocator().freeBlocks();
        block_size = be.allocator().blockSize();
    }

    /** Record one public call's virtual latency. */
    void sample(uint64_t ns, bool mutation)
    {
        lat.push_back(ns);
        (mutation ? write_lat : read_lat).push_back(ns);
    }
};

void fillMetrics(PhaseCounters &pc, RepResult *out);

/** A value whose 64 bytes all come from @p rng. */
inline Value
randomValue(Rng &rng)
{
    Value v;
    for (size_t i = 0; i < Value::kSize; i += 8) {
        const uint64_t w = rng.next();
        std::memcpy(v.bytes.data() + i, &w, 8);
    }
    return v;
}

/** Back-end sizing shared by the workloads. */
inline BackendConfig
backendConfig(uint64_t nvm_bytes)
{
    BackendConfig cfg;
    cfg.nvm_size = nvm_bytes;
    cfg.max_frontends = 8;
    cfg.max_names = 64;
    cfg.memlog_ring_size = 4ull << 20;
    cfg.oplog_ring_size = 2ull << 20;
    return cfg;
}

/**
 * Power-fail @p be (staged NVM writes roll back, verbs fail from now on)
 * and rebuild a serving node from its device alone, as a restart after a
 * transient back-end failure does.
 */
inline std::unique_ptr<BackendNode>
crashAndRestart(BackendNode &be)
{
    be.failure().armCrashAfterVerbs(0);
    be.failure().onVerb(0);
    be.nvm().crash();
    return std::make_unique<BackendNode>(be.id(), be.config(), be.device());
}

/** Cheap 64-bit mixing hash for input digests. */
inline uint64_t
mixDigest(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

} // namespace perfbench

#endif // ASYMNVM_PERFBENCH_HARNESS_H_
