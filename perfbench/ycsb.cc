/**
 * @file
 * Workload `ycsb_pipelined`: four sessions on one back-end, each the
 * single writer of its own skiplist, running 50% get / 50% put with Zipf
 * 0.99 keys in windows of eight findAsync/insertAsync operations through
 * FrontendSession::executePipelined at pipeline depth 8 (AsymNVM-RCB).
 * Each skiplist is about ten times its session's cache; the Zipf hot set
 * fits. Sessions are served round-robin on one host thread, one window
 * per turn (closed loop: a session's next window waits for its last).
 */

#include <algorithm>
#include <unordered_map>

#include "check/invariant_checker.h"
#include "common/zipf.h"
#include "ds/skiplist.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kSessions = 4;
constexpr uint32_t kWindow = 8;

/** One session: its structure, generated inputs and expected contents. */
struct Lane
{
    std::unique_ptr<FrontendSession> s;
    SkipList list;
    std::vector<std::pair<Key, Value>> preload; //!< sorted by key
    std::vector<std::vector<WindowOp>> windows;
    std::unordered_map<Key, Value> shadow;
};

/** Generate one lane's key set, preload values and windows. */
void
generateLane(Lane &ln, uint64_t seed, uint32_t j, uint64_t nkeys,
             uint64_t nwindows, uint64_t *digest)
{
    Rng rng(seed * 0x94d049bb133111ebULL + 0x5c1 + j);
    std::vector<Key> keys;
    keys.reserve(nkeys);
    while (ln.shadow.size() < nkeys) {
        const Key k = rng.next() >> 1;
        if (k == 0 || ln.shadow.count(k) != 0)
            continue;
        keys.push_back(k);
        ln.shadow.emplace(k, randomValue(rng));
    }
    ln.preload.assign(ln.shadow.begin(), ln.shadow.end());
    std::sort(ln.preload.begin(), ln.preload.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    // Zipf ranks index the keys in generation order, so the hot keys are
    // scattered over the key space.
    ZipfGenerator zipf(nkeys, 0.99, rng.next());
    ln.windows.resize(nwindows);
    for (auto &w : ln.windows) {
        w.resize(kWindow);
        for (WindowOp &op : w) {
            op.put = rng.nextBool(0.5);
            op.key = keys[zipf.next()];
            op.value = randomValue(rng);
            *digest = mixDigest(*digest, op.key ^ op.put);
        }
    }
}

/**
 * Run one window and check it. A get may observe the value its serial
 * position implies or, since window ops run concurrently, a value a later
 * put on the same key in the same window wrote.
 */
void
runWindow(Lane &ln, const std::vector<WindowOp> &w, Tracer &tr,
          uint64_t *mut_bytes, uint64_t *failed,
          std::vector<std::string> *errors)
{
    std::vector<Status> results;
    std::vector<Value> out;
    runWindowOps(
        *ln.s, w, tr,
        [&](const WindowOp &op, Value *got) {
            return op.put ? ln.list.insertAsync(op.key, op.value)
                          : ln.list.findAsync(op.key, got);
        },
        &results, &out);
    for (size_t i = 0; i < w.size(); ++i) {
        const WindowOp &op = w[i];
        if (!ok(results[i])) {
            ++*failed;
            continue;
        }
        if (op.put) {
            ln.shadow[op.key] = op.value;
            *mut_bytes += kKvBytes;
            continue;
        }
        if (out[i] != ln.shadow[op.key] && !laterPutWrote(w, i, out[i]))
            errors->push_back("get returned a value never written");
    }
}

} // namespace

RepResult
runYcsbPipelined(bool tiny, uint64_t seed, Tracer &tr)
{
    const uint64_t nkeys = tiny ? 1000 : 12000;
    const uint64_t nwindows = tiny ? 40 : 3200; // per session
    const uint64_t tail_windows = 4;
    RepResult r;
    std::vector<Lane> lanes(kSessions);
    for (uint32_t j = 0; j < kSessions; ++j)
        generateLane(lanes[j], seed, j, nkeys, nwindows + tail_windows,
                     &r.input_digest);

    // ---- set-up: back-end, four sessions, four skiplists, preload ----
    const uint64_t t0 = hostWallNs();
    auto be = std::make_unique<BackendNode>(1, backendConfig(128ull << 20));
    std::vector<FrontendSession *> sessions;
    bool ok_setup = true;
    for (uint32_t j = 0; j < kSessions && ok_setup; ++j) {
        Lane &ln = lanes[j];
        // Cache about a tenth of the skiplist (~208 B of NVM per key).
        SessionConfig cfg = SessionConfig::rcb(j + 1, nkeys * 21, 1024);
        cfg.pipeline_depth = kWindow;
        ln.s = std::make_unique<FrontendSession>(cfg);
        sessions.push_back(ln.s.get());
        ok_setup = ok(ln.s->connect(be.get())) &&
                   ok(SkipList::create(*ln.s, 1,
                                       "ycsb/" + std::to_string(j),
                                       &ln.list));
        for (size_t i = 0; ok_setup && i < ln.preload.size(); i += 1024) {
            const size_t n = std::min<size_t>(1024, ln.preload.size() - i);
            ok_setup = ok(ln.list.insertBatch({ln.preload.data() + i, n}));
        }
        ok_setup = ok_setup && ok(ln.s->flushAll());
    }
    if (!ok_setup) {
        r.output_errors.push_back("ycsb set-up failed");
        return r;
    }
    r.setup_s = (hostWallNs() - t0) / 1e9;
    r.device_bytes = be->nvm().size();

    // ---- measured phase: round-robin, one window per session turn ----
    PhaseCounters pc;
    pc.begin(sessions, *be);
    const uint64_t cpu0 = hostCpuNs();
    for (uint64_t wi = 0; wi < nwindows; ++wi) {
        for (Lane &ln : lanes) {
            const auto &w = ln.windows[wi];
            const uint64_t v0 = ln.s->clock().now();
            runWindow(ln, w, tr, &pc.mut_bytes, &r.failed, &r.output_errors);
            const uint64_t dt = ln.s->clock().now() - v0;
            for (const WindowOp &op : w)
                pc.sample(dt, op.put);
            r.attempted += w.size();
        }
    }
    for (Lane &ln : lanes) {
        const uint64_t fspan = tr.begin("frontend.flush", 0, tr.newRequest(),
                                        ln.s->clock().now());
        if (!ok(ln.s->flushAll()))
            r.output_errors.push_back("final flushAll failed");
        tr.end(fspan, ln.s->clock().now());
    }
    r.measured_cpu_ns = hostCpuNs() - cpu0;
    pc.ops = r.attempted;
    pc.live_bytes = kSessions * nkeys * kKvBytes;
    pc.finish(sessions, *be);
    fillMetrics(pc, &r);

    // ---- durability audit ----
    uint64_t unused = 0, tail_failed = 0;
    for (uint64_t wi = nwindows; wi < nwindows + tail_windows; ++wi)
        for (Lane &ln : lanes)
            runWindow(ln, ln.windows[wi], tr, &unused, &tail_failed,
                      &r.output_errors);
    if (tail_failed != 0)
        r.output_errors.push_back("tail window op failed");
    const uint64_t aspan = tr.begin("check.audit", 0, tr.newRequest(),
                                    lanes[0].s->clock().now());
    auto be2 = crashAndRestart(*be);
    r.audit.ran = true;
    InvariantChecker checker(be2.get());
    for (uint32_t j = 0; j < kSessions; ++j) {
        Lane &ln = lanes[j];
        const std::string name = "ycsb/" + std::to_string(j);
        ln.s->simulateCrash();
        SkipList reopened, check;
        if (!ok(ln.s->failover(1, be2.get())) ||
            !ok(SkipList::open(*ln.s, 1, name, &reopened)) ||
            !ok(ln.s->recover()) ||
            !ok(SkipList::open(*ln.s, 1, name, &check))) {
            r.audit.fail("recovery of " + name + " from NVM failed");
            continue;
        }
        for (const auto &[k, v] : ln.shadow) {
            Value got;
            ++r.audit.keys_checked;
            if (!ok(check.find(k, &got)) || got != v)
                r.audit.fail(name + " key " + std::to_string(k) +
                             " lost or wrong");
        }
        AuditReport rep;
        checker.checkQuiescent(check.id(), &rep);
        checker.checkHeap(check.id(), &rep);
        // The raw NVM walk must agree with the shadow on every key (it
        // reports the first 8 value bytes).
        const auto raw = checker.skipContents(check.id(), &rep);
        if (raw && raw->size() != ln.shadow.size())
            rep.add(name + " raw walk finds " + std::to_string(raw->size()) +
                    " keys, expected " + std::to_string(ln.shadow.size()));
        for (const auto &[k, v8] : raw ? *raw : std::map<Key, uint64_t>{}) {
            auto it = ln.shadow.find(k);
            if (it == ln.shadow.end() || it->second.asU64() != v8)
                rep.add(name + " raw walk disagrees on key " +
                        std::to_string(k));
        }
        for (const std::string &v : rep.violations)
            r.audit.fail(v);
    }
    tr.end(aspan, lanes[0].s->clock().now());
    lanes.clear(); // sessions go before the back-ends they reference
    return r;
}

} // namespace perfbench
