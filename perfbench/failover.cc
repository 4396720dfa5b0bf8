/**
 * @file
 * Workload `failover`: a Cluster of one back-end and two mirrors with
 * transparent failover. Four sessions, each the single writer of its own
 * hash table that fits entirely in its cache, run 50/50 put/get in
 * pipelined windows of eight. Seeded transient completion drops (1e-3
 * per verb) run from the start of the measured phase, and a back-end
 * crash armed by verb count lands inside a window; the primary's lease
 * has lapsed by then, so the sessions' resolver promotes a mirror. This
 * is the only workload that exercises cluster promotion, rdma
 * retry/backoff and back-end recovery together.
 */

#include <algorithm>
#include <unordered_map>

#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "ds/hash_table.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr uint32_t kSessions = 4;
constexpr uint32_t kWindow = 8;

/**
 * One session's table and its expected contents. A put that failed
 * mid-failover may or may not have landed (whole-or-absent), so a key
 * maps to the set of values it may legally hold; any successful put or
 * get collapses the set to one value.
 */
struct Lane
{
    std::unique_ptr<FrontendSession> s;
    HashTable table;
    std::vector<std::pair<Key, Value>> preload;
    std::vector<std::vector<WindowOp>> windows;
    std::unordered_map<Key, std::vector<Value>> shadow;
};

bool
contains(const std::vector<Value> &vs, const Value &v)
{
    return std::find(vs.begin(), vs.end(), v) != vs.end();
}

void
generateLane(Lane &ln, uint64_t seed, uint32_t j, uint64_t nkeys,
             uint64_t nwindows, uint64_t *digest)
{
    Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0xfa11 + j);
    std::vector<Key> keys;
    while (keys.size() < nkeys) {
        const Key k = rng.next() >> 1;
        if (k == 0 || ln.shadow.count(k) != 0)
            continue;
        keys.push_back(k);
        const Value v = randomValue(rng);
        ln.shadow[k] = {v};
        ln.preload.emplace_back(k, v);
    }
    ln.windows.resize(nwindows);
    for (auto &w : ln.windows) {
        w.resize(kWindow);
        for (WindowOp &op : w) {
            op.put = rng.nextBool(0.5);
            op.key = keys[rng.nextBounded(nkeys)];
            op.value = randomValue(rng);
            *digest = mixDigest(*digest, op.key ^ op.put);
        }
    }
}

/** Run one window, check gets, and fold the outcomes into the shadow. */
void
runWindow(Lane &ln, const std::vector<WindowOp> &w, Tracer &tr,
          uint64_t *mut_bytes, uint64_t *failed, bool *any_ok,
          std::vector<std::string> *errors)
{
    std::vector<Status> results;
    std::vector<Value> out;
    runWindowOps(
        *ln.s, w, tr,
        [&](const WindowOp &op, Value *got) {
            return op.put ? ln.table.putAsync(op.key, op.value)
                          : ln.table.getAsync(op.key, got);
        },
        &results, &out);

    for (size_t i = 0; i < w.size(); ++i) {
        const WindowOp &op = w[i];
        std::vector<Value> &may = ln.shadow[op.key];
        if (!ok(results[i])) {
            ++*failed;
            if (op.put && !contains(may, op.value))
                may.push_back(op.value); // whole-or-absent
            continue;
        }
        *any_ok = true;
        if (op.put) {
            may = {op.value};
            *mut_bytes += kKvBytes;
            continue;
        }
        if (contains(may, out[i]))
            may = {out[i]};
        else if (!laterPutWrote(w, i, out[i]))
            errors->push_back("get returned a value never written");
    }
}

} // namespace

RepResult
runFailover(bool, uint64_t seed, Tracer &tr)
{
    // Already small; the self-test runs it at full size so that the
    // 1e-3 drop rate reliably produces retries before the crash.
    const uint64_t nkeys = 2000;
    const uint64_t nwindows = 320; // per session
    RepResult r;
    std::vector<Lane> lanes(kSessions);
    for (uint32_t j = 0; j < kSessions; ++j)
        generateLane(lanes[j], seed, j, nkeys, nwindows, &r.input_digest);

    // ---- set-up: cluster, four sessions, four tables, preload ----
    const uint64_t t0 = hostWallNs();
    ClusterConfig ccfg;
    ccfg.num_backends = 1;
    ccfg.mirrors_per_backend = 2;
    ccfg.backend = backendConfig(64ull << 20);
    ccfg.transparent_failover = true;
    auto cluster = std::make_unique<Cluster>(ccfg);
    std::vector<FrontendSession *> sessions;
    bool ok_setup = true;
    for (uint32_t j = 0; j < kSessions && ok_setup; ++j) {
        Lane &ln = lanes[j];
        // The whole table (~88 B of NVM per key plus buckets) fits.
        SessionConfig cfg = SessionConfig::rcb(1, nkeys * 256, 1024);
        cfg.pipeline_depth = kWindow;
        ln.s = cluster->makeSession(cfg);
        ok_setup = ln.s != nullptr &&
                   ok(HashTable::create(*ln.s, 1,
                                        "failover/" + std::to_string(j),
                                        nkeys, &ln.table));
        for (size_t i = 0; ok_setup && i < ln.preload.size(); ++i)
            ok_setup = ok(ln.table.put(ln.preload[i].first,
                                       ln.preload[i].second));
        ok_setup = ok_setup && ok(ln.s->flushAll());
        if (ok_setup)
            sessions.push_back(ln.s.get());
    }
    if (!ok_setup) {
        r.output_errors.push_back("failover set-up failed");
        return r;
    }
    r.setup_s = (hostWallNs() - t0) / 1e9;
    r.device_bytes = cluster->backend(1)->nvm().size();
    for (MirrorNode *m : cluster->mirrorsOf(1))
        r.device_bytes += m->device().size();

    // ---- measured phase ----
    // The mirrors' keepalive agents renew at the fleet's latest clock; the
    // primary's lease, granted at time zero, is never renewed. Every
    // session clock first moves a lease past it (in half-lease steps, so
    // the mirrors stay renewed), so the resolver treats the coming crash
    // as a permanent failure and promotes a mirror; a crash inside a live
    // lease would restart the node from its own device instead.
    auto renewMirrors = [&] {
        uint64_t mx = 0;
        for (FrontendSession *s : sessions)
            mx = std::max(mx, s->clock().now());
        for (MirrorNode *m : cluster->mirrorsOf(1))
            cluster->keepAlive().renew(m->id(), mx);
    };
    const uint64_t lease = cluster->keepAlive().leaseNs();
    renewMirrors();
    for (int step = 0; step < 3; ++step) {
        for (FrontendSession *s : sessions)
            s->clock().advance(lease / 2);
        renewMirrors();
    }
    BackendNode *primary = cluster->backend(1);
    std::vector<std::pair<const NvmDevice *, uint64_t>> mirror_bytes0;
    for (MirrorNode *m : cluster->mirrorsOf(1))
        mirror_bytes0.emplace_back(&m->device(), m->device().bytesWritten());
    PhaseCounters pc;
    pc.begin(sessions, *primary);
    FaultConfig faults;
    faults.drop_rate = 1e-3;
    primary->faults().configure(faults, seed ^ 0xfa017);
    // Crash about 40% of the way through the measured phase (about two
    // verbs per op reach the back-end), jittered by the seed so it lands
    // at different points of a window.
    Rng crash_rng(seed ^ 0xc4a5);
    const uint64_t crash_verb =
        nwindows * kSessions * kWindow * 2 / 5 + crash_rng.nextBounded(64);
    primary->failure().armCrashAfterVerbs(crash_verb, seed);
    const uint64_t cpu0 = hostCpuNs();
    uint64_t fo_span = 0;
    const Lane *crash_lane = nullptr;
    for (uint64_t wi = 0; wi < nwindows; ++wi) {
        for (Lane &ln : lanes) {
            const auto &w = ln.windows[wi];
            const uint64_t v0 = ln.s->clock().now();
            bool any_ok = false;
            runWindow(ln, w, tr, &pc.mut_bytes, &r.failed, &any_ok,
                      &r.output_errors);
            const uint64_t dt = ln.s->clock().now() - v0;
            for (const WindowOp &op : w)
                pc.sample(dt, op.put);
            r.attempted += w.size();
            renewMirrors();
            // cluster.failover: from the window the crash fired in to the
            // end of that session's first window with an Ok op served by
            // the promoted node.
            if (crash_lane == nullptr && primary->failure().firedAtVerb()) {
                crash_lane = &ln;
                fo_span = tr.begin("cluster.failover", 0, tr.newRequest(), v0);
            }
            if (&ln == crash_lane && fo_span != 0 && any_ok &&
                cluster->backend(1) != primary) {
                tr.end(fo_span, ln.s->clock().now());
                fo_span = 0;
            }
        }
    }
    if (crash_lane == nullptr)
        r.output_errors.push_back("armed back-end crash never fired");
    BackendNode *serving = cluster->backend(1);
    if (serving == primary)
        r.output_errors.push_back("no mirror was promoted");
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
    pc.finish(sessions, *serving);
    // Back-end work is the failed primary's up to the crash plus the
    // promoted node's since; the promoted device's NVM writes count from
    // the start of the phase (its replication writes included).
    const BackendSnap old = BackendSnap::of(*primary);
    for (const auto &[dev, bytes] : mirror_bytes0)
        if (dev == &serving->nvm())
            pc.b1.nvm_bytes_written -= bytes;
    pc.b1.busy_ns += old.busy_ns;
    pc.b1.replayed_entries += old.replayed_entries;
    pc.b1.rpc_calls += old.rpc_calls;
    pc.b1.nvm_bytes_written += old.nvm_bytes_written;
    pc.b1.nic_busy_ns += old.nic_busy_ns;
    pc.promotions = cluster->failoverEpochs().history().size();
    fillMetrics(pc, &r);

    // ---- durability audit on the promoted node ----
    const uint64_t aspan = tr.begin("check.audit", 0, tr.newRequest(),
                                    lanes[0].s->clock().now());
    auto be2 = crashAndRestart(*serving);
    r.audit.ran = true;
    InvariantChecker checker(be2.get());
    for (uint32_t j = 0; j < kSessions; ++j) {
        Lane &ln = lanes[j];
        const std::string name = "failover/" + std::to_string(j);
        ln.s->simulateCrash();
        HashTable reopened, check;
        if (!ok(ln.s->failover(1, be2.get())) ||
            !ok(HashTable::open(*ln.s, 1, name, &reopened)) ||
            !ok(ln.s->recover()) ||
            !ok(HashTable::open(*ln.s, 1, name, &check))) {
            r.audit.fail("recovery of " + name + " from NVM failed");
            continue;
        }
        for (const auto &[k, may] : ln.shadow) {
            Value got;
            ++r.audit.keys_checked;
            if (!ok(check.get(k, &got)) || !contains(may, got))
                r.audit.fail(name + " key " + std::to_string(k) +
                             " lost or not whole");
        }
        AuditReport rep;
        checker.checkQuiescent(check.id(), &rep);
        checker.checkHeap(check.id(), &rep);
        const auto raw = checker.hashContents(check.id(), &rep);
        if (raw && raw->size() != ln.shadow.size())
            rep.add(name + " raw walk finds " + std::to_string(raw->size()) +
                    " keys, expected " + std::to_string(ln.shadow.size()));
        for (const auto &[k, v8] : raw ? *raw : std::map<Key, uint64_t>{}) {
            auto it = ln.shadow.find(k);
            const bool known =
                it != ln.shadow.end() &&
                std::any_of(it->second.begin(), it->second.end(),
                            [&](const Value &v) { return v.asU64() == v8; });
            if (!known)
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
