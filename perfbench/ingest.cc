/**
 * @file
 * Workload `ingest`: 100% insert of fresh uniform keys (8 B key, 64 B
 * value) into a preloaded multi-version B+tree about ten times the
 * front-end cache, on one AsymNVM-RCB session (batch 1024) with one
 * mirror attached. Write-path heavy: op-log/memory-log encoding, group
 * commit, back-end replay, path-copy retire/GC, the allocator and mirror
 * replication. Read prefetch never fires on write paths.
 */

#include <algorithm>
#include <unordered_set>

#include "check/invariant_checker.h"
#include "cluster/mirror.h"
#include "ds/mv_bptree.h"
#include "workloads.h"

namespace perfbench {

RepResult
runIngest(bool tiny, uint64_t seed, Tracer &tr)
{
    const uint64_t preload = tiny ? 2000 : 20000;
    // The allocator trades slabs with the back-end often while a fresh
    // tree starts taking single inserts, and how often differs from tree
    // to tree; after the warm-up the rate is low and steady.
    const uint64_t warmup = tiny ? 500 : 60000;
    const uint64_t ops = tiny ? 1500 : 100000;
    const uint64_t tail = 200; // acknowledged, never group-committed
    RepResult r;

    // Inputs: distinct uniform keys, the first `preload` of them loaded
    // during set-up, the rest inserted by the measured phase and tail.
    Rng rng(seed * 0xd1b54a32d192ed03ULL + 0x1a9e);
    std::vector<std::pair<Key, Value>> kvs;
    std::unordered_set<Key> seen;
    const uint64_t total = preload + warmup + ops + tail;
    kvs.reserve(total);
    while (kvs.size() < total) {
        const Key k = rng.next() >> 1;
        if (k == 0 || !seen.insert(k).second)
            continue;
        kvs.emplace_back(k, randomValue(rng));
        r.input_digest = mixDigest(r.input_digest, k);
    }
    std::vector<std::pair<Key, Value>> load(kvs.begin(),
                                            kvs.begin() + preload);
    std::sort(load.begin(), load.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    // ---- set-up: back-end + mirror, session, tree, preload ----
    const uint64_t t0 = hostWallNs();
    const BackendConfig bcfg = backendConfig(128ull << 20);
    auto mirror = std::make_unique<MirrorNode>(200, bcfg.nvm_size);
    auto be = std::make_unique<BackendNode>(1, bcfg);
    be->addMirror(mirror.get());
    // Cache about a tenth of the preloaded tree (~100 B of NVM per key).
    auto s = std::make_unique<FrontendSession>(
        SessionConfig::rcb(1, preload * 10, 1024));
    MvBpTree tree;
    bool ok_setup = ok(s->connect(be.get())) &&
                    ok(MvBpTree::create(*s, 1, "ingest", &tree));
    for (size_t i = 0; ok_setup && i < load.size(); i += 1024) {
        const size_t n = std::min<size_t>(1024, load.size() - i);
        ok_setup = ok(tree.insertBatch({load.data() + i, n}));
    }
    // Warm-up: the insert path's allocator slabs and GC queue reach their
    // steady state before the measured phase starts.
    for (uint64_t i = preload; ok_setup && i < preload + warmup; ++i)
        ok_setup = ok(tree.insert(kvs[i].first, kvs[i].second));
    ok_setup = ok_setup && ok(s->flushAll());
    if (!ok_setup) {
        r.output_errors.push_back("ingest set-up failed");
        return r;
    }
    r.setup_s = (hostWallNs() - t0) / 1e9;
    r.device_bytes = be->nvm().size() + mirror->device().size();

    // ---- measured phase ----
    PhaseCounters pc;
    pc.begin({s.get()}, *be);
    const uint64_t cpu0 = hostCpuNs();
    for (uint64_t i = preload + warmup; i < preload + warmup + ops; ++i) {
        const uint64_t v0 = s->clock().now();
        const uint64_t span = tr.begin("ds.op", 0, tr.newRequest(), v0);
        const Status st = tree.insert(kvs[i].first, kvs[i].second);
        tr.end(span, s->clock().now());
        pc.sample(s->clock().now() - v0, true);
        ++r.attempted;
        if (ok(st))
            pc.mut_bytes += kKvBytes;
        else
            ++r.failed;
    }
    const uint64_t fspan =
        tr.begin("frontend.flush", 0, tr.newRequest(), s->clock().now());
    if (!ok(s->flushAll()))
        r.output_errors.push_back("final flushAll failed");
    tr.end(fspan, s->clock().now());
    r.measured_cpu_ns = hostCpuNs() - cpu0;
    pc.ops = ops;
    pc.live_bytes = (preload + warmup + ops) * kKvBytes;
    pc.finish({s.get()}, *be);
    fillMetrics(pc, &r);

    // ---- durability audit ----
    for (uint64_t i = preload + warmup + ops; i < kvs.size(); ++i)
        if (!ok(tree.insert(kvs[i].first, kvs[i].second)))
            r.output_errors.push_back("tail insert failed");
    const uint64_t aspan =
        tr.begin("check.audit", 0, tr.newRequest(), s->clock().now());
    auto be2 = crashAndRestart(*be);
    s->simulateCrash();
    MvBpTree reopened;
    r.audit.ran = true;
    if (!ok(s->failover(1, be2.get())) ||
        !ok(MvBpTree::open(*s, 1, "ingest", &reopened)) ||
        !ok(s->recover())) {
        r.audit.fail("recovery from NVM failed");
    } else {
        MvBpTree check;
        if (!ok(MvBpTree::open(*s, 1, "ingest", &check)))
            r.audit.fail("cannot reopen the tree");
        if (check.size() != kvs.size())
            r.audit.fail("tree size " + std::to_string(check.size()) +
                         " != " + std::to_string(kvs.size()));
        for (const auto &[k, v] : kvs) {
            Value got;
            ++r.audit.keys_checked;
            if (!ok(check.find(k, &got)) || got != v)
                r.audit.fail("key " + std::to_string(k) + " lost or wrong");
        }
        InvariantChecker checker(be2.get());
        AuditReport rep;
        checker.checkQuiescent(check.id(), &rep);
        for (const std::string &v : rep.violations)
            r.audit.fail(v);
    }
    tr.end(aspan, s->clock().now());
    s.reset(); // sessions go before the back-ends they reference
    return r;
}

} // namespace perfbench
