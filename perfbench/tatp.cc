/**
 * @file
 * Workload `tatp`: the TATP standard transaction mix on one AsymNVM-RCB
 * session, with the front-end cache at Table 3's ratio (about a tenth of
 * the data). Read-path heavy: most virtual time goes to B+tree descents,
 * cache admission, prefetch gathers and remote reads.
 */

#include <unordered_map>

#include "apps/tatp.h"
#include "check/invariant_checker.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** One generated transaction: its type and every argument. */
struct TatpInput
{
    TatpTx tx;
    uint64_t s_id;
    uint8_t sf_type, ai_type, hour;
    uint64_t a, b;
};

/** The standard mix: 35/10/35 reads, then 2/14/2/2 writes. */
std::vector<TatpInput>
generateInputs(uint64_t seed, uint64_t subscribers, uint64_t n)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7a7b);
    std::vector<TatpInput> out(n);
    for (TatpInput &in : out) {
        in.s_id = 1 + rng.nextBounded(subscribers);
        in.sf_type = static_cast<uint8_t>(1 + rng.nextBounded(4));
        in.ai_type = static_cast<uint8_t>(1 + rng.nextBounded(4));
        in.hour = static_cast<uint8_t>(8 * rng.nextBounded(3));
        in.a = rng.next();
        in.b = rng.next();
        const uint64_t dice = rng.nextBounded(100);
        in.tx = dice < 35   ? TatpTx::GetSubscriberData
                : dice < 45 ? TatpTx::GetNewDestination
                : dice < 80 ? TatpTx::GetAccessData
                : dice < 82 ? TatpTx::UpdateSubscriberData
                : dice < 96 ? TatpTx::UpdateLocation
                : dice < 98 ? TatpTx::InsertCallForwarding
                            : TatpTx::DeleteCallForwarding;
    }
    return out;
}

bool
isWrite(TatpTx tx)
{
    return tx >= TatpTx::UpdateSubscriberData;
}

/**
 * Expected contents of the four tables. Seeded with the rows
 * Tatp::create populates (same generator, same order), then updated with
 * every acknowledged transaction.
 */
struct Shadow
{
    std::unordered_map<Key, Value> sub, ai, sf, cf;

    explicit Shadow(uint64_t subscribers)
    {
        Rng rng(subscribers ^ 0x7a7);
        for (uint64_t id = 1; id <= subscribers; ++id) {
            sub[Tatp::subscriberKey(id)] = Value::ofU64(id * 131);
            const uint32_t nai = 1 + rng.nextBounded(4);
            for (uint8_t t = 1; t <= nai; ++t)
                ai[Tatp::accessKey(id, t)] = Value::ofU64(id + t);
            const uint32_t nsf = 1 + rng.nextBounded(4);
            for (uint8_t t = 1; t <= nsf; ++t) {
                sf[Tatp::facilityKey(id, t)] = Value::ofU64(1);
                if (rng.nextBool(0.25))
                    cf[Tatp::forwardingKey(id, t, 8)] =
                        Value::ofString("555-0100");
            }
        }
    }

    uint64_t rows() const
    {
        return sub.size() + ai.size() + sf.size() + cf.size();
    }
};

const Value *
lookup(const std::unordered_map<Key, Value> &m, Key k)
{
    auto it = m.find(k);
    return it == m.end() ? nullptr : &it->second;
}

/** Expected outcome of a read transaction per the shadow. */
Status
expectRead(const Shadow &sh, const TatpInput &in, const Value **want)
{
    *want = nullptr;
    switch (in.tx) {
      case TatpTx::GetSubscriberData:
        *want = lookup(sh.sub, Tatp::subscriberKey(in.s_id));
        break;
      case TatpTx::GetAccessData:
        *want = lookup(sh.ai, Tatp::accessKey(in.s_id, in.ai_type));
        break;
      case TatpTx::GetNewDestination: {
        const Value *f =
            lookup(sh.sf, Tatp::facilityKey(in.s_id, in.sf_type));
        if (f == nullptr || f->asU64() == 0)
            return Status::NotFound;
        *want = lookup(sh.cf,
                       Tatp::forwardingKey(in.s_id, in.sf_type, in.hour));
        break;
      }
      default:
        break;
    }
    return *want == nullptr ? Status::NotFound : Status::Ok;
}

/**
 * Run one transaction through Tatp's public tx functions, check its
 * result against the shadow and apply it. Returns the call's status;
 * NotFound is a by-design TATP outcome and counts as success.
 */
Status
runTx(Tatp &t, Shadow &sh, const TatpInput &in, uint64_t *mut_bytes,
      std::vector<std::string> *errors)
{
    Value got;
    Status st = Status::Ok;
    switch (in.tx) {
      case TatpTx::GetSubscriberData:
        st = t.getSubscriberData(in.s_id, &got);
        break;
      case TatpTx::GetNewDestination:
        st = t.getNewDestination(in.s_id, in.sf_type, in.hour, &got);
        break;
      case TatpTx::GetAccessData:
        st = t.getAccessData(in.s_id, in.ai_type, &got);
        break;
      case TatpTx::UpdateSubscriberData:
        st = t.updateSubscriberData(in.s_id, in.sf_type, in.a, in.b);
        if (ok(st)) {
            sh.sub[Tatp::subscriberKey(in.s_id)] = Value::ofU64(in.a);
            sh.sf[Tatp::facilityKey(in.s_id, in.sf_type)] =
                Value::ofU64(in.b);
            *mut_bytes += 2 * kKvBytes;
        }
        return st;
      case TatpTx::UpdateLocation:
        st = t.updateLocation(in.s_id, in.a);
        if (ok(st)) {
            sh.sub[Tatp::subscriberKey(in.s_id)] = Value::ofU64(in.a);
            *mut_bytes += kKvBytes;
        }
        return st;
      case TatpTx::InsertCallForwarding:
        st = t.insertCallForwarding(in.s_id, in.sf_type, in.hour,
                                    Value::ofString("555-0199"));
        if (ok(st)) {
            sh.cf[Tatp::forwardingKey(in.s_id, in.sf_type, in.hour)] =
                Value::ofString("555-0199");
            *mut_bytes += kKvBytes;
        }
        return st;
      case TatpTx::DeleteCallForwarding: {
        const Key k = Tatp::forwardingKey(in.s_id, in.sf_type, in.hour);
        const bool present = sh.cf.count(k) != 0;
        st = t.deleteCallForwarding(in.s_id, in.sf_type, in.hour);
        if ((st == Status::Ok) != present ||
            (st != Status::Ok && st != Status::NotFound)) {
            errors->push_back("delete-CF status mismatch");
        } else if (ok(st)) {
            sh.cf.erase(k);
            *mut_bytes += sizeof(Key);
        }
        return st;
      }
    }
    const Value *want = nullptr;
    const Status exp = expectRead(sh, in, &want);
    if (st != exp || (ok(st) && got != *want))
        errors->push_back("read tx returned " + std::string(statusName(st)) +
                          ", expected " + statusName(exp));
    return st;
}

/** Read back every table row the shadow says a transaction wrote. */
void
auditTables(FrontendSession &s, const Shadow &sh,
            const std::unordered_map<Key, int> &touched, Audit *audit)
{
    const char *names[] = {"tatp/subscriber", "tatp/access_info",
                           "tatp/special_facility", "tatp/call_forwarding"};
    const std::unordered_map<Key, Value> *tables[] = {&sh.sub, &sh.ai,
                                                      &sh.sf, &sh.cf};
    for (int i = 0; i < 4; ++i) {
        BpTree tree;
        if (!ok(BpTree::open(s, 1, names[i], &tree))) {
            audit->fail(std::string("cannot open ") + names[i]);
            continue;
        }
        if (tree.size() != tables[i]->size())
            audit->fail(std::string(names[i]) + " row count " +
                        std::to_string(tree.size()) + " != shadow " +
                        std::to_string(tables[i]->size()));
        for (const auto &[key, table] : touched) {
            if (table != i)
                continue;
            Value got;
            const Status st = tree.find(key, &got);
            const Value *want = lookup(*tables[i], key);
            ++audit->keys_checked;
            if (want == nullptr ? st != Status::NotFound
                                : (!ok(st) || got != *want))
                audit->fail(std::string(names[i]) + " key " +
                            std::to_string(key) + " lost or wrong");
        }
    }
}

} // namespace

RepResult
runTatp(bool tiny, uint64_t seed, Tracer &tr)
{
    const uint64_t subscribers = tiny ? 500 : 20000;
    const uint64_t txs = tiny ? 1500 : 40000;
    const uint64_t tail = 200; // acknowledged, never group-committed
    RepResult r;
    const auto inputs = generateInputs(seed, subscribers, txs + tail);
    r.input_digest = 0;
    for (const TatpInput &in : inputs)
        r.input_digest = mixDigest(
            mixDigest(r.input_digest, in.s_id ^ (uint64_t(in.tx) << 56)),
            in.a);

    // ---- set-up: back-end, session, tables, preload ----
    const uint64_t t0 = hostWallNs();
    auto be = std::make_unique<BackendNode>(1, backendConfig(128ull << 20));
    // Table 3's TATP cell: 600 KB of cache per 10k subscribers.
    auto s = std::make_unique<FrontendSession>(
        SessionConfig::rcb(1, subscribers * 60, 1024));
    Tatp tatp;
    if (!ok(s->connect(be.get())) ||
        !ok(Tatp::create(*s, 1, subscribers, &tatp))) {
        r.output_errors.push_back("tatp set-up failed");
        return r;
    }
    r.setup_s = (hostWallNs() - t0) / 1e9;
    r.device_bytes = be->nvm().size();
    Shadow sh(subscribers);

    // ---- measured phase ----
    PhaseCounters pc;
    pc.begin({s.get()}, *be);
    std::unordered_map<Key, int> touched; // key -> table index
    auto touch = [&](const TatpInput &in) {
        switch (in.tx) {
          case TatpTx::UpdateSubscriberData:
            touched[Tatp::facilityKey(in.s_id, in.sf_type)] = 2;
            [[fallthrough]];
          case TatpTx::UpdateLocation:
            touched[Tatp::subscriberKey(in.s_id)] = 0;
            break;
          case TatpTx::InsertCallForwarding:
          case TatpTx::DeleteCallForwarding:
            touched[Tatp::forwardingKey(in.s_id, in.sf_type, in.hour)] = 3;
            break;
          default:
            break;
        }
    };
    const uint64_t cpu0 = hostCpuNs();
    for (uint64_t i = 0; i < txs; ++i) {
        const TatpInput &in = inputs[i];
        const uint64_t v0 = s->clock().now();
        const uint64_t span =
            tr.begin("apps.tx", 0, tr.newRequest(), v0);
        const Status st = runTx(tatp, sh, in, &pc.mut_bytes,
                                &r.output_errors);
        tr.end(span, s->clock().now());
        pc.sample(s->clock().now() - v0, isWrite(in.tx));
        ++r.attempted;
        if (st != Status::Ok && st != Status::NotFound)
            ++r.failed;
        touch(in);
    }
    const uint64_t fspan =
        tr.begin("frontend.flush", 0, tr.newRequest(), s->clock().now());
    if (!ok(s->flushAll()))
        r.output_errors.push_back("final flushAll failed");
    tr.end(fspan, s->clock().now());
    r.measured_cpu_ns = hostCpuNs() - cpu0;
    pc.ops = txs;
    pc.live_bytes = sh.rows() * kKvBytes;
    pc.finish({s.get()}, *be);
    fillMetrics(pc, &r);

    // ---- durability audit ----
    // A tail of acknowledged transactions stays in the open group-commit
    // batch: after the crash only their operation logs can bring them back.
    uint64_t unused = 0;
    for (uint64_t i = txs; i < inputs.size(); ++i) {
        const Status st =
            runTx(tatp, sh, inputs[i], &unused, &r.output_errors);
        if (st != Status::Ok && st != Status::NotFound)
            r.output_errors.push_back("tail transaction failed");
        touch(inputs[i]);
    }
    const uint64_t aspan =
        tr.begin("check.audit", 0, tr.newRequest(), s->clock().now());
    auto be2 = crashAndRestart(*be);
    s->simulateCrash();
    Tatp reopened;
    r.audit.ran = true;
    if (!ok(s->failover(1, be2.get())) ||
        !ok(Tatp::open(*s, 1, &reopened)) || !ok(s->recover())) {
        r.audit.fail("recovery from NVM failed");
    } else {
        auditTables(*s, sh, touched, &r.audit);
        InvariantChecker checker(be2.get());
        AuditReport rep;
        for (DsId id = 0; id < be2->nameCount(); ++id)
            checker.checkQuiescent(id, &rep);
        for (const std::string &v : rep.violations)
            r.audit.fail(v);
    }
    tr.end(aspan, s->clock().now());
    s.reset(); // sessions go before the back-ends they reference
    return r;
}

} // namespace perfbench
