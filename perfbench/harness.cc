#include "harness.h"

#include <cinttypes>

namespace perfbench {

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &sp : spans_)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"id\": %" PRIu64
                     ", \"parent\": %" PRIu64 ", \"request\": %" PRIu64
                     ", \"v_start_ns\": %" PRIu64 ", \"v_end_ns\": %" PRIu64
                     ", \"h_start_ns\": %" PRIu64 ", \"h_end_ns\": %" PRIu64
                     "}\n",
                     sp.name, sp.id, sp.parent, sp.request, sp.v_start,
                     sp.v_end, sp.h_start, sp.h_end);
    return std::fclose(f) == 0;
}

namespace {

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

double
p50Of(std::vector<uint64_t> &v)
{
    std::sort(v.begin(), v.end());
    return percentile(v, 50);
}

} // namespace

void
fillMetrics(PhaseCounters &pc, RepResult *out)
{
    const double ops = pc.ops;
    auto per_op = [&](double v) { return ratio(v, ops); };

    uint64_t max_dt = 0;
    VerbCounters dv;
    RetryStats dr;
    PrefetchStats dp;
    LogFormatStats dl;
    PipelineStats dpl;
    uint64_t hits = 0, misses = 0, evictions = 0, flushes = 0, retries = 0;
    for (size_t i = 0; i < pc.s0.size(); ++i) {
        const SessionSnap &a = pc.s0[i];
        const SessionSnap &b = pc.s1[i];
        max_dt = std::max(max_dt, b.clock - a.clock);
        const VerbCounters &va = a.st.verbs, &vb = b.st.verbs;
        dv.reads += vb.reads - va.reads;
        dv.read_bytes += vb.read_bytes - va.read_bytes;
        dv.writes += vb.writes - va.writes;
        dv.write_bytes += vb.write_bytes - va.write_bytes;
        dv.posted += vb.posted - va.posted;
        dv.posted_bytes += vb.posted_bytes - va.posted_bytes;
        dv.atomics += vb.atomics - va.atomics;
        dv.atomic_bytes += vb.atomic_bytes - va.atomic_bytes;
        dv.doorbells += vb.doorbells - va.doorbells;
        dv.wqes += vb.wqes - va.wqes;
        retries += b.st.retry.totalRetries() - a.st.retry.totalRetries();
        dr.timeouts += b.st.retry.timeouts - a.st.retry.timeouts;
        dr.backoff_ns += b.st.retry.backoff_ns - a.st.retry.backoff_ns;
        dr.failovers += b.st.retry.failovers - a.st.retry.failovers;
        dr.failover_wait_ns +=
            b.st.retry.failover_wait_ns - a.st.retry.failover_wait_ns;
        dp.issued += b.st.prefetch.issued - a.st.prefetch.issued;
        dp.hits += b.st.prefetch.hits - a.st.prefetch.hits;
        dl.tx_wire_bytes +=
            b.st.logfmt.tx_wire_bytes - a.st.logfmt.tx_wire_bytes;
        dl.op_wire_bytes +=
            b.st.logfmt.op_wire_bytes - a.st.logfmt.op_wire_bytes;
        dl.tx_payload_bytes +=
            b.st.logfmt.tx_payload_bytes - a.st.logfmt.tx_payload_bytes;
        dl.op_payload_bytes +=
            b.st.logfmt.op_payload_bytes - a.st.logfmt.op_payload_bytes;
        dpl.rounds += b.st.pipeline.rounds - a.st.pipeline.rounds;
        dpl.batched_reads +=
            b.st.pipeline.batched_reads - a.st.pipeline.batched_reads;
        dpl.solo_rounds +=
            b.st.pipeline.solo_rounds - a.st.pipeline.solo_rounds;
        dpl.dep_stalls += b.st.pipeline.dep_stalls - a.st.pipeline.dep_stalls;
        dpl.coalesced_fences +=
            b.st.pipeline.coalesced_fences - a.st.pipeline.coalesced_fences;
        hits += b.cache_hits - a.cache_hits;
        misses += b.cache_misses - a.cache_misses;
        evictions += b.cache_evictions - a.cache_evictions;
        flushes += b.st.tx_flushes - a.st.tx_flushes;
    }

    std::sort(pc.lat.begin(), pc.lat.end());
    const BackendSnap &b0 = pc.b0, &b1 = pc.b1;
    auto &v = out->virt;
    v["kops"] = ratio(ops * 1e6, max_dt);
    v["op_p50_ns"] = percentile(pc.lat, 50);
    v["op_p99_ns"] = percentile(pc.lat, 99);
    v["op_p999_ns"] = percentile(pc.lat, 99.9);
    v["wire_bytes_per_op"] = per_op(dv.totalBytes());
    v["nvm_write_amp"] =
        ratio(b1.nvm_bytes_written - b0.nvm_bytes_written, pc.mut_bytes);
    v["space_amp"] = ratio(pc.blocks_in_use * pc.block_size, pc.live_bytes);

    const uint64_t log_wire = dl.tx_wire_bytes + dl.op_wire_bytes;
    const uint64_t log_payload = dl.tx_payload_bytes + dl.op_payload_bytes;
    auto &l = out->layer;
    l["check.latency_samples"] = pc.lat.size();
    l["apps.tx_read_p50_ns"] = p50Of(pc.read_lat);
    l["apps.tx_write_p50_ns"] = p50Of(pc.write_lat);
    l["ds.node_reads_per_op"] = per_op(hits + misses);
    l["frontend.cache_hit_ratio"] = ratio(hits, hits + misses);
    l["frontend.cache_evictions_per_op"] = per_op(evictions);
    l["frontend.prefetch_issued_per_op"] = per_op(dp.issued);
    l["frontend.prefetch_hit_ratio"] = ratio(dp.hits, dp.issued);
    l["frontend.read_remote_p50_ns"] = pc.remote_hist.percentileInterp(50);
    l["frontend.commit_p50_ns"] = pc.commit_hist.percentileInterp(50);
    l["frontend.commit_p99_ns"] = pc.commit_hist.percentileInterp(99);
    l["frontend.tx_flushes_per_op"] = per_op(flushes);
    l["frontend.log_wire_bytes_per_op"] = per_op(log_wire);
    l["frontend.log_framing_ratio"] = ratio(log_wire, log_payload);
    l["frontend.pipeline_overlap"] = ratio(dpl.batched_reads, dpl.rounds);
    l["frontend.pipeline_stall_ratio"] = ratio(dpl.solo_rounds, dpl.rounds);
    l["frontend.dep_stalls_per_op"] = per_op(dpl.dep_stalls);
    l["frontend.coalesced_fences_per_op"] = per_op(dpl.coalesced_fences);
    l["rdma.verbs_per_op"] = per_op(dv.totalVerbs());
    l["rdma.doorbells_per_op"] = per_op(dv.doorbells);
    l["rdma.wqes_per_doorbell"] = ratio(dv.wqes, dv.doorbells);
    l["rdma.read_bytes_per_op"] = per_op(dv.read_bytes);
    l["rdma.write_bytes_per_op"] = per_op(dv.write_bytes + dv.posted_bytes);
    l["rdma.retries_per_op"] = per_op(retries);
    l["rdma.backoff_ns_per_op"] = per_op(dr.backoff_ns);
    l["rdma.timeouts"] = dr.timeouts;
    l["sim.nic_busy_ns_per_op"] = per_op(b1.nic_busy_ns - b0.nic_busy_ns);
    l["sim.nic_utilization"] = pc.nic_utilization;
    l["backend.busy_ns_per_op"] = per_op(b1.busy_ns - b0.busy_ns);
    l["backend.replayed_entries_per_op"] =
        per_op(b1.replayed_entries - b0.replayed_entries);
    l["backend.rpc_calls_per_op"] = per_op(b1.rpc_calls - b0.rpc_calls);
    l["backend.repl_bytes_per_op"] = per_op(b1.repl.bytes - b0.repl.bytes);
    l["backend.repl_coalesce_ratio"] =
        ratio(b1.repl.raw_writes - b0.repl.raw_writes,
              b1.repl.ranges - b0.repl.ranges);
    l["backend.repl_p99_ns"] = pc.repl_hist.percentileInterp(99);
    l["nvm.bytes_written_per_op"] =
        per_op(b1.nvm_bytes_written - b0.nvm_bytes_written);
    l["nvm.blocks_in_use"] = pc.blocks_in_use;
    l["cluster.failover_wait_ns"] = dr.failover_wait_ns;
    l["cluster.failovers"] = dr.failovers;
    l["cluster.promotions"] = pc.promotions;
}

} // namespace perfbench
