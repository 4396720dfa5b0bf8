#include "workloads.h"

namespace perfbench {

bool
runWorkload(const std::string &name, bool tiny, uint64_t seed,
            Tracer &tr, RepResult *out)
{
    if (name == "tatp")
        *out = runTatp(tiny, seed, tr);
    else if (name == "ingest")
        *out = runIngest(tiny, seed, tr);
    else if (name == "ycsb_pipelined")
        *out = runYcsbPipelined(tiny, seed, tr);
    else if (name == "failover")
        *out = runFailover(tiny, seed, tr);
    else
        return false;
    return true;
}

} // namespace perfbench
