#ifndef ASYMNVM_PERFBENCH_WORKLOADS_H_
#define ASYMNVM_PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's workloads. Each function runs one full repetition —
 * set-up, measured phase, durability audit — against a fresh simulated
 * deployment, driving the library only through its public entry points,
 * and returns the repetition's metrics. See README.md for why each
 * workload exists and what it is sized to.
 */

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

/** @p tiny shrinks every count for the self-test. */
RepResult runTatp(bool tiny, uint64_t seed, Tracer &tr);
RepResult runIngest(bool tiny, uint64_t seed, Tracer &tr);
RepResult runYcsbPipelined(bool tiny, uint64_t seed, Tracer &tr);
RepResult runFailover(bool tiny, uint64_t seed, Tracer &tr);

/** Dispatch by workload name; false when the name is unknown. */
bool runWorkload(const std::string &name, bool tiny, uint64_t seed,
                 Tracer &tr, RepResult *out);

} // namespace perfbench

#endif // ASYMNVM_PERFBENCH_WORKLOADS_H_
