// Host and build fingerprint printed with every result. Results whose
// fingerprints differ are not comparable (run.py --compare refuses them).
#pragma once

#include <string>

namespace perfbench {

/// Worker threads the campaign workloads use: min(nproc, 4).
int campaign_jobs();

/// One-line JSON object: compiler, CMAKE_BUILD_TYPE, NDEBUG,
/// CONGA_TELEMETRY, nproc, campaign worker count, the simulator's source
/// digest (campaign::source_digest()) and the host CPU model.
std::string fingerprint_json();

}  // namespace perfbench
