#include "perfbench/src/machine.h"

#include <sstream>
#include <thread>

#include "src/common/lockstep.h"
#include "src/common/topology.h"

namespace perfbench {

std::string MachineRecordJson(const std::string& git_sha,
                              const std::string& source_digest) {
#ifdef __clang__
  const char* kCompiler = "";  // __VERSION__ names clang itself
#else
  const char* kCompiler = "gcc ";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const dpbench::topology::Topology& topo = dpbench::topology::Detect();
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency()
     << ", \"numa_nodes\": " << topo.num_nodes()
     << ", \"lockstep_isa\": \""
     << dpbench::lockstep::TierName(dpbench::lockstep::ActiveTier())
     << "\", \"lane_width\": " << dpbench::lockstep::ActiveLaneWidth()
     << ", \"compiler\": \"" << kCompiler << __VERSION__ << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"cxx_flags\": \"" << PERFBENCH_CXX_FLAGS << "\""
     << ", \"ndebug\": " << (ndebug ? "true" : "false")
     << ", \"git_sha\": \"" << git_sha << "\""
     << ", \"source_digest\": \"" << source_digest << "\"}";
  return os.str();
}

}  // namespace perfbench
