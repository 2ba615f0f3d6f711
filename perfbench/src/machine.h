// The machine and build a result was measured on, printed with every
// result so numbers from different boxes or build types are never
// compared by accident.
#ifndef PERFBENCH_SRC_MACHINE_H_
#define PERFBENCH_SRC_MACHINE_H_

#include <string>

namespace perfbench {

/// One-line JSON object: cores, NUMA nodes, lockstep ISA tier and lane
/// width, compiler, build type and flags, whether NDEBUG is defined, and
/// the source identity handed in by the launcher.
std::string MachineRecordJson(const std::string& git_sha,
                              const std::string& source_digest);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MACHINE_H_
