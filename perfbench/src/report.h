// Result printing: the human report, the environment record, and the
// final one-line JSON result the benchmark contract asks for.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

struct Env {
  unsigned hw_threads = 1;
  std::string build_type;
  std::string compiler;
};

/// "p50 X unit, pNN Y unit (n=K)".
std::string describe(const LatencySummary& summary, const std::string& unit);

/// Prints the report, the record line and (when no oracle mismatched) the
/// final JSON line. Returns the process exit code.
int emit(const Options& options, const Env& env, Result& result);

}  // namespace perfbench
