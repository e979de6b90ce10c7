// perfbench: one seeded end-to-end benchmark over dosmeter's capture,
// history and live paths.
//
//   perfbench --workload capture|history|live --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--commit SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans around every call into a layer and prints the
// per-layer metrics. The last line of stdout is the JSON result; any
// oracle mismatch exits 1 without it. See README.md.
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "report.h"
#include "trace.h"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload capture|history|live --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--commit SHA]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::stoull(value);
    else if (arg == "--seconds") options.seconds = std::stod(value);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--commit") options.commit = value;
    else if (arg == "--out-dir") options.out_dir = value;
    else return usage();
  }
  if (options.seconds <= 0.0 || options.out_dir.empty()) return usage();
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads = hw > 0 ? static_cast<int>(hw) : 1;
  std::filesystem::create_directories(options.out_dir);

  Result result;
  int status = 0;
  if (options.workload == "capture") status = run_capture(options, result);
  else if (options.workload == "history") status = run_history(options, result);
  else if (options.workload == "live") status = run_live(options, result);
  else return usage();
  if (status != 0) return status;

  if (options.trace) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".jsonl";
    if (!Tracer::get().write_jsonl(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    result.line("spans: " + std::to_string(Tracer::get().size()) +
                " records written to " + path);
  }
  const Env env{static_cast<unsigned>(options.threads), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER};
  return emit(options, env, result);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
