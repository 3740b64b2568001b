#pragma once
/// \file workloads.hpp
/// \brief The three benchmark workloads: input generation and the measured
/// closed loop of each.

#include <cstdint>
#include <string>

#include "util.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::string dir;       ///< directory holding the generated inputs
  double seconds = 10;   ///< measured closed-loop time
  bool trace = false;    ///< per-module run instead of the end-to-end one
  bool tiny = false;     ///< self-check sizes
  unsigned threads = 1;  ///< scan threads and serve pool size
  unsigned nproc = 1;    ///< serve clients, reference split, parallel probe
};

/// True for the names run_workload accepts.
bool known_workload(const std::string& name);

/// Writes the workload's dataset file (and, for serve_mix, its request
/// lines) into `dir`, deterministically from `seed`.  The planted
/// interaction goes to a separate file the program never reads.
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir, bool tiny);

/// Runs the workload's closed loop, checks every output, and returns the
/// end-to-end metrics (or, with cfg.trace, the per-module ones).
Report run_workload(const RunConfig& cfg);

}  // namespace perfbench
