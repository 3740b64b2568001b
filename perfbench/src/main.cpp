/// \file main.cpp
/// \brief trigen_perfbench: the compiled half of the benchmark.
///
///   trigen_perfbench gen --workload W --seed S --dir DIR [--tiny]
///   trigen_perfbench run --workload W --dir DIR --seconds T --trace 0|1 [--tiny]
///
/// `gen` writes the workload's inputs (dataset file, request lines and the
/// planted interaction) from the seed; `run` drives the library on them and
/// prints one JSON object: metrics with units, attempted/failed checks,
/// exact counts, and the host facts results are stamped with.  perfbench/
/// run.py builds this program and calls both.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "trigen/core/kernels.hpp"
#include "trigen/tune/profile.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fputs(
      "usage: trigen_perfbench gen --workload W --seed S --dir DIR [--tiny]\n"
      "       trigen_perfbench run --workload W --dir DIR --seconds T "
      "--trace 0|1 [--tiny]\n"
      "workloads: triplets pairs_wide serve_mix\n",
      stderr);
  return 2;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  perfbench::RunConfig cfg;
  std::uint64_t seed = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--tiny") {
      cfg.tiny = true;
    } else if (v == nullptr) {
      return usage();
    } else if (a == "--workload") {
      cfg.workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--dir") {
      cfg.dir = argv[++i];
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::string(argv[++i]) == "1";
    } else {
      return usage();
    }
  }
  if (!perfbench::known_workload(cfg.workload) || cfg.dir.empty()) {
    return usage();
  }
  // The measured scans and the serve pool keep cfg.threads at one.  On a
  // shared 4-vCPU virtual machine a fork-join over every vCPU measures how
  // much of each the host lends: the median job time of back-to-back runs
  // differed by up to 37% at 4 threads and by up to 12% at one.  The
  // nproc-thread speed is still measured, as combinatorics.parallel_eff in
  // the traced run.
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  try {
    if (cmd == "gen") {
      perfbench::generate_inputs(cfg.workload, seed, cfg.dir, cfg.tiny);
      return 0;
    }
    if (cmd != "run") return usage();
    perfbench::Report rep = perfbench::run_workload(cfg);
    const auto& host = trigen::tune::this_host_fingerprint();
    rep.info.push_back({"host_fingerprint", hex16(host.digest())});
    rep.info.push_back({"cpu", host.cpu_brand});
    rep.info.push_back({"nproc", std::to_string(cfg.nproc)});
    std::printf("%s\n", perfbench::to_json(rep).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trigen_perfbench: %s\n", e.what());
    return 1;
  }
}
