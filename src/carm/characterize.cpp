#include "trigen/carm/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "trigen/combinatorics/combinations.hpp"

namespace trigen::carm {

using core::CpuVersion;
using gpusim::GpuVersion;
using gpusim::OpCountModel;
using gpusim::OpMix;

OpMix cpu_op_mix(CpuVersion v, OpCountModel model, std::size_t bs) {
  if (v == CpuVersion::kV5PairCache) {
    // The order-3 path counts the eight genotype-{0,1}^3 cells.  Per word
    // of each triplet, finalize ANDs z0/z1 against the four cached xa∩yb
    // planes and counts the results: 8 ANDs + 8 POPCNTs (the (a, b, 2)
    // cells derive from the cached popcounts).  It loads each z word once
    // per group of four planes: 2 z + 4 cache = 6 32-bit loads, all
    // L1-resident.  The extend01 rung adds 4 ANDs + 4 POPCNTs and 4 loads
    // (x0, x1, y0, y1) per word of each (x, y) prefix, amortized over the
    // B_S = `bs` last-axis SNPs of a block.  The pair tables that complete
    // the other 19 cells cost about 3/M of the triplet work and are not
    // counted.  The paper predates V5 and prints no counts for it, and the
    // path computes no NOR (the one op the kPaper/kExact models count
    // differently), so the same mix serves both models.
    const double per_prefix =
        1.0 / static_cast<double>(std::max<std::size_t>(1, bs));
    OpMix m;
    m.popcnt = 8 + 4 * per_prefix;
    m.logic = 8 + 4 * per_prefix;
    m.loads = 6 + 4 * per_prefix;
    return m;
  }
  const GpuVersion mapped = v == CpuVersion::kV1Naive
                                ? GpuVersion::kV1Naive
                                : GpuVersion::kV2Split;
  return gpusim::op_mix(mapped, model);
}

KernelPoint characterize_cpu_version(const core::Detector& det, CpuVersion v,
                                     unsigned threads, OpCountModel model) {
  core::DetectorOptions opt;
  opt.version = v;
  opt.threads = threads;
  const core::DetectionResult r = det.run(opt);

  const OpMix mix = cpu_op_mix(v, model, r.tiling_used.bs);
  const double words =
      v == CpuVersion::kV1Naive
          ? static_cast<double>(det.planes_v1().words())
          : static_cast<double>(det.planes_split().words(0) +
                                det.planes_split().words(1));
  const double total_words = words * static_cast<double>(r.combinations_evaluated);
  const double ops = total_words * (mix.popcnt + mix.logic);
  const double bytes = total_words * mix.loads * 4.0;

  KernelPoint p;
  p.name = core::cpu_version_name(v);
  p.ai = ops / bytes;
  p.gintops = ops / r.seconds / 1e9;
  p.seconds = r.seconds;
  p.elements_per_second = r.elements_per_second();
  return p;
}

std::vector<KernelPoint> characterize_cpu_ladder(
    const dataset::GenotypeMatrix& d, unsigned threads, OpCountModel model) {
  const core::Detector det(d);
  std::vector<KernelPoint> points;
  for (const CpuVersion v :
       {CpuVersion::kV1Naive, CpuVersion::kV2Split, CpuVersion::kV3Blocked,
        CpuVersion::kV4Vector, CpuVersion::kV5PairCache}) {
    points.push_back(characterize_cpu_version(det, v, threads, model));
  }
  return points;
}

std::vector<KernelPoint> characterize_gpu_ladder(
    const gpusim::GpuDeviceSpec& dev, std::size_t num_snps,
    std::size_t num_samples, OpCountModel model) {
  gpusim::WorkloadShape shape;
  shape.triplets = combinatorics::n_choose_k(num_snps, 3);
  shape.samples = num_samples;
  shape.words_total = dataset::padded_words_for(num_samples / 2) * 2;

  std::vector<KernelPoint> points;
  for (const GpuVersion v :
       {GpuVersion::kV1Naive, GpuVersion::kV2Split, GpuVersion::kV3Transposed,
        GpuVersion::kV4Tiled}) {
    const gpusim::CostEstimate e =
        estimate_gpu_cost(dev, v, shape, gpusim::LaunchConfig{}, model);
    KernelPoint p;
    p.name = gpu_version_name(v);
    p.ai = e.ai;
    p.gintops = e.gintops;
    p.seconds = e.seconds;
    p.elements_per_second = e.elements_per_second;
    points.push_back(p);
  }
  return points;
}

std::string roofline_chart(const CarmRoofs& roofs,
                           const std::vector<KernelPoint>& points, int width,
                           int height) {
  // Plot area: x = log2(AI) in [-4, 6], y = log2(GINTOP/s) auto-ranged.
  const double x_min = -4.0, x_max = 6.0;
  double y_max = 1.0;
  for (const auto& r : roofs.compute) {
    y_max = std::max(y_max, std::log2(r.intops_per_s / 1e9) + 1.0);
  }
  for (const auto& p : points) {
    y_max = std::max(y_max, std::log2(std::max(p.gintops, 1e-3)) + 1.0);
  }
  double y_min = y_max - 14.0;

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  auto plot = [&](double x, double y, char ch) {
    const int cx = static_cast<int>(std::lround((x - x_min) / (x_max - x_min) *
                                                (width - 1)));
    const int cy = static_cast<int>(std::lround((y - y_min) / (y_max - y_min) *
                                                (height - 1)));
    if (cx < 0 || cx >= width || cy < 0 || cy >= height) return;
    auto& cell = grid[static_cast<std::size_t>(height - 1 - cy)]
                     [static_cast<std::size_t>(cx)];
    // Kernel markers win over roof lines.
    if (cell == ' ' || (ch >= '1' && ch <= '9')) cell = ch;
  };

  // Memory roofs: performance = BW * AI, capped at the top compute roof.
  const double top_peak = std::log2(std::max(roofs.vector_peak(), 1.0) / 1e9);
  for (const auto& roof : roofs.memory) {
    for (int cx = 0; cx < width; ++cx) {
      const double x = x_min + (x_max - x_min) * cx / (width - 1);
      const double y =
          std::log2(roof.bytes_per_s / 1e9) + x;  // log2(BW * AI / 1e9)
      if (y <= top_peak) plot(x, y, '/');
    }
  }
  // Compute roofs: horizontal lines.
  for (const auto& roof : roofs.compute) {
    const double y = std::log2(roof.intops_per_s / 1e9);
    for (int cx = 0; cx < width; ++cx) {
      const double x = x_min + (x_max - x_min) * cx / (width - 1);
      plot(x, y, '-');
    }
  }
  // Kernel points.
  for (std::size_t i = 0; i < points.size(); ++i) {
    plot(std::log2(std::max(points[i].ai, 1e-6)),
         std::log2(std::max(points[i].gintops, 1e-6)),
         static_cast<char>('1' + static_cast<char>(i % 9)));
  }

  std::ostringstream os;
  os << "  Performance [log2 GINTOP/s] vs Arithmetic Intensity [log2 intop/byte]\n";
  for (int row = 0; row < height; ++row) {
    const double y = y_max - (y_max - y_min) * row / (height - 1);
    char label[16];
    std::snprintf(label, sizeof label, "%6.1f |", y);
    os << label << grid[static_cast<std::size_t>(row)] << '\n';
  }
  os << "        +" << std::string(static_cast<std::size_t>(width), '-') << '\n';
  os << "         " << "log2(AI): " << x_min << " .. " << x_max << "    ";
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << static_cast<char>('1' + static_cast<char>(i % 9)) << "="
       << points[i].name << ' ';
  }
  os << '\n';
  return os.str();
}

std::string points_csv(const std::vector<KernelPoint>& points) {
  std::ostringstream os;
  os << "kernel,ai_intop_per_byte,gintops,seconds,elements_per_second\n";
  for (const auto& p : points) {
    os << p.name << ',' << p.ai << ',' << p.gintops << ',' << p.seconds << ','
       << p.elements_per_second << '\n';
  }
  return os.str();
}

}  // namespace trigen::carm
