/// \file trigen_cli.cpp
/// \brief `trigen` — command-line front end for the library.
///
/// Subcommands:
///   generate   synthesize a case-control dataset (optional planted triple)
///   info       print dataset statistics
///   convert    text <-> binary dataset conversion
///   scan       exhaustive detection at any interaction order (--order k,
///              default 3): whole space, a rank range, or one checkpointed
///              shard of a W-way plan
///   scan2      exhaustive 2-way detection (= scan --order 2; same flags,
///              over the pair rank space)
///   merge      fold shard result files (any one order) into the full-scan
///              answer
///   baseline   MPI3SNP-style engine on the same dataset (for comparison)
///   significance  permutation test: empirical p-value of the best order-k
///              combination (--order k, default 3)
///   serve      resident scan server (one loaded dataset, async job queue)
///   coordinate fault-tolerant fleet control plane: lease shards to
///              workers, survive their crashes, merge exactly
///   work       one fleet worker against a `trigen coordinate` socket
///   devices    list the Table-I/II device models
///
/// Run `trigen <subcommand> --help` for flags.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trigen/baseline/mpi3snp.hpp"
#include "trigen/common/args.hpp"
#include "trigen/common/table.hpp"
#include "trigen/core/detector.hpp"
#include "trigen/core/scan_csv.hpp"
#include "trigen/dataset/io.hpp"
#include "trigen/dataset/synthetic.hpp"
#include "trigen/fleet/coordinator.hpp"
#include "trigen/fleet/worker.hpp"
#include "trigen/gpusim/device_spec.hpp"
#include "trigen/serve/endpoint.hpp"
#include "trigen/serve/protocol.hpp"
#include "trigen/serve/server.hpp"
#include "trigen/shard/merge.hpp"
#include "trigen/shard/plan.hpp"
#include "trigen/shard/runner.hpp"
#include "trigen/stats/permutation.hpp"
#include "trigen/stats/report.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

using namespace trigen;

/// Flags that never take a value (see Args::parse) — shared across all
/// subcommands so e.g. `trigen scan --progress data.tg` keeps its
/// positional.  `no-tune` is retired but stays a switch, so
/// `trigen scan --no-tune data.tg` reaches the removal notice in main()
/// instead of swallowing the dataset path.
const std::set<std::string>& cli_switches() {
  static const std::set<std::string> s = {"help", "partial", "progress",
                                          "no-tune"};
  return s;
}

/// Exit code of a cleanly interrupted (checkpointed, resumable) shard scan.
constexpr int kExitInterrupted = 3;

/// Flipped by the SIGINT/SIGTERM handler.  The orchestrated scan path and
/// the resident server poll it so a real Ctrl-C takes the same "drain to
/// the next checkpoint boundary, exit 3, resumable" path as --stop-after.
std::atomic<bool> g_interrupted{false};

void on_interrupt(int) {
  // Second signal: the user is past waiting for a graceful drain.
  if (g_interrupted.exchange(true)) std::_Exit(130);
}

void install_interrupt_handler() {
#ifndef _WIN32
  struct sigaction sa {};
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: blocked reads/polls must return EINTR so their loops
  // see the flag promptly.
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, on_interrupt);
#endif
}

/// --KEY with strict non-negative parsing; a negative or garbage value is
/// a usage error (exit 2), not a silent two's-complement wrap into ~2^64.
std::uint64_t get_uint_or_die(const Args& a, const std::string& key,
                              std::uint64_t fallback) {
  try {
    return a.get_uint(key, fallback);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

dataset::GenotypeMatrix load(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".tgb") {
    return dataset::read_binary_file(path);
  }
  return dataset::read_text_file(path);
}

void save(const std::string& path, const dataset::GenotypeMatrix& d) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".tgb") {
    dataset::write_binary_file(path, d);
  } else {
    dataset::write_text_file(path, d);
  }
}

/// Percent progress meter on stderr for the scan drivers' callbacks.
core::ProgressFn make_progress_printer(std::string label) {
  return [label = std::move(label), last_pct = -1](std::uint64_t done,
                                                   std::uint64_t total) mutable {
    const int pct = total == 0
                        ? 100
                        : static_cast<int>(100.0 * static_cast<double>(done) /
                                           static_cast<double>(total));
    if (pct == last_pct) return;
    last_pct = pct;
    std::fprintf(stderr, "\r%s: %3d%%", label.c_str(), pct);
    if (pct >= 100) std::fputc('\n', stderr);
  };
}

core::Objective parse_objective(const std::string& s) {
  if (const auto o = core::objective_from_name(s)) return *o;
  std::fprintf(stderr, "unknown objective '%s' (k2|mi|chi2)\n", s.c_str());
  std::exit(2);
}

/// Parse-time --version validation: rejects anything outside 1..5 with a
/// message naming the ladder rungs and the vector ISAs this binary carries
/// (and whether this host can run them), instead of failing deep inside
/// the detector.
core::CpuVersion parse_version(const Args& a) {
  if (!a.has("version")) return core::ScanOptionsBase{}.version;
  const long v = a.get_int("version", 0);
  if (const auto version =
          core::cpu_version_from_number(static_cast<std::uint64_t>(v))) {
    return *version;
  }
  std::string isas;
  for (const core::KernelIsa isa : core::all_kernel_isas()) {
    if (!isas.empty()) isas += ", ";
    isas += core::kernel_isa_name(isa);
    if (!core::kernel_available(isa)) isas += " (not on this host)";
  }
  std::fprintf(stderr,
               "--version expects 1..5: 1 naive planes, 2 split planes, "
               "3 + L1 blocking, 4 + vector kernels, 5 + pair-plane cache "
               "(got %ld)\nvector ISAs in this binary: %s\n",
               v, isas.c_str());
  std::exit(2);
}

/// Parse-time --isa / $TRIGEN_ISA validation, mirroring parse_version:
/// rejects unknown names with the list of ISAs this binary carries (and
/// whether this host can run them) instead of failing inside the detector.
/// Returns nullopt for the default ("auto" or unset): keep auto-dispatch.
std::optional<core::KernelIsa> parse_isa_flag(const Args& a) {
  std::string name = a.get("isa", "");
  if (name.empty()) {
    if (const char* env = std::getenv("TRIGEN_ISA"); env != nullptr && *env) {
      name = env;
    }
  }
  if (name.empty() || name == "auto") return std::nullopt;
  const auto isa = core::parse_kernel_isa(name);
  std::string isas;
  for (const core::KernelIsa i : core::all_kernel_isas()) {
    if (!isas.empty()) isas += ", ";
    isas += core::kernel_isa_name(i);
    if (!core::kernel_available(i)) isas += " (not on this host)";
  }
  if (!isa) {
    std::fprintf(stderr,
                 "--isa/TRIGEN_ISA expects a vector ISA name or 'auto' "
                 "(got '%s')\nvector ISAs in this binary: %s\n",
                 name.c_str(), isas.c_str());
    std::exit(2);
  }
  if (!core::kernel_available(*isa)) {
    std::fprintf(stderr,
                 "--isa %s: compiled in but this host cannot execute it\n"
                 "vector ISAs in this binary: %s\n",
                 name.c_str(), isas.c_str());
    std::exit(2);
  }
  return isa;
}

int cmd_generate(const Args& a) {
  if (a.positional.empty() || a.has("help")) {
    std::puts("usage: trigen generate OUT.tg[b] --snps M --samples N [--seed S]\n"
              "  [--maf-min 0.05] [--maf-max 0.5] [--prevalence 0.5]\n"
              "  [--plant x,y,z --model threshold|xor3|mult --baseline 0.05 --effect 0.8]");
    return a.has("help") ? 0 : 2;
  }
  dataset::SyntheticSpec spec;
  spec.num_snps = static_cast<std::size_t>(get_uint_or_die(a, "snps", 100));
  spec.num_samples =
      static_cast<std::size_t>(get_uint_or_die(a, "samples", 1000));
  spec.seed = get_uint_or_die(a, "seed", 42);
  spec.maf_min = a.get_double("maf-min", 0.05);
  spec.maf_max = a.get_double("maf-max", 0.5);
  spec.prevalence = a.get_double("prevalence", 0.5);
  if (a.has("plant")) {
    dataset::PlantedInteraction planted;
    unsigned x = 0, y = 0, z = 0;
    if (std::sscanf(a.get("plant", "").c_str(), "%u,%u,%u", &x, &y, &z) != 3) {
      std::fprintf(stderr, "--plant expects x,y,z\n");
      return 2;
    }
    planted.snps = {x, y, z};
    const std::string model = a.get("model", "threshold");
    const auto kind = model == "xor3" ? dataset::InteractionModel::kXor3
                      : model == "mult"
                          ? dataset::InteractionModel::kMultiplicative
                          : dataset::InteractionModel::kThreshold;
    planted.penetrance = dataset::make_penetrance(
        kind, a.get_double("baseline", 0.05), a.get_double("effect", 0.8));
    spec.interaction = planted;
  }
  const auto d = dataset::generate(spec);
  save(a.positional[0], d);
  std::printf("wrote %s: %zu SNPs x %zu samples (%zu controls, %zu cases)\n",
              a.positional[0].c_str(), d.num_snps(), d.num_samples(),
              d.class_count(0), d.class_count(1));
  return 0;
}

int cmd_info(const Args& a) {
  if (a.positional.empty()) {
    std::puts("usage: trigen info DATASET.tg[b]");
    return 2;
  }
  const auto d = load(a.positional[0]);
  std::printf("snps: %zu\nsamples: %zu\ncontrols: %zu\ncases: %zu\n",
              d.num_snps(), d.num_samples(), d.class_count(0),
              d.class_count(1));
  std::printf("3-way combinations: %llu\n2-way combinations: %llu\n",
              static_cast<unsigned long long>(
                  combinatorics::n_choose_k(d.num_snps(), 3)),
              static_cast<unsigned long long>(
                  combinatorics::n_choose_k(d.num_snps(), 2)));
  // Genotype distribution.
  std::size_t counts[3] = {};
  for (std::size_t m = 0; m < d.num_snps(); ++m) {
    for (const auto g : d.snp_row(m)) ++counts[g];
  }
  const double total = static_cast<double>(d.num_snps() * d.num_samples());
  std::printf("genotype distribution: 0: %.1f%%, 1: %.1f%%, 2: %.1f%%\n",
              100.0 * counts[0] / total, 100.0 * counts[1] / total,
              100.0 * counts[2] / total);
  return 0;
}

int cmd_convert(const Args& a) {
  if (a.positional.size() != 2) {
    std::puts("usage: trigen convert IN.tg[b] OUT.tg[b]");
    return 2;
  }
  save(a.positional[1], load(a.positional[0]));
  std::printf("converted %s -> %s\n", a.positional[0].c_str(),
              a.positional[1].c_str());
  return 0;
}

/// Everything order-specific the scan/merge/significance subcommands
/// touch, stamped out once per interaction order K: `scan` (order 3, or
/// any order via --order), `scan2` (order 2) and `merge` run the same
/// flag set through the same drivers below.
template <unsigned K>
struct OrderCli {
  static constexpr unsigned kOrder = K;
  using Scored = core::ScoredOf<K>;
  using Detector = core::BasicDetector<K>;
  using DetectorOptions = core::BasicDetectorOptions<K>;

  /// The command spelling that reproduces this order (usage + progress).
  static std::string label() {
    if constexpr (K == 2) {
      return "scan2";
    } else if constexpr (K == 3) {
      return "scan";
    } else {
      return "scan --order " + std::to_string(K);
    }
  }
  static std::string noun() {
    if constexpr (K == 2) {
      return "pairs";
    } else if constexpr (K == 3) {
      return "triplets";
    } else {
      return std::to_string(K) + "-tuples";
    }
  }
  /// The CSV section shared by `scan` (full or shard), `merge` and the
  /// resident server's scan-job payload, so shell pipelines can diff any
  /// two of them byte-for-byte (the rendering lives in core/scan_csv.hpp).
  static void print_csv(const std::vector<Scored>& best) {
    for (const std::string& line : core::scan_csv_lines<K>(best)) {
      std::printf("%s\n", line.c_str());
    }
  }
};

template <typename Cli>
void print_scan_usage() {
  std::printf(
      "usage: trigen %s DATASET.tg[b] [--objective k2|mi|chi2]\n"
      "  [--top K] [--threads T] [--version 1|2|3|4|5]\n"
      "  [--isa NAME|auto]\n"
      "  [--range FIRST:LAST] [--progress]\n"
      "  [--shards W --shard I [--split even|block]]\n"
      "  [--out FILE.shard] [--checkpoint FILE.ckpt]\n"
      "  [--checkpoint-every RANKS] [--stop-after RANKS]\n"
      "`trigen scan --order k` scans at any interaction order k in\n"
      "[2, %u] (--order 3 is the default `scan`; `scan2` = --order 2);\n"
      "--version picks the optimization-ladder rung (1 naive planes,\n"
      "2 split planes, 3 + L1 blocking, 4 + vector kernels, 5 + prefix-\n"
      "plane cache; default %u);\n"
      "--range scans only %s ranks [FIRST, LAST) — any version,\n"
      "including the blocked V3/V4/V5 (shard results merge exactly);\n"
      "--progress reports percent scanned on stderr.\n"
      "--shards/--shard scans shard I (0-based) of a W-way plan;\n"
      "--out writes a portable shard result file for `trigen merge`;\n"
      "--checkpoint persists progress after every chunk and resumes\n"
      "from it when the file already exists; --stop-after stops\n"
      "cleanly once RANKS ranks are done (exit code 3, resumable).\n",
      Cli::label().c_str(), combinatorics::kMaxOrder,
      core::cpu_version_number(core::ScanOptionsBase{}.version),
      Cli::noun().c_str());
}

/// Order-generic scan subcommand: full space, rank range, or one shard of
/// a W-way plan, optionally orchestrated (checkpoint/resume, portable
/// result files) through the shard runner.
template <typename Cli>
int cmd_scan_generic(const Args& a) {
  if (a.positional.empty() || a.has("help")) {
    print_scan_usage<Cli>();
    return a.has("help") ? 0 : 2;
  }
  // Validate cheap flags before touching the dataset, so a typo'd
  // `--version` fails instantly even on a multi-gigabyte input.
  typename Cli::DetectorOptions opt;
  opt.objective = parse_objective(a.get("objective", "k2"));
  opt.top_k = static_cast<std::size_t>(get_uint_or_die(a, "top", 10));
  opt.threads = static_cast<unsigned>(get_uint_or_die(a, "threads", 0));
  opt.version = parse_version(a);
  if (const auto isa = parse_isa_flag(a)) {
    opt.isa = *isa;
    opt.isa_auto = false;
  }
  const auto d = load(a.positional[0]);
  typename Cli::Detector det(d);
  const std::uint64_t total =
      combinatorics::n_choose_k(d.num_snps(), Cli::kOrder);

  if (a.has("shards") || a.has("shard")) {
    if (a.has("range")) {
      std::fprintf(stderr, "--range and --shards are mutually exclusive\n");
      return 2;
    }
    const std::uint64_t w = get_uint_or_die(a, "shards", 0);
    const std::uint64_t i =
        a.has("shard") ? get_uint_or_die(a, "shard", 0)
                       : std::numeric_limits<std::uint64_t>::max();
    if (w < 1 || i >= w) {
      std::fprintf(stderr,
                   "--shards W --shard I needs W >= 1 and 0 <= I < W\n");
      return 2;
    }
    const std::string split = a.get("split", "even");
    shard::SplitStrategy strategy = shard::SplitStrategy::kEvenRanks;
    std::uint64_t bs = 0;
    if (split == "block") {
      strategy = shard::SplitStrategy::kBlockAligned;
      bs = core::autotune_tiling(core::detect_l1_config(),
                                 core::kernel_vector_words(
                                     core::best_kernel_isa()),
                                 3, false)
               .bs;
    } else if (split != "even") {
      std::fprintf(stderr, "--split expects even|block\n");
      return 2;
    }
    const auto plan = shard::plan_shards(d.num_snps(),
                                         static_cast<unsigned>(w), strategy,
                                         bs, Cli::kOrder);
    opt.range = plan[static_cast<std::size_t>(i)];
  } else if (a.has("range")) {
    const auto range = serve::parse_rank_range(a.get("range", ""));
    if (!range || range->last > total) {
      std::fprintf(stderr,
                   "--range expects FIRST:LAST with FIRST < LAST <= %llu\n",
                   static_cast<unsigned long long>(total));
      return 2;
    }
    opt.range = *range;
  }
  const combinatorics::RankRange eff =
      opt.range.empty() ? combinatorics::RankRange{0, total} : opt.range;

  // Orchestrated path: any of --out / --checkpoint / --stop-after routes
  // through the checkpointing shard runner instead of a bare run().
  if (a.has("out") || a.has("checkpoint") || a.has("stop-after")) {
    shard::BasicShardRunOptions<typename Cli::DetectorOptions> ropt;
    ropt.detector = opt;
    ropt.range = eff;
    ropt.checkpoint_path = a.get("checkpoint", "");
    ropt.checkpoint_every = get_uint_or_die(a, "checkpoint-every", 0);
    // keep_going is polled after every checkpoint write, so both a
    // --stop-after budget and a real SIGINT/SIGTERM drain to the next
    // checkpoint boundary and take the exit-3 resumable path below.
    const std::uint64_t stop_after =
        a.has("stop-after")
            ? get_uint_or_die(a, "stop-after", 0)
            : std::numeric_limits<std::uint64_t>::max();
    install_interrupt_handler();
    ropt.keep_going = [stop_after](std::uint64_t done, std::uint64_t) {
      return !g_interrupted.load() && done < stop_after;
    };
    if (a.has("progress")) ropt.progress = make_progress_printer(Cli::label());
    const std::uint64_t fp = shard::dataset_fingerprint(d);
    const auto report = shard::run_shard_of<Cli::kOrder>(
        det, fp, ropt, [](const std::string& reason) {
          std::fprintf(stderr,
                       "warning: discarding unusable checkpoint (%s); "
                       "rescanning the shard from its start\n",
                       reason.c_str());
        });
    if (report.resumed) {
      std::printf("# resumed from checkpoint at rank %llu\n",
                  static_cast<unsigned long long>(report.resumed_from));
    }
    if (!report.completed) {
      std::printf("# interrupted: shard [%llu, %llu) is checkpointed in "
                  "'%s'; rerun the same command to resume\n",
                  static_cast<unsigned long long>(eff.first),
                  static_cast<unsigned long long>(eff.last),
                  ropt.checkpoint_path.empty() ? "(no checkpoint!)"
                                               : ropt.checkpoint_path.c_str());
      return kExitInterrupted;
    }
    if (a.has("out")) {
      shard::write_shard_result_file(a.get("out", ""), report.result);
      std::printf("# wrote shard result %s\n", a.get("out", "").c_str());
    }
    const double eps =
        report.result.seconds > 0.0
            ? static_cast<double>(report.result.range.size() *
                                  d.num_samples()) /
                  report.result.seconds
            : 0.0;
    std::printf(
        "# %llu %s, %.3f s, %.2f Gel/s, shard ranks [%llu, %llu) of "
        "%llu, fingerprint %016llx\n",
        static_cast<unsigned long long>(report.result.range.size()),
        Cli::noun().c_str(), report.result.seconds, eps / 1e9,
        static_cast<unsigned long long>(eff.first),
        static_cast<unsigned long long>(eff.last),
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(fp));
    Cli::print_csv(report.result.entries);
    return 0;
  }

  if (a.has("progress")) opt.progress = make_progress_printer(Cli::label());
  const auto r = det.run(opt);
  std::printf("# %llu %s, %.3f s, %.2f Gel/s, %s, kernel %s, %u thread(s)\n",
              static_cast<unsigned long long>(r.combinations_evaluated),
              Cli::noun().c_str(),
              r.seconds, r.elements_per_second() / 1e9,
              core::cpu_version_name(opt.version).c_str(),
              core::kernel_isa_name(r.isa_used).c_str(), r.threads_used);
  std::printf("# partition: ranks [%llu, %llu) of %llu (%.1f%% of the space)\n",
              static_cast<unsigned long long>(eff.first),
              static_cast<unsigned long long>(eff.last),
              static_cast<unsigned long long>(total),
              total == 0 ? 100.0
                         : 100.0 * static_cast<double>(eff.size()) /
                               static_cast<double>(total));
  Cli::print_csv(r.best);
  return 0;
}

/// `scan` dispatches on --order (default 3: the classic triplet scan);
/// `scan2` is the historical spelling of --order 2.  The runtime order
/// picks the compile-time instantiation of the one generic engine.
int cmd_scan(const Args& a) {
  int rc = 0;
  if (combinatorics::with_order(
          static_cast<std::uint64_t>(a.get_int("order", 3)), [&](auto kc) {
            rc = cmd_scan_generic<OrderCli<decltype(kc)::value>>(a);
          })) {
    return rc;
  }
  std::fprintf(stderr, "--order expects an interaction order in [2, %u]\n",
               combinatorics::kMaxOrder);
  return 2;
}

int cmd_scan2(const Args& a) { return cmd_scan_generic<OrderCli<2>>(a); }

template <typename Cli>
int cmd_merge_generic(const Args& a) {
  std::vector<shard::BasicShardResult<typename Cli::Scored>> shards;
  shards.reserve(a.positional.size());
  for (const auto& path : a.positional) {
    shards.push_back(
        shard::read_shard_result_file_as<typename Cli::Scored>(path));
  }
  const auto m = shard::merge_shards_of<Cli::kOrder>(
      shards, a.has("partial") ? shard::MergeCoverage::kContiguous
                               : shard::MergeCoverage::kFullScan);
  if (a.has("out")) {
    shard::write_shard_result_file(a.get("out", ""), shard::to_shard_result(m));
    std::printf("# wrote merged result %s\n", a.get("out", "").c_str());
  }
  const double aggregate_eps =
      m.max_shard_seconds > 0.0
          ? static_cast<double>(m.result.elements) / m.max_shard_seconds
          : 0.0;
  std::printf(
      "# merged %llu shards: %llu %s, %.3f s compute (slowest shard "
      "%.3f s), %.2f Gel/s aggregate, objective %s, fingerprint %016llx\n",
      static_cast<unsigned long long>(m.num_shards),
      static_cast<unsigned long long>(m.result.combinations_evaluated),
      Cli::noun().c_str(),
      m.result.seconds, m.max_shard_seconds, aggregate_eps / 1e9,
      m.objective.c_str(), static_cast<unsigned long long>(m.fingerprint));
  Cli::print_csv(m.result.best);
  return 0;
}

int cmd_merge(const Args& a) {
  if (a.positional.empty() || a.has("help")) {
    std::puts("usage: trigen merge SHARD_FILE... [--partial] [--out FILE.shard]\n"
              "Folds shard result files written by `trigen scan --out` or\n"
              "`trigen scan2 --out` into the exact full-scan answer.  The\n"
              "interaction order is read from the first file; every shard\n"
              "must share it (and one dataset fingerprint, objective and\n"
              "top_k), and together they must cover the combination rank\n"
              "space exactly once (any order).  --partial relaxes that to\n"
              "any contiguous sub-range — an intermediate merge (e.g. one\n"
              "per rack) whose --out file feeds the next merge level.\n"
              "--out writes the merged result as a shard file over the\n"
              "covered range.");
    return a.has("help") ? 0 : 2;
  }
  // The first file picks the order; a mixed set fails inside the readers
  // with a precise order-mismatch error.
  int rc = 0;
  if (combinatorics::with_order(
          shard::probe_shard_order(a.positional[0]), [&](auto kc) {
            rc = cmd_merge_generic<OrderCli<decltype(kc)::value>>(a);
          })) {
    return rc;
  }
  // Out-of-range orders fall through to the reader for its precise
  // "unsupported order" message.
  return cmd_merge_generic<OrderCli<3>>(a);
}

int cmd_baseline(const Args& a) {
  if (a.positional.empty()) {
    std::puts("usage: trigen baseline DATASET.tg[b] [--top K] [--threads T]");
    return 2;
  }
  const auto threads = static_cast<unsigned>(get_uint_or_die(a, "threads", 1));
  const auto top = static_cast<std::size_t>(get_uint_or_die(a, "top", 10));
  const auto d = load(a.positional[0]);
  baseline::Mpi3SnpEngine engine(d);
  const auto r = engine.run(threads, top);
  std::printf("# %llu triplets, %.3f s, %.2f Gel/s (MPI3SNP-style, MI)\n",
              static_cast<unsigned long long>(r.triplets_evaluated), r.seconds,
              r.elements_per_second() / 1e9);
  std::printf("rank,snp_x,snp_y,snp_z,score\n");
  for (std::size_t i = 0; i < r.best.size(); ++i) {
    std::printf("%zu,%u,%u,%u,%.6f\n", i + 1, r.best[i].snps[0],
                r.best[i].snps[1], r.best[i].snps[2], r.best[i].score);
  }
  return 0;
}

/// The order-K permutation test body behind `significance --order K`.
/// The report rendering is shared with the resident server's
/// significance-job payload (stats/report.hpp), so the two are diffable.
template <unsigned K>
int cmd_significance_of(const dataset::GenotypeMatrix& d,
                        unsigned permutations, std::uint64_t seed,
                        core::Objective objective, unsigned threads,
                        unsigned batch, bool progress,
                        std::optional<core::KernelIsa> isa) {
  stats::BasicPermutationTestOptions<K> opt;
  opt.permutations = permutations;
  opt.seed = seed;
  opt.batch = batch;
  opt.detector.objective = objective;
  opt.detector.threads = threads;
  if (isa) {
    opt.detector.isa = *isa;
    opt.detector.isa_auto = false;
  }
  if (progress) opt.detector.progress = make_progress_printer("significance");
  const auto r = stats::permutation_test_of<K>(d, opt);
  for (const std::string& line :
       stats::significance_report<K>(r, opt.permutations)) {
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int cmd_significance(const Args& a) {
  if (a.positional.empty() || a.has("help")) {
    std::printf("usage: trigen significance DATASET.tg[b] [--permutations N]\n"
                "  [--seed S] [--objective k2|mi|chi2] [--threads T]\n"
                "  [--order k] [--batch P] [--progress]\n"
                "--order k (default 3) tests the best order-k combination —\n"
                "any interaction order in [2, %u]; every null scan reuses\n"
                "the pinned ISA, tiling and scorer of the observed scan.\n"
                "--batch P controls the batched multi-phenotype engine: 0\n"
                "(default) scores observed + all nulls in one pass, 1 runs\n"
                "the legacy one-scan-per-permutation path, P >= 2 chunks the\n"
                "batch.  Every setting reports bit-identical results.\n",
                combinatorics::kMaxOrder);
    return a.has("help") ? 0 : 2;
  }
  // Every flag, --order included, is checked before the dataset is read.
  const auto permutations =
      static_cast<unsigned>(get_uint_or_die(a, "permutations", 19));
  const auto seed = get_uint_or_die(a, "seed", 7);
  const auto objective = parse_objective(a.get("objective", "k2"));
  const auto threads = static_cast<unsigned>(get_uint_or_die(a, "threads", 0));
  const auto batch = static_cast<unsigned>(get_uint_or_die(a, "batch", 0));
  const bool progress = a.has("progress");
  const auto isa = parse_isa_flag(a);
  int rc = 0;
  if (combinatorics::with_order(
          static_cast<std::uint64_t>(a.get_int("order", 3)), [&](auto kc) {
            rc = cmd_significance_of<decltype(kc)::value>(
                load(a.positional[0]), permutations, seed, objective, threads,
                batch, progress, isa);
          })) {
    return rc;
  }
  std::fprintf(stderr, "--order expects an interaction order in [2, %u]\n",
               combinatorics::kMaxOrder);
  return 2;
}

/// `trigen serve`: load the dataset once, service an async job queue.
int cmd_serve(const Args& a) {
  if (a.positional.empty() || a.has("help")) {
    std::puts(
        "usage: trigen serve DATASET.tg[b] [--threads T] [--chunk RANKS]\n"
        "  [--socket PATH] [--checkpoint-dir DIR]\n"
        "Loads the dataset (and per-order bitplanes) once and services a\n"
        "line-delimited job queue — scan/top-k at any order in [2, 6] and\n"
        "batched multi-phenotype significance tests — concurrently on one\n"
        "shared worker pool.  Results are bit-identical to the standalone\n"
        "scan/significance subcommands.  Default transport is\n"
        "stdin/stdout; --socket serves a Unix-domain socket instead.\n"
        "Requests (one per line):\n"
        "  scan <id> [order=K] [objective=k2|mi|chi2] [top=N]\n"
        "            [version=1..5] [range=FIRST:LAST]\n"
        "  significance <id> [order=K] [objective=k2|mi|chi2]\n"
        "            [permutations=N] [seed=S]\n"
        "  cancel <id> | status | ping | shutdown\n"
        "`shutdown` (and SIGINT/SIGTERM) drains in-flight work and writes\n"
        "one resumable checkpoint per incomplete scan job into\n"
        "--checkpoint-dir (serve-<id>.ckpt; resume with `trigen scan\n"
        "--checkpoint`), then exits 3; a session whose jobs all completed\n"
        "exits 0.");
    return a.has("help") ? 0 : 2;
  }
  serve::ServeOptions so;
  so.threads = static_cast<unsigned>(get_uint_or_die(a, "threads", 0));
  so.chunk = get_uint_or_die(a, "chunk", 0);
  so.checkpoint_dir = a.get("checkpoint-dir", ".");
  serve::ScanServer server(load(a.positional[0]), so);
  install_interrupt_handler();
#ifndef _WIN32
  // A client that disconnects mid-stream must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  if (a.has("socket")) {
    return serve::run_socket_endpoint(server, a.get("socket", ""),
                                      g_interrupted);
  }
  return serve::run_pipe_endpoint(server, 0, 1, g_interrupted);
}

/// `trigen coordinate`: the fleet control plane — plan shards, lease them
/// to `trigen work` processes, survive their deaths, merge their results.
int cmd_coordinate(const Args& a) {
  if (a.positional.empty() || a.has("help")) {
    std::puts(
        "usage: trigen coordinate DATASET.tg[b] --out FILE.csv\n"
        "  [--socket PATH] [--spool DIR] [--order K] [--objective\n"
        "  k2|mi|chi2] [--top N] [--shards W] [--split even|block]\n"
        "  [--block-size B] [--lease-ms MS] [--checkpoint-every RANKS]\n"
        "  [--max-failures N] [--backoff-ms MS] [--backoff-cap-ms MS]\n"
        "Plans the order-K rank space into shards and leases them to\n"
        "`trigen work` processes (over --socket, or stdin/stdout for a\n"
        "single piped worker).  Workers heartbeat by renewing their lease\n"
        "after every durable checkpoint; a crashed or hung worker's lease\n"
        "expires, its checkpointed prefix is harvested, and only the\n"
        "remainder is re-leased (with capped exponential backoff; after\n"
        "--max-failures the range is quarantined as poison and the\n"
        "coordinator exits 3 instead of spinning).  Completed shards fold\n"
        "into a rolling merge tree in --spool; the final CSV is\n"
        "bit-identical to a single-process `trigen scan`.  The lease table\n"
        "persists atomically in --spool/fleet.state: rerunning the same\n"
        "command over the same spool resumes without double-counting.\n"
        "Exits 0 complete, 3 interrupted/stalled (resumable).");
    return a.has("help") ? 0 : 2;
  }
  fleet::CoordinatorOptions co;
  co.order = static_cast<unsigned>(get_uint_or_die(a, "order", 3));
  co.objective = parse_objective(a.get("objective", "k2"));
  co.top_k = get_uint_or_die(a, "top", 10);
  co.shards = static_cast<unsigned>(get_uint_or_die(a, "shards", 16));
  if (a.get("split", "even") == "block") {
    co.split = shard::SplitStrategy::kBlockAligned;
    co.block_size = get_uint_or_die(
        a, "block-size",
        core::autotune_tiling(core::detect_l1_config(),
                              core::kernel_vector_words(
                                  core::best_kernel_isa()),
                              3, false)
            .bs);
  }
  co.spool = a.get("spool", ".");
  co.out = a.get("out", "");
  if (co.out.empty()) {
    std::fprintf(stderr, "coordinate: --out FILE.csv is required\n");
    return 2;
  }
  co.lease_ms = get_uint_or_die(a, "lease-ms", 10000);
  co.checkpoint_every = get_uint_or_die(a, "checkpoint-every", 0);
  co.max_failures =
      static_cast<std::uint32_t>(get_uint_or_die(a, "max-failures", 5));
  co.backoff_base_ms = get_uint_or_die(a, "backoff-ms", 250);
  co.backoff_cap_ms = get_uint_or_die(a, "backoff-cap-ms", 8000);
  co.log = [](const std::string& line) {
    std::fprintf(stderr, "coordinate: %s\n", line.c_str());
  };
  fleet::FleetCoordinator coordinator(load(a.positional[0]), co);
  install_interrupt_handler();
  if (a.has("socket")) {
    return serve::run_socket_endpoint(coordinator, a.get("socket", ""),
                                      g_interrupted);
  }
  return serve::run_pipe_endpoint(coordinator, 0, 1, g_interrupted);
}

/// `trigen work`: one fleet worker — lease, scan, renew, complete, repeat.
int cmd_work(const Args& a) {
  if (a.positional.empty() || a.has("help") || !a.has("socket")) {
    std::puts(
        "usage: trigen work DATASET.tg[b] --socket PATH [--id NAME]\n"
        "  [--threads T] [--version 1|2|3|4|5] [--isa NAME|auto]\n"
        "  [--poll-ms MS] [--reconnect-ms MS]\n"
        "Joins the fleet at the `trigen coordinate` socket and scans\n"
        "leased shards until the fleet is drained (exit 0).  The dataset\n"
        "must be the one the coordinator planned (fingerprint-checked).\n"
        "Checkpoints after every chunk the coordinator sized, renewing the\n"
        "lease as a heartbeat; SIGINT/SIGTERM stops at the next checkpoint\n"
        "and hands the shard back (exit 3).  Exits 0 when the coordinator\n"
        "stays unreachable past --reconnect-ms (durable state carries on\n"
        "without this worker), 4 when only poison shards remain.");
    return a.has("help") ? 0 : 2;
  }
  fleet::WorkerOptions wo;
#ifndef _WIN32
  wo.id = a.get("id", "w" + std::to_string(static_cast<long>(::getpid())));
#else
  wo.id = a.get("id", "worker");
#endif
  wo.threads = static_cast<unsigned>(get_uint_or_die(a, "threads", 0));
  wo.version = parse_version(a);
  if (const auto isa = parse_isa_flag(a)) wo.isa = *isa;
  wo.poll_ms = get_uint_or_die(a, "poll-ms", 200);
  wo.reconnect_ms = get_uint_or_die(a, "reconnect-ms", 15000);
  wo.log = [&wo](const std::string& line) {
    std::fprintf(stderr, "work[%s]: %s\n", wo.id.c_str(), line.c_str());
  };
  wo.interrupted = &g_interrupted;
  install_interrupt_handler();
  const auto d = load(a.positional[0]);
  return fleet::run_worker(d, a.get("socket", ""), wo);
}

int cmd_devices(const Args&) {
  TextTable cpu({"id", "device", "arch", "GHz", "cores", "vector", "vpopcnt"});
  for (const auto& d : gpusim::cpu_device_db()) {
    cpu.add_row({d.id, d.name, d.arch, TextTable::fmt(d.base_ghz, 1),
                 std::to_string(d.cores), std::to_string(d.vector_bits),
                 d.vector_popcnt ? "yes" : "no"});
  }
  std::printf("%s", cpu.to_ascii().c_str());
  TextTable gpu({"id", "device", "arch", "GHz", "CUs", "cores", "popcnt/CU"});
  for (const auto& d : gpusim::gpu_device_db()) {
    gpu.add_row({d.id, d.name, d.arch, TextTable::fmt(d.boost_ghz, 3),
                 std::to_string(d.compute_units),
                 std::to_string(d.stream_cores),
                 TextTable::fmt(d.popcnt_per_cu_cycle, 0)});
  }
  std::printf("%s", gpu.to_ascii().c_str());
  return 0;
}

int usage() {
  std::puts(
      "trigen — exhaustive gene interaction detection (IPDPS'22 reproduction)\n"
      "usage: trigen <generate|info|convert|scan|scan2|merge|baseline|significance|serve|coordinate|work|devices> ...\n"
      "  generate OUT.tg[b] --snps M --samples N [--seed S] [--maf-min F]\n"
      "    [--maf-max F] [--prevalence F] [--plant x,y,z --model M\n"
      "    --baseline F --effect F]\n"
      "  info DATASET.tg[b]\n"
      "  convert IN.tg[b] OUT.tg[b]\n"
      "  scan|scan2 DATASET.tg[b] [--order k] [--objective k2|mi|chi2]\n"
      "    [--top K] [--threads T] [--version 1|2|3|4|5]\n"
      "    [--range FIRST:LAST] [--progress]\n"
      "    [--shards W --shard I [--split even|block]]\n"
      "    [--out FILE.shard] [--checkpoint FILE.ckpt]\n"
      "    [--checkpoint-every RANKS] [--stop-after RANKS]\n"
      "  merge SHARD_FILE... [--partial] [--out FILE.shard]\n"
      "  baseline DATASET.tg[b] [--top K] [--threads T]\n"
      "  significance DATASET.tg[b] [--permutations N] [--seed S]\n"
      "    [--objective k2|mi|chi2] [--threads T] [--order k]\n"
      "    [--batch P] [--progress]\n"
      "  serve DATASET.tg[b] [--threads T] [--chunk RANKS] [--socket PATH]\n"
      "    [--checkpoint-dir DIR]\n"
      "  coordinate DATASET.tg[b] --out FILE.csv [--socket PATH]\n"
      "    [--spool DIR] [--order k] [--shards W] [--lease-ms MS] ...\n"
      "  work DATASET.tg[b] --socket PATH [--id NAME] [--threads T] ...\n"
      "  devices\n"
      "scan/scan2/significance/work also take --isa NAME|auto (or\n"
      "$TRIGEN_ISA); tiles come from the host's L1 geometry.\n"
      "Run `trigen <subcommand> --help` for details.");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = Args::parse(argc, argv, 2, cli_switches());
  // The empirical autotuner is gone: say so before any dataset is read.
  if (cmd == "tune" || args.has("profile") || args.has("no-tune")) {
    std::fprintf(stderr,
                 "trigen: `tune`, --profile and --no-tune were removed; tiles "
                 "now come from the analytic L1 model alone\n");
    return 2;
  }
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "scan") return cmd_scan(args);
    if (cmd == "scan2") return cmd_scan2(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "baseline") return cmd_baseline(args);
    if (cmd == "significance") return cmd_significance(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "coordinate") return cmd_coordinate(args);
    if (cmd == "work") return cmd_work(args);
    if (cmd == "devices") return cmd_devices(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trigen %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
