#pragma once
/// \file numa.hpp
/// \brief NUMA node topology from sysfs, and worker-thread node spreading.
///
/// Biobank-scale bitplanes span multiple NUMA nodes; a scan thread running
/// on node 1 against scratch pages first-touched on node 0 pays remote
/// latency on every table update.  Two pieces avoid that:
///
///   * the detectors construct per-thread scratch *inside* the worker
///     thread, so the zero-fill (the first touch) places the pages on the
///     worker's node (detector.cpp);
///   * `bind_thread_round_robin` spreads workers across nodes so the
///     first-touch placement is actually diverse — a no-op on the
///     single-node hosts that dominate CI.
///
/// The sysfs root is injectable so the parser is unit-testable against a
/// fake `sys/devices/system/node` tree; the node count also feeds the
/// host fingerprint the benchmark stamps into its reports (a measurement
/// on a 1-node VM must not be compared with the 2-socket production box).

#include <string>
#include <vector>

namespace trigen {

/// Online NUMA node topology: one CPU list per node.
struct NumaTopology {
  /// `node_cpus[i]` holds the CPU ids of the i-th online node, in the
  /// order sysfs lists them.  Always at least one node: hosts without
  /// NUMA sysfs entries report a single node with an empty CPU list.
  std::vector<std::vector<int>> node_cpus;

  unsigned nodes() const {
    return static_cast<unsigned>(node_cpus.empty() ? 1 : node_cpus.size());
  }
};

/// Reads the host topology from /sys/devices/system/node (cached after the
/// first call; topology does not change at runtime).
const NumaTopology& numa_topology();

/// Injectable form for unit tests: `sysfs_node_root` replaces
/// "/sys/devices/system/node" (the directory holding node<N>/cpulist).
/// Not cached.
NumaTopology read_numa_topology(const std::string& sysfs_node_root);

/// Parses a sysfs CPU list ("0-3,8,10-11") into explicit CPU ids.
/// Malformed input yields the CPUs parsed up to the error.
std::vector<int> parse_cpu_list(const std::string& list);

/// Pins the calling thread to the CPUs of node `tid % topo.nodes()` when
/// the host has more than one node with known CPUs; otherwise a no-op.
/// Returns the node index the thread was bound to, or -1 when unbound.
int bind_thread_round_robin(const NumaTopology& topo, unsigned tid);

}  // namespace trigen
