#pragma once
// System monitor (§4.1): the datastore persisting fleet state — each QPU's
// static and dynamic information, its health and its reservation. Run
// status lives in the run table, not here. Backed either by typed local
// records (fast path for simulation) or by the Raft-replicated KV store
// (2f+1 quorum, §4.1 fault tolerance); records are serialized only on the
// way into and out of the replicated store.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_safety.hpp"
#include "raft/kv_store.hpp"

namespace qon::core {

/// QPU record published by worker-node device managers.
struct QpuInfo {
  std::string name;
  int qubits = 0;
  double queue_wait_seconds = 0.0;
  double mean_gate_error_2q = 0.0;
  std::uint64_t calibration_cycle = 0;
  /// Health: false means the device manager took the QPU down (faults,
  /// maintenance). Distinct from `reserved` — releasing a reservation
  /// must not bring a faulted QPU back into rotation.
  bool online = true;
  /// §7 reservation (reserveQpu/releaseQpu). Scheduling snapshots offer a
  /// QPU only when it is online AND not reserved.
  bool reserved = false;
};

/// Thread-safe: workflow executors, device managers and control-plane
/// queries hit the monitor concurrently; one internal mutex serializes
/// access to whichever backend is active.
class SystemMonitor {
 public:
  /// `replicated` switches to the Raft-backed store (slower, fault
  /// tolerant); typed local records are the default for simulations.
  explicit SystemMonitor(bool replicated = false, std::size_t replicas = 3);

  /// The one writer: publishes dynamic state (queue, calibration) while
  /// preserving the stored health and reservation flags, atomically with
  /// the flag setters below. The first publish of a name registers the QPU
  /// with the flags `info` carries.
  void publish_qpu_dynamic(const QpuInfo& info);
  /// Atomically flips only the health flag; returns the previous value,
  /// nullopt for unknown names. The device-manager path: a read-modify-write
  /// through qpu() and a republish could lose concurrent flag writes.
  std::optional<bool> set_qpu_online(const std::string& name, bool online);
  /// Atomically flips only the §7 reservation flag (reserveQpu/releaseQpu
  /// sit on top); same contract as set_qpu_online.
  std::optional<bool> set_qpu_reserved(const std::string& name, bool reserved);
  std::optional<QpuInfo> qpu(const std::string& name) const;
  /// Registered QPUs, in registration order.
  std::vector<std::string> qpu_names() const;

  bool replicated() const {
    // store_ is immutable after construction, but the lock keeps the
    // guarded_by contract uniform (this is a cold query path).
    MutexLock lock(mutex_);
    return store_ != nullptr;
  }

 private:
  // Backend access with mutex_ already held.
  std::optional<QpuInfo> load_locked(const std::string& name) const REQUIRES(mutex_);
  void store_locked(const QpuInfo& info) REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kMonitor, "SystemMonitor::mutex_"};
  // Exactly one backend is active. Local: the records themselves, in
  // registration order. Replicated: the committed store plus the
  // registration order of its keys. The ReplicatedKvStore (and the whole
  // raft:: simulation under it) is thread-compatible, not thread-safe —
  // every access is serialized behind mutex_ here.
  std::vector<QpuInfo> local_ GUARDED_BY(mutex_);
  std::unique_ptr<raft::ReplicatedKvStore> store_ GUARDED_BY(mutex_);
  std::vector<std::string> replicated_names_ GUARDED_BY(mutex_);
};

}  // namespace qon::core
