#include "core/system_monitor.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

namespace qon::core {

namespace {

std::string serialize_qpu(const QpuInfo& info) {
  std::ostringstream oss;
  // Full round-trip precision: queue waits are absolute virtual instants,
  // which outgrow the default 6 significant digits within a simulated day.
  oss << std::setprecision(std::numeric_limits<double>::max_digits10) << info.qubits
      << "|" << info.queue_wait_seconds << "|" << info.mean_gate_error_2q << "|"
      << info.calibration_cycle << "|" << (info.online ? 1 : 0) << "|"
      << (info.reserved ? 1 : 0);
  return oss.str();
}

std::optional<QpuInfo> deserialize_qpu(const std::string& name, const std::string& data) {
  QpuInfo info;
  info.name = name;
  char sep = 0;
  int online = 1;
  int reserved = 0;
  std::istringstream in(data);
  if (!(in >> info.qubits >> sep >> info.queue_wait_seconds >> sep >>
        info.mean_gate_error_2q >> sep >> info.calibration_cycle >> sep >> online >> sep >>
        reserved)) {
    return std::nullopt;
  }
  info.online = online != 0;
  info.reserved = reserved != 0;
  return info;
}

std::string qpu_key(const std::string& name) { return "qpu/" + name; }

}  // namespace

SystemMonitor::SystemMonitor(bool replicated, std::size_t replicas) {
  if (replicated) store_ = std::make_unique<raft::ReplicatedKvStore>(replicas);
}

std::optional<QpuInfo> SystemMonitor::load_locked(const std::string& name) const {
  if (store_) {
    const auto raw = store_->get(qpu_key(name));
    if (!raw) return std::nullopt;
    return deserialize_qpu(name, *raw);
  }
  const auto it = std::find_if(local_.begin(), local_.end(),
                               [&name](const QpuInfo& q) { return q.name == name; });
  if (it == local_.end()) return std::nullopt;
  return *it;
}

void SystemMonitor::store_locked(const QpuInfo& info) {
  if (store_) {
    if (std::find(replicated_names_.begin(), replicated_names_.end(), info.name) ==
        replicated_names_.end()) {
      replicated_names_.push_back(info.name);
    }
    store_->set(qpu_key(info.name), serialize_qpu(info));
    return;
  }
  const auto it = std::find_if(local_.begin(), local_.end(),
                               [&info](const QpuInfo& q) { return q.name == info.name; });
  if (it == local_.end()) {
    local_.push_back(info);
  } else {
    *it = info;
  }
}

void SystemMonitor::publish_qpu_dynamic(const QpuInfo& info) {
  MutexLock lock(mutex_);
  QpuInfo merged = info;
  if (const auto previous = load_locked(info.name)) {
    // Health and reservation belong to set_qpu_online/set_qpu_reserved;
    // republishing dynamic state must not flip either.
    merged.online = previous->online;
    merged.reserved = previous->reserved;
  }
  store_locked(merged);
}

std::optional<bool> SystemMonitor::set_qpu_online(const std::string& name, bool online) {
  MutexLock lock(mutex_);
  auto info = load_locked(name);
  if (!info) return std::nullopt;
  const bool previous = info->online;
  info->online = online;
  store_locked(*info);
  return previous;
}

std::optional<bool> SystemMonitor::set_qpu_reserved(const std::string& name, bool reserved) {
  MutexLock lock(mutex_);
  auto info = load_locked(name);
  if (!info) return std::nullopt;
  const bool previous = info->reserved;
  info->reserved = reserved;
  store_locked(*info);
  return previous;
}

std::optional<QpuInfo> SystemMonitor::qpu(const std::string& name) const {
  MutexLock lock(mutex_);
  return load_locked(name);
}

std::vector<std::string> SystemMonitor::qpu_names() const {
  MutexLock lock(mutex_);
  if (store_) return replicated_names_;
  std::vector<std::string> names;
  names.reserve(local_.size());
  for (const QpuInfo& info : local_) names.push_back(info.name);
  return names;
}

}  // namespace qon::core
