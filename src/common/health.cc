#include "src/common/health.h"

#include <algorithm>
#include <cmath>

namespace openea::health {

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kHealthy: return "healthy";
    case Verdict::kDiverged: return "diverged";
    case Verdict::kNonFinite: return "non_finite";
  }
  return "unknown";
}

Verdict Worst(Verdict a, Verdict b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

Verdict HealthMonitor::Observe(double loss, std::string_view kind) {
  Verdict verdict = Verdict::kHealthy;
  if (!std::isfinite(loss)) {
    verdict = Verdict::kNonFinite;
  } else {
    ++observations_;
    auto it = windows_.find(kind);
    if (it == windows_.end()) it = windows_.emplace(kind, Window()).first;
    Window& window = it->second;
    ++window.observations;
    if (window.observations > config_.min_observations &&
        !window.recent.empty()) {
      const double window_min =
          *std::min_element(window.recent.begin(), window.recent.end());
      const double threshold =
          config_.divergence_factor *
          std::max(window_min, config_.divergence_floor);
      if (loss > threshold) verdict = Verdict::kDiverged;
    }
    window.recent.push_back(loss);
    if (window.recent.size() > config_.window) window.recent.pop_front();
  }
  worst_ = Worst(worst_, verdict);
  return verdict;
}

Verdict HealthMonitor::ObserveTensor(std::span<const float> values) {
  const Verdict verdict =
      AllFinite(values) ? Verdict::kHealthy : Verdict::kNonFinite;
  worst_ = Worst(worst_, verdict);
  return verdict;
}

void HealthMonitor::Reset() {
  windows_.clear();
  observations_ = 0;
  worst_ = Verdict::kHealthy;
}

namespace {

/// Innermost active monitor of this thread. Thread-local so pool workers and
/// concurrent CV runs never race on verdict state.
thread_local HealthMonitor* g_active_monitor = nullptr;

}  // namespace

ScopedHealthMonitor::ScopedHealthMonitor(HealthMonitor* monitor)
    : previous_(g_active_monitor) {
  g_active_monitor = monitor;
}

ScopedHealthMonitor::~ScopedHealthMonitor() { g_active_monitor = previous_; }

HealthMonitor* ActiveMonitor() { return g_active_monitor; }

Verdict ReportLoss(double loss, std::string_view kind) {
  if (g_active_monitor != nullptr) {
    return g_active_monitor->Observe(loss, kind);
  }
  return std::isfinite(loss) ? Verdict::kHealthy : Verdict::kNonFinite;
}

bool AllFinite(std::span<const float> values) {
  // Summing keeps the scan branch-free; any NaN/Inf poisons the total.
  float acc = 0.0f;
  for (const float v : values) acc += v * 0.0f;
  return std::isfinite(acc) && acc == 0.0f;
}

}  // namespace openea::health
