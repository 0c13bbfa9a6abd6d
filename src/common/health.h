#ifndef OPENEA_COMMON_HEALTH_H_
#define OPENEA_COMMON_HEALTH_H_

#include <cstddef>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace openea::health {

/// Numerical-health verdicts of a training run, ordered by severity. The
/// epoch trainers (src/interaction/trainer.h) feed their per-epoch losses to
/// the active monitor; RunCrossValidation reads the worst verdict after a
/// fold trains and decides between accept / retry-with-halved-LR / mark the
/// fold degraded (DESIGN.md, "Fault tolerance").
enum class Verdict {
  kHealthy = 0,
  kDiverged = 1,   // Loss blew up relative to the recent window.
  kNonFinite = 2,  // NaN or Inf observed in a loss or an embedding.
};

/// Short lowercase name ("healthy", "diverged", "non_finite") used in
/// telemetry annotations and checkpoint records.
const char* VerdictName(Verdict verdict);

/// Returns the more severe of the two.
Verdict Worst(Verdict a, Verdict b);

struct GuardConfig {
  /// Sliding window of recent epoch losses of one kind the divergence
  /// detector compares against.
  size_t window = 8;
  /// An epoch loss above `divergence_factor * max(window minimum, floor)`
  /// counts as diverged. The floor keeps near-zero early losses from turning
  /// ordinary fluctuation into a divergence verdict.
  double divergence_factor = 10.0;
  double divergence_floor = 1e-3;
  /// Divergence is not judged before this many losses of the kind have
  /// been observed (non-finite values are always flagged).
  size_t min_observations = 4;
};

/// Sliding-window loss monitor with one window per loss kind: the epoch
/// trainers' objectives ("pair", "positive", "calibrate") differ in scale
/// by design, so one kind's losses never judge another's. Deliberately
/// passive: observing never touches any RNG and never throws, so a guarded
/// run is bit-identical to an unguarded one until the policy layer acts on
/// the verdict.
class HealthMonitor {
 public:
  HealthMonitor() = default;
  explicit HealthMonitor(const GuardConfig& config) : config_(config) {}

  /// Feeds one epoch loss of `kind`; returns the verdict for this
  /// observation and folds it into worst().
  Verdict Observe(double loss, std::string_view kind = {});

  /// Flags non-finite entries of a tensor (post-training embedding scan).
  Verdict ObserveTensor(std::span<const float> values);

  /// The most severe verdict observed since construction/Reset.
  Verdict worst() const { return worst_; }

  /// Finite losses observed, over every kind.
  size_t observations() const { return observations_; }

  void Reset();

 private:
  struct Window {
    std::deque<double> recent;
    size_t observations = 0;
  };

  GuardConfig config_;
  std::map<std::string, Window, std::less<>> windows_;
  size_t observations_ = 0;
  Verdict worst_ = Verdict::kHealthy;
};

/// Installs `monitor` as the calling thread's active monitor for the scope's
/// lifetime (monitors nest; the innermost wins). The epoch trainers report
/// to the active monitor, so callers wrap `approach->Train(...)` in one of
/// these to collect verdicts without threading a handle through every
/// approach.
class ScopedHealthMonitor {
 public:
  explicit ScopedHealthMonitor(HealthMonitor* monitor);
  ~ScopedHealthMonitor();

  ScopedHealthMonitor(const ScopedHealthMonitor&) = delete;
  ScopedHealthMonitor& operator=(const ScopedHealthMonitor&) = delete;

 private:
  HealthMonitor* previous_;
};

/// The calling thread's active monitor, or nullptr.
HealthMonitor* ActiveMonitor();

/// Reports a loss of `kind` to the active monitor. Without one, only the
/// (free) finiteness check runs: returns kNonFinite for NaN/Inf, else
/// kHealthy.
Verdict ReportLoss(double loss, std::string_view kind);

/// True when every element is finite.
bool AllFinite(std::span<const float> values);

}  // namespace openea::health

#endif  // OPENEA_COMMON_HEALTH_H_
