#ifndef OPENEA_CORE_APPROACH_H_
#define OPENEA_CORE_APPROACH_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/core/task.h"

namespace openea::core {

/// Hyper-parameters shared by every approach (paper Table 4 analogue,
/// scaled for CPU execution; see DESIGN.md "Scaled protocol").
struct TrainConfig {
  size_t dim = 32;
  int max_epochs = 150;
  /// Early-stop cadence: validation Hits@1 is checked every this many
  /// epochs and training stops when it begins to drop (paper Table 4).
  int eval_every = 10;
  float learning_rate = 0.05f;  // Per-row AdaGrad.
  float margin = 1.5f;
  int negatives_per_positive = 5;
  size_t batch_size = 2000;
  uint64_t seed = 1;
  /// Worker threads for the parallel compute core (src/common/parallel.h)
  /// that run the epoch trainers' shard draws and the GEMM / similarity /
  /// ranking kernels. Results are bit-identical at every count (one
  /// training stream; DESIGN.md "Epoch streams"). 0 = all hardware
  /// threads.
  int threads = 1;
  /// Ablation switches for Figure 6 and Table 8.
  bool use_attributes = true;
  bool use_relations = true;
  /// "No-match" similarity threshold of the abstention-aware evaluation
  /// (robustness workload): a test query whose best cosine similarity falls
  /// below this abstains instead of predicting. Only consulted when the
  /// dataset carries dangling entities or corrupted seeds.
  float abstention_threshold = 0.5f;

  /// Checks the invariants every approach depends on. Called at the
  /// CreateApproach / RunCrossValidation boundary so a bad configuration
  /// surfaces before any data generation or training starts.
  Status Validate() const {
    if (dim == 0) {
      return Status::InvalidArgument("TrainConfig.dim must be > 0");
    }
    if (max_epochs <= 0) {
      return Status::InvalidArgument(
          "TrainConfig.max_epochs must be > 0, got " +
          std::to_string(max_epochs));
    }
    if (eval_every <= 0) {
      return Status::InvalidArgument(
          "TrainConfig.eval_every must be > 0, got " +
          std::to_string(eval_every));
    }
    if (threads < 0) {
      return Status::InvalidArgument(
          "TrainConfig.threads must be >= 0 (0 = all hardware threads), "
          "got " +
          std::to_string(threads));
    }
    if (negatives_per_positive < 0) {
      return Status::InvalidArgument(
          "TrainConfig.negatives_per_positive must be >= 0, got " +
          std::to_string(negatives_per_positive));
    }
    return Status::OK();
  }
};

/// One cell of the Table 9 required-information matrix.
enum class Requirement { kNotApplicable, kOptional, kMandatory };

/// Required input information of an approach (paper Table 9).
struct ApproachRequirements {
  Requirement relation_triples = Requirement::kNotApplicable;
  Requirement attribute_triples = Requirement::kNotApplicable;
  Requirement pre_aligned_entities = Requirement::kNotApplicable;
  Requirement pre_aligned_properties = Requirement::kNotApplicable;
  Requirement word_embeddings = Requirement::kNotApplicable;
};

/// Base interface implemented by each of the 12 approaches (and the
/// unexplored-model chassis). Loose coupling per the paper's library
/// design: the evaluation harness, the geometric analyses, and the
/// inference-strategy sweeps all operate on the returned AlignmentModel
/// without knowing the approach.
class EntityAlignmentApproach {
 public:
  explicit EntityAlignmentApproach(const TrainConfig& config)
      : config_(config) {}
  virtual ~EntityAlignmentApproach() = default;

  /// The approach's paper name, e.g. "BootEA".
  virtual std::string name() const = 0;

  /// Table 9 metadata.
  virtual ApproachRequirements requirements() const = 0;

  /// Trains on `task` and returns unified-space embeddings.
  virtual AlignmentModel Train(const AlignmentTask& task) = 0;

  const TrainConfig& config() const { return config_; }

 protected:
  TrainConfig config_;
};

}  // namespace openea::core

#endif  // OPENEA_CORE_APPROACH_H_
