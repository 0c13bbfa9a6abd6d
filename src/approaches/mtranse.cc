#include "src/approaches/mtranse.h"

#include "src/approaches/common.h"
#include "src/eval/metrics.h"
#include "src/interaction/trainer.h"

namespace openea::approaches {
namespace {

using embedding::TripleModelKind;

/// Gathers one KG's entity embeddings into a dense matrix.
math::Matrix TableToMatrix(const math::EmbeddingTable& table) {
  math::Matrix out(table.num_rows(), table.dim());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const auto src = table.Row(r);
    std::copy(src.begin(), src.end(), out.Row(r).begin());
  }
  return out;
}

/// Learns the transformation M (emb1 -> emb2 space) from seed pairs and
/// returns emb1 * M.
math::Matrix MapThroughSeeds(const math::Matrix& emb1,
                             const math::Matrix& emb2,
                             const kg::Alignment& seeds) {
  std::vector<kg::EntityId> lefts, rights;
  for (const auto& p : seeds) {
    lefts.push_back(p.left);
    rights.push_back(p.right);
  }
  const math::Matrix x = eval::GatherRows(emb1, lefts);
  const math::Matrix y = eval::GatherRows(emb2, rights);
  const math::Matrix m = math::LeastSquaresMap(x, y);
  math::Matrix mapped;
  Gemm(emb1, m, mapped);
  return mapped;
}

}  // namespace

MTransE::MTransE(const core::TrainConfig& config, const Options& options)
    : core::EntityAlignmentApproach(config), options_(options) {}

std::string MTransE::name() const {
  if (options_.model_kind == TripleModelKind::kTransE) return "MTransE";
  return std::string("MTransE-") +
         embedding::TripleModelKindName(options_.model_kind);
}

core::ApproachRequirements MTransE::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel MTransE::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  auto model1 = CreateTripleModel(options_.model_kind,
                                  task.kg1->NumEntities(),
                                  task.kg1->NumRelations(), model_options,
                                  rng);
  auto model2 = CreateTripleModel(options_.model_kind,
                                  task.kg2->NumEntities(),
                                  task.kg2->NumRelations(), model_options,
                                  rng);
  const bool positives_only =
      options_.model_kind == TripleModelKind::kTransE &&
      !options_.use_negative_sampling;

  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        if (positives_only) {
          interaction::TrainEpochPositiveOnly(*model1, task.kg1->triples(),
                                              rng);
          interaction::TrainEpochPositiveOnly(*model2, task.kg2->triples(),
                                              rng);
        } else {
          interaction::TrainEpoch(*model1, task.kg1->triples(),
                                  config_.negatives_per_positive, rng);
          interaction::TrainEpoch(*model2, task.kg2->triples(),
                                  config_.negatives_per_positive, rng);
        }
      },
      [&] {
        core::AlignmentModel current;
        current.emb2 = TableToMatrix(model2->entity_table());
        current.emb1 = MapThroughSeeds(TableToMatrix(model1->entity_table()),
                                       current.emb2, task.train);
        return current;
      });
}

core::ApproachRequirements Sea::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kMandatory;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

core::AlignmentModel Sea::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);
  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  auto model1 = CreateTripleModel(TripleModelKind::kTransE,
                                  task.kg1->NumEntities(),
                                  task.kg1->NumRelations(), model_options,
                                  rng);
  auto model2 = CreateTripleModel(TripleModelKind::kTransE,
                                  task.kg2->NumEntities(),
                                  task.kg2->NumRelations(), model_options,
                                  rng);
  kg::Alignment reversed;
  for (const auto& p : task.train) reversed.push_back({p.right, p.left});

  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        interaction::TrainEpoch(*model1, task.kg1->triples(),
                                config_.negatives_per_positive, rng);
        interaction::TrainEpoch(*model2, task.kg2->triples(),
                                config_.negatives_per_positive, rng);
      },
      [&] {
        const math::Matrix emb1 = TableToMatrix(model1->entity_table());
        const math::Matrix emb2 = TableToMatrix(model2->entity_table());
        // Forward map of KG1 into KG2's space and backward map of KG2 into
        // KG1's space; both directions contribute to the representation.
        core::AlignmentModel current;
        current.emb1 =
            ConcatViews(MapThroughSeeds(emb1, emb2, task.train), emb1, 1.0f);
        current.emb2 =
            ConcatViews(emb2, MapThroughSeeds(emb2, emb1, reversed), 1.0f);
        return current;
      });
}

}  // namespace openea::approaches
