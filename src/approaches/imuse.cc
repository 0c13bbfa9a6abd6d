#include "src/approaches/imuse.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/approaches/common.h"
#include "src/embedding/attribute.h"
#include "src/embedding/translational.h"
#include "src/interaction/trainer.h"
#include "src/interaction/unified_kg.h"

namespace openea::approaches {

core::ApproachRequirements Imuse::requirements() const {
  core::ApproachRequirements req;
  req.relation_triples = core::Requirement::kOptional;
  req.attribute_triples = core::Requirement::kOptional;
  req.pre_aligned_entities = core::Requirement::kMandatory;
  return req;
}

kg::Alignment Imuse::HarvestLiteralPairs(const core::AlignmentTask& task,
                                         size_t min_shared) {
  // Inverted index: literal string -> kg2 entities carrying it.
  std::unordered_map<std::string, std::vector<kg::EntityId>> index2;
  for (const kg::AttributeTriple& t : task.kg2->attribute_triples()) {
    auto& list = index2[task.kg2->literals().Name(t.value)];
    if (list.size() < 20) list.push_back(t.entity);  // Skip stop-values.
  }
  // Count shared exact values per candidate pair.
  std::unordered_map<int64_t, size_t> shared;
  for (const kg::AttributeTriple& t : task.kg1->attribute_triples()) {
    auto it = index2.find(task.kg1->literals().Name(t.value));
    if (it == index2.end()) continue;
    for (kg::EntityId e2 : it->second) {
      ++shared[(static_cast<int64_t>(t.entity) << 32) ^
               static_cast<int64_t>(e2)];
    }
  }
  struct Candidate {
    size_t count;
    kg::EntityId left, right;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, count] : shared) {
    if (count < min_shared) continue;
    candidates.push_back({count, static_cast<kg::EntityId>(key >> 32),
                          static_cast<kg::EntityId>(key & 0xffffffff)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.count > b.count;
            });
  kg::Alignment out;
  std::unordered_set<kg::EntityId> taken1, taken2;
  for (const Candidate& c : candidates) {
    if (taken1.count(c.left) > 0 || taken2.count(c.right) > 0) continue;
    taken1.insert(c.left);
    taken2.insert(c.right);
    out.push_back({c.left, c.right});
  }
  return out;
}

core::AlignmentModel Imuse::Train(const core::AlignmentTask& task) {
  Rng rng(config_.seed);

  // Preprocessing: harvest literal-identical pairs and merge them with the
  // given seeds (seeds win conflicts).
  kg::Alignment seeds = task.train;
  if (config_.use_attributes) {
    std::unordered_set<kg::EntityId> used1, used2;
    for (const kg::AlignmentPair& p : seeds) {
      used1.insert(p.left);
      used2.insert(p.right);
    }
    for (const kg::AlignmentPair& p : HarvestLiteralPairs(task)) {
      if (used1.count(p.left) > 0 || used2.count(p.right) > 0) continue;
      seeds.push_back(p);
      used1.insert(p.left);
      used2.insert(p.right);
    }
  }

  const interaction::UnifiedKg unified = interaction::BuildUnifiedKg(
      task, interaction::CombinationMode::kSharing, seeds);

  embedding::TripleModelOptions model_options;
  model_options.dim = config_.dim;
  model_options.learning_rate = config_.learning_rate;
  model_options.margin = config_.margin;
  embedding::TransEModel model(unified.num_entities, unified.num_relations,
                               model_options, rng);

  math::Matrix literal1, literal2;
  if (config_.use_attributes) {
    literal1 = embedding::BuildCharLiteralFeatures(*task.kg1, config_.dim,
                                                   config_.seed ^ 0x11);
    literal2 = embedding::BuildCharLiteralFeatures(*task.kg2, config_.dim,
                                                   config_.seed ^ 0x11);
  }
  constexpr float kLiteralWeight = 0.6f;

  return TrainWithEarlyStopping(
      config_, task.valid, /*patience=*/2,
      [&](int) {
        if (config_.use_relations) {
          interaction::TrainEpoch(model, unified.triples,
                                  config_.negatives_per_positive, rng);
        }
      },
      [&] {
        core::AlignmentModel current =
            GatherUnifiedModel(unified, model.entity_table());
        if (config_.use_attributes) {
          current.emb1 = ConcatViews(current.emb1, literal1, kLiteralWeight);
          current.emb2 = ConcatViews(current.emb2, literal2, kLiteralWeight);
        }
        return current;
      });
}

}  // namespace openea::approaches
