#include "src/kg/knowledge_graph.h"

#include "src/common/logging.h"

namespace openea::kg {

void KnowledgeGraph::SetDescription(EntityId e, std::string text) {
  OPENEA_CHECK_GE(e, 0);
  OPENEA_CHECK_LT(static_cast<size_t>(e), entities_.size());
  if (static_cast<size_t>(e) >= descriptions_.size()) {
    descriptions_.resize(entities_.size());
  }
  descriptions_[e] = std::move(text);
}

void KnowledgeGraph::BuildIndex() {
  const size_t n = entities_.size();
  descriptions_.resize(n);
  neighbors_.assign(n, {});
  entity_attrs_.assign(n, {});
  triple_set_.clear();
  triple_set_.reserve(triples_.size() * 2);
  for (const Triple& t : triples_) {
    neighbors_[t.head].push_back({t.tail, t.relation, /*outgoing=*/true});
    neighbors_[t.tail].push_back({t.head, t.relation, /*outgoing=*/false});
    triple_set_.insert(t);
  }
  for (const AttributeTriple& t : attr_triples_) {
    entity_attrs_[t.entity].push_back(t);
  }
}

double KnowledgeGraph::AverageDegree() const {
  if (entities_.empty()) return 0.0;
  return 2.0 * static_cast<double>(triples_.size()) /
         static_cast<double>(entities_.size());
}

KnowledgeGraph KnowledgeGraph::InducedSubgraph(
    const std::unordered_set<EntityId>& kept_entities,
    std::vector<EntityId>* old_to_new) const {
  KnowledgeGraph out;
  std::vector<EntityId> remap(entities_.size(), kInvalidId);
  for (size_t old_id = 0; old_id < entities_.size(); ++old_id) {
    if (kept_entities.count(static_cast<EntityId>(old_id)) == 0) continue;
    const EntityId new_id =
        out.AddEntity(entities_.Name(static_cast<int32_t>(old_id)));
    remap[old_id] = new_id;
    if (old_id < descriptions_.size() && !descriptions_[old_id].empty()) {
      out.SetDescription(new_id, descriptions_[old_id]);
    }
  }
  // Relation, attribute and literal names are interned on first use, in
  // triple order. Names are unique within a vocabulary, so an old id maps
  // to exactly one new id; the tables below assign the ids GetOrAdd would,
  // but hash each name once instead of once per triple.
  std::vector<int32_t> relation_ids(relations_.size(), kInvalidId);
  std::vector<int32_t> attribute_ids(attributes_.size(), kInvalidId);
  std::vector<int32_t> literal_ids(literals_.size(), kInvalidId);
  auto intern = [](std::vector<int32_t>& ids, int32_t old_id,
                   const Vocab& from, Vocab& to) {
    int32_t& id = ids[static_cast<size_t>(old_id)];
    if (id == kInvalidId) id = to.GetOrAdd(from.Name(old_id));
    return id;
  };
  for (const Triple& t : triples_) {
    const EntityId h = remap[t.head];
    const EntityId tl = remap[t.tail];
    if (h == kInvalidId || tl == kInvalidId) continue;
    out.AddTriple(h, intern(relation_ids, t.relation, relations_,
                            out.relations_),
                  tl);
  }
  for (const AttributeTriple& t : attr_triples_) {
    const EntityId e = remap[t.entity];
    if (e == kInvalidId) continue;
    const AttributeId a =
        intern(attribute_ids, t.attribute, attributes_, out.attributes_);
    const LiteralId v = intern(literal_ids, t.value, literals_, out.literals_);
    out.AddAttributeTriple(e, a, v);
  }
  out.BuildIndex();
  if (old_to_new != nullptr) *old_to_new = std::move(remap);
  return out;
}

}  // namespace openea::kg
