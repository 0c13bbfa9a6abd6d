#include "src/kg/io.h"

#include <filesystem>
#include <fstream>

#include "src/common/strings.h"

namespace openea::kg {
namespace {

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open for write: " + path);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

/// One non-empty input line with its 1-based position in the source file,
/// kept so parse errors can point at the exact file:line.
struct NumberedLine {
  size_t number = 0;
  std::string text;
};

Status ReadLines(const std::string& path, std::vector<NumberedLine>* lines,
                 bool required) {
  std::ifstream in(path);
  if (!in) {
    return required ? Status::NotFound("missing file: " + path)
                    : Status::OK();
  }
  std::string line;
  size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (!line.empty()) lines->push_back({number, line});
  }
  if (in.bad()) return Status::Internal("read failed: " + path);
  return Status::OK();
}

/// "path:line: what: "<offending text>"" — enough context to fix the input
/// file without re-running under a debugger.
Status BadLine(const std::string& path, const NumberedLine& line,
               const std::string& what) {
  return Status::InvalidArgument(path + ":" + std::to_string(line.number) +
                                 ": " + what + ": \"" + line.text + "\"");
}

Status SaveKg(const KnowledgeGraph& kg, const std::string& dir, int index) {
  const std::string suffix = std::string("_").append(std::to_string(index));
  // Entity list first: triples alone would lose isolated entities.
  Status ent_status =
      WriteLines(dir + "/ent_ids" + suffix, kg.entities().names());
  if (!ent_status.ok()) return ent_status;
  std::vector<std::string> rel_lines;
  rel_lines.reserve(kg.NumTriples());
  for (const Triple& t : kg.triples()) {
    rel_lines.push_back(kg.entities().Name(t.head) + "\t" +
                        kg.relations().Name(t.relation) + "\t" +
                        kg.entities().Name(t.tail));
  }
  Status status = WriteLines(dir + "/rel_triples" + suffix, rel_lines);
  if (!status.ok()) return status;

  std::vector<std::string> attr_lines;
  attr_lines.reserve(kg.NumAttributeTriples());
  for (const AttributeTriple& t : kg.attribute_triples()) {
    attr_lines.push_back(kg.entities().Name(t.entity) + "\t" +
                         kg.attributes().Name(t.attribute) + "\t" +
                         kg.literals().Name(t.value));
  }
  status = WriteLines(dir + "/attr_triples" + suffix, attr_lines);
  if (!status.ok()) return status;

  std::vector<std::string> desc_lines;
  for (size_t e = 0; e < kg.NumEntities(); ++e) {
    const std::string& desc = kg.Description(static_cast<EntityId>(e));
    if (!desc.empty()) {
      desc_lines.push_back(kg.entities().Name(static_cast<int>(e)) + "\t" +
                           desc);
    }
  }
  if (!desc_lines.empty()) {
    status = WriteLines(dir + "/descriptions" + suffix, desc_lines);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status LoadKg(const std::string& dir, int index, KnowledgeGraph* kg) {
  const std::string suffix = std::string("_").append(std::to_string(index));
  std::vector<NumberedLine> lines;
  // Optional entity list (absent in bare OpenEA-format datasets); loading
  // it first preserves the original id order.
  Status status = ReadLines(dir + "/ent_ids" + suffix, &lines, false);
  if (!status.ok()) return status;
  for (const NumberedLine& line : lines) kg->AddEntity(line.text);
  lines.clear();
  const std::string rel_path = dir + "/rel_triples" + suffix;
  status = ReadLines(rel_path, &lines, true);
  if (!status.ok()) return status;
  for (const NumberedLine& line : lines) {
    const auto parts = Split(line.text, '\t');
    if (parts.size() != 3) {
      return BadLine(rel_path, line,
                     "expected 3 tab-separated fields in relation triple, "
                     "got " + std::to_string(parts.size()));
    }
    kg->AddTriple(kg->AddEntity(parts[0]), kg->AddRelation(parts[1]),
                  kg->AddEntity(parts[2]));
  }
  lines.clear();
  const std::string attr_path = dir + "/attr_triples" + suffix;
  status = ReadLines(attr_path, &lines, false);
  if (!status.ok()) return status;
  for (const NumberedLine& line : lines) {
    const auto parts = Split(line.text, '\t');
    if (parts.size() != 3) {
      return BadLine(attr_path, line,
                     "expected 3 tab-separated fields in attribute triple, "
                     "got " + std::to_string(parts.size()));
    }
    kg->AddAttributeTriple(kg->AddEntity(parts[0]),
                           kg->AddAttribute(parts[1]),
                           kg->AddLiteral(parts[2]));
  }
  lines.clear();
  const std::string desc_path = dir + "/descriptions" + suffix;
  status = ReadLines(desc_path, &lines, false);
  if (!status.ok()) return status;
  for (const NumberedLine& line : lines) {
    const size_t tab = line.text.find('\t');
    if (tab == std::string::npos) {
      return BadLine(desc_path, line, "expected a tab-separated description");
    }
    kg->SetDescription(kg->AddEntity(line.text.substr(0, tab)),
                       line.text.substr(tab + 1));
  }
  kg->BuildIndex();
  return Status::OK();
}

}  // namespace

Status SaveDatasetPair(const datagen::DatasetPair& pair,
                       const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::Internal("cannot create directory: " + directory);
  Status status = SaveKg(pair.kg1, directory, 1);
  if (!status.ok()) return status;
  status = SaveKg(pair.kg2, directory, 2);
  if (!status.ok()) return status;
  return SaveAlignment(pair.kg1, pair.kg2, pair.reference,
                       directory + "/ent_links");
}

Status LoadDatasetPair(const std::string& directory,
                       datagen::DatasetPair* pair) {
  *pair = datagen::DatasetPair();
  Status status = LoadKg(directory, 1, &pair->kg1);
  if (!status.ok()) return status;
  status = LoadKg(directory, 2, &pair->kg2);
  if (!status.ok()) return status;

  std::vector<NumberedLine> lines;
  const std::string links_path = directory + "/ent_links";
  status = ReadLines(links_path, &lines, true);
  if (!status.ok()) return status;
  for (const NumberedLine& line : lines) {
    const auto parts = Split(line.text, '\t');
    if (parts.size() != 2) {
      return BadLine(links_path, line,
                     "expected 2 tab-separated fields in entity link, got " +
                         std::to_string(parts.size()));
    }
    const EntityId left = pair->kg1.entities().Find(parts[0]);
    const EntityId right = pair->kg2.entities().Find(parts[1]);
    if (left == kInvalidId || right == kInvalidId) {
      return BadLine(links_path, line, "link references an unknown entity");
    }
    pair->reference.push_back({left, right});
  }
  return Status::OK();
}

Status SaveRelationTriples(const KnowledgeGraph& kg,
                           const std::string& path) {
  std::vector<std::string> lines;
  lines.reserve(kg.NumTriples());
  for (const Triple& t : kg.triples()) {
    lines.push_back(kg.entities().Name(t.head) + "\t" +
                    kg.relations().Name(t.relation) + "\t" +
                    kg.entities().Name(t.tail));
  }
  return WriteLines(path, lines);
}

Status SaveAlignment(const KnowledgeGraph& kg1, const KnowledgeGraph& kg2,
                     const Alignment& alignment, const std::string& path) {
  std::vector<std::string> lines;
  lines.reserve(alignment.size());
  for (const AlignmentPair& p : alignment) {
    lines.push_back(kg1.entities().Name(p.left) + "\t" +
                    kg2.entities().Name(p.right));
  }
  return WriteLines(path, lines);
}

}  // namespace openea::kg
