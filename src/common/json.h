#ifndef OPENEA_COMMON_JSON_H_
#define OPENEA_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace openea::json {

/// Minimal JSON document model used by the telemetry exporters and the
/// bench-output validator. Objects are std::map (sorted keys), so a document
/// always serializes with a stable key order — the property the perf
/// trajectory (BENCH_*.json) depends on for diffable output.
class Value {
 public:
  using Object = std::map<std::string, Value>;
  using Array = std::vector<Value>;

  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT: implicit by design
  Value(double d) : kind_(Kind::kNumber), number_(d) {}            // NOLINT
  Value(int i) : kind_(Kind::kNumber), number_(i) {}               // NOLINT
  Value(int64_t i)                                                 // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(i)) {}
  Value(uint64_t u)                                                // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(u)) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Value(const char* s) : kind_(Kind::kString), string_(s) {}       // NOLINT
  Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {} // NOLINT
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}    // NOLINT

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string_value() const { return string_; }
  const Object& object() const { return object_; }
  Object& object() { return object_; }
  const Array& array() const { return array_; }
  Array& array() { return array_; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  /// Serializes with 2-space indentation (indent <= 0 emits compact form).
  std::string Dump(int indent = 2) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Object object_;
  Array array_;
};

/// Appends the JSON text of `d` to `out`, as Value::Dump writes a number:
/// non-finite values as null, integral values below 1e15 as integers, any
/// other value as printf's "%.17g" would (17 significant digits, enough to
/// read back the same double).
void AppendNumber(double d, std::string& out);

/// Appends `s` to `out` as a quoted JSON string, escaping '"', '\\' and
/// control characters.
void AppendString(std::string_view s, std::string& out);

/// Parses a JSON document. Accepts exactly one top-level value (trailing
/// whitespace allowed) and rejects everything else with InvalidArgument.
Status Parse(std::string_view text, Value* out);

/// Writes `value` to `path`, returning an I/O Status.
Status WriteFile(const std::string& path, const Value& value);

/// Reads and parses the JSON file at `path`.
Status ReadFile(const std::string& path, Value* out);

}  // namespace openea::json

#endif  // OPENEA_COMMON_JSON_H_
