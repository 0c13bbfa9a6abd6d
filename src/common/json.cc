#include "src/common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace openea::json {

void AppendString(std::string_view s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendNumber(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional substitute.
    out += "null";
    return;
  }
  // Integral values below 1e15 print as integers. The range test comes
  // first: the cast of a larger value would overflow.
  char buf[32];
  const std::to_chars_result written =
      std::fabs(d) < 1e15 && d == static_cast<double>(static_cast<long long>(d))
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

namespace {

void DumpTo(const Value& v, int indent, int depth, std::string& out) {
  const std::string pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.bool_value() ? "true" : "false"; break;
    case Value::Kind::kNumber: AppendNumber(v.number(), out); break;
    case Value::Kind::kString: AppendString(v.string_value(), out); break;
    case Value::Kind::kObject: {
      if (v.object().empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.object()) {
        if (!first) out.push_back(',');
        first = false;
        out += nl;
        out += pad;
        AppendString(key, out);
        out += indent > 0 ? ": " : ":";
        DumpTo(member, indent, depth + 1, out);
      }
      out += nl;
      out += close_pad;
      out.push_back('}');
      break;
    }
    case Value::Kind::kArray: {
      if (v.array().empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& item : v.array()) {
        if (!first) out.push_back(',');
        first = false;
        out += nl;
        out += pad;
        DumpTo(item, indent, depth + 1, out);
      }
      out += nl;
      out += close_pad;
      out.push_back(']');
      break;
    }
  }
}

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status ParseDocument(Value* out) {
    Status s = ParseValue(out);
    if (!s.ok()) return s;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing content after JSON value");
    }
    return Status::OK();
  }

 private:
  Status Err(const std::string& what) {
    return Status::InvalidArgument(what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      std::string s;
      Status st = ParseString(&s);
      if (!st.ok()) return st;
      *out = Value(std::move(s));
      return Status::OK();
    }
    if (ConsumeLiteral("true")) {
      *out = Value(true);
      return Status::OK();
    }
    if (ConsumeLiteral("false")) {
      *out = Value(false);
      return Status::OK();
    }
    if (ConsumeLiteral("null")) {
      *out = Value();
      return Status::OK();
    }
    return ParseNumber(out);
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // telemetry output is ASCII).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Err("invalid escape character");
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a JSON value");
    // The number strtod reads from the token, without copying the token:
    // from_chars takes the same decimal syntax except a leading '+', which
    // strtod accepts before an unsigned number only.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    const char* digits = *first == '+' ? first + 1 : first;
    if (digits != first && digits != last &&
        (*digits == '+' || *digits == '-')) {
      return Err("malformed number");
    }
    double d = 0.0;
    const std::from_chars_result read = std::from_chars(digits, last, d);
    if (read.ptr != last ||
        (read.ec != std::errc() &&
         read.ec != std::errc::result_out_of_range)) {
      return Err("malformed number");
    }
    if (read.ec == std::errc::result_out_of_range) {
      // strtod's answer out of range: +-inf on overflow, the rounded
      // denormal or 0 on underflow.
      d = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    *out = Value(d);
    return Status::OK();
  }

  Status ParseObject(Value* out) {
    Consume('{');
    Value::Object object;
    SkipWhitespace();
    if (Consume('}')) {
      *out = Value(std::move(object));
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      std::string key;
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      SkipWhitespace();
      if (!Consume(':')) return Err("expected ':'");
      Value member;
      s = ParseValue(&member);
      if (!s.ok()) return s;
      object.emplace(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    *out = Value(std::move(object));
    return Status::OK();
  }

  Status ParseArray(Value* out) {
    Consume('[');
    Value::Array array;
    SkipWhitespace();
    if (Consume(']')) {
      *out = Value(std::move(array));
      return Status::OK();
    }
    for (;;) {
      Value item;
      Status s = ParseValue(&item);
      if (!s.ok()) return s;
      array.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Err("expected ',' or ']'");
    }
    *out = Value(std::move(array));
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Value* Value::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(*this, indent, 0, out);
  if (indent > 0) out.push_back('\n');
  return out;
}

Status Parse(std::string_view text, Value* out) {
  return Parser(text).ParseDocument(out);
}

Status WriteFile(const std::string& path, const Value& value) {
  // Write-then-rename: a crash mid-export can leave a stale *.tmp behind
  // but never a truncated document at `path` (rename is atomic on POSIX).
  const std::string tmp_path = path + ".tmp";
  std::ofstream file(tmp_path, std::ios::out | std::ios::trunc);
  if (!file) {
    return Status::Internal("cannot open " + tmp_path + " for writing");
  }
  file << value.Dump();
  file.close();
  if (!file) {
    std::remove(tmp_path.c_str());
    return Status::Internal("failed writing " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Status ReadFile(const std::string& path, Value* out) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return Parse(buffer.str(), out);
}

}  // namespace openea::json
