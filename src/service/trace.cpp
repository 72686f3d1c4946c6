#include "service/trace.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/file_io.hpp"
#include "stat/cli_config.hpp"

namespace petastat::service {

namespace {

// --- Minimal JSON ----------------------------------------------------------
// A recursive-descent parser for the subset a trace needs: objects, arrays,
// strings (no \u escapes), numbers, booleans, null. Object keys keep file
// order, so error messages and flag expansion are stable. Nesting is capped
// at kMaxDepth, so a hostile input cannot overflow the stack.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;
};

class JsonParser {
 public:
  /// A trace nests three levels deep; anything past this is rejected.
  static constexpr std::size_t kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    auto value = parse_value();
    if (!value.is_ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after the top-level value");
    }
    return value;
  }

 private:
  Status fail(const std::string& what) const {
    return invalid_argument("trace JSON: " + what + " (at byte " +
                            std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      auto value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return parse_string_value();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return fail(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> parse_object() {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (consume('}')) return value;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.is_ok()) return key.status();
      if (!consume(':')) return fail("expected ':' after object key");
      auto member = parse_value();
      if (!member.is_ok()) return member;
      value.object.emplace_back(std::move(key).value(),
                                std::move(member).value());
      if (consume(',')) continue;
      if (consume('}')) return value;
      return fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> parse_array() {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (consume(']')) return value;
    while (true) {
      auto element = parse_value();
      if (!element.is_ok()) return element;
      value.array.push_back(std::move(element).value());
      if (consume(',')) continue;
      if (consume(']')) return value;
      return fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected a string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default:
            return fail(std::string("unsupported escape '\\") + esc + "'");
        }
        continue;
      }
      out += c;
    }
    return fail("unterminated string");
  }

  Result<JsonValue> parse_string_value() {
    auto s = parse_string();
    if (!s.is_ok()) return s.status();
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    value.string = std::move(s).value();
    return value;
  }

  Result<JsonValue> parse_bool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return fail("expected true/false");
  }

  Result<JsonValue> parse_null() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue{};
    }
    return fail("expected null");
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    try {
      JsonValue value;
      value.kind = JsonValue::Kind::kNumber;
      std::size_t used = 0;
      value.number = std::stod(token, &used);
      if (used == token.size()) return value;
    } catch (const std::exception&) {
    }
    return fail("malformed number '" + token + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // objects and arrays open around pos_
};

// --- Trace semantics -------------------------------------------------------

/// Renders a JSON number the way a user would have typed it on the command
/// line: integers without a decimal point, everything else via %g.
std::string number_to_flag_value(double number) {
  if (number == std::floor(number) && std::abs(number) < 1e15) {
    return std::to_string(static_cast<long long>(number));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", number);
  return buf;
}

/// Reads a service-level count: an integer in 1..max of `Int`, so the cast
/// is exact (2^digits is a double exactly, and every integer below it fits).
template <typename Int>
Result<Int> parse_positive_integer(const JsonValue& value,
                                   const std::string& key) {
  if (value.kind != JsonValue::Kind::kNumber || value.number < 1.0 ||
      value.number != std::floor(value.number) ||
      value.number >= std::ldexp(1.0, std::numeric_limits<Int>::digits)) {
    return invalid_argument("trace JSON: " + key +
                            " must be an integer in 1.." +
                            std::to_string(std::numeric_limits<Int>::max()));
  }
  return static_cast<Int>(value.number);
}

bool is_reserved_session_key(const std::string& key) {
  // Service-level keys, plus CLI flags that make no sense per session: the
  // machine is the contended resource, and output/service flags belong to
  // the driver invocation.
  return key == "name" || key == "arrival" || key == "priority" ||
         key == "machine" || key == "format" || key == "print-tree" ||
         key == "dot" || key == "service" || key == "service-policy" ||
         key == "restore";
}

Result<SessionRequest> parse_session(const JsonValue& value,
                                     const machine::MachineConfig& machine,
                                     std::size_t index) {
  if (value.kind != JsonValue::Kind::kObject) {
    return invalid_argument("sessions[" + std::to_string(index) +
                            "] must be an object");
  }
  SessionRequest request;
  const std::string label = "sessions[" + std::to_string(index) + "]";

  // Everything that is not service-level becomes a CLI flag, so session
  // validation is exactly the CLI's.
  std::vector<std::string> flag_storage{"--machine", machine.name};
  for (const auto& [key, member] : value.object) {
    if (key == "name") {
      if (member.kind != JsonValue::Kind::kString || member.string.empty()) {
        return invalid_argument(label + ".name must be a non-empty string");
      }
      request.name = member.string;
      continue;
    }
    if (key == "arrival") {
      if (member.kind != JsonValue::Kind::kNumber ||
          !fits_sim_time(member.number)) {
        return invalid_argument(label +
                                ".arrival must be a number of seconds in "
                                "0..1.8e10");
      }
      request.arrival_seconds = member.number;
      continue;
    }
    if (key == "priority") {
      if (member.kind != JsonValue::Kind::kNumber || member.number < 0.0 ||
          member.number != std::floor(member.number) ||
          member.number > kMaxSessionPriority) {
        return invalid_argument(label + ".priority must be an integer in 0.." +
                                std::to_string(kMaxSessionPriority));
      }
      request.priority = static_cast<std::uint32_t>(member.number);
      continue;
    }
    if (is_reserved_session_key(key)) {
      return invalid_argument(label + ": '" + key +
                              "' cannot be set per session");
    }
    switch (member.kind) {
      case JsonValue::Kind::kBool:
        if (!member.boolean) {
          return invalid_argument(label + "." + key +
                                  ": boolean flags are true or omitted");
        }
        flag_storage.push_back("--" + key);
        break;
      case JsonValue::Kind::kNumber:
        flag_storage.push_back("--" + key);
        flag_storage.push_back(number_to_flag_value(member.number));
        break;
      case JsonValue::Kind::kString:
        flag_storage.push_back("--" + key);
        flag_storage.push_back(member.string);
        break;
      default:
        return invalid_argument(label + "." + key +
                                " must be a string, number, or true");
    }
  }

  std::vector<std::string_view> args(flag_storage.begin(), flag_storage.end());
  auto cli = stat::parse_cli(args);
  if (!cli.is_ok()) {
    return invalid_argument(label + ": " + cli.status().message());
  }
  request.job = cli.value().job;
  request.options = cli.value().options;
  if (request.name.empty()) {
    request.name = "session-" + std::to_string(index);
  }
  return request;
}

}  // namespace

Result<ServiceTrace> parse_service_trace(std::string_view text) {
  JsonParser parser(text);
  auto parsed = parser.parse();
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (root.kind != JsonValue::Kind::kObject) {
    return invalid_argument("trace JSON: top level must be an object");
  }

  ServiceTrace trace;
  const JsonValue* sessions = nullptr;
  for (const auto& [key, value] : root.object) {
    if (key == "machine") {
      if (value.kind != JsonValue::Kind::kString) {
        return invalid_argument("trace JSON: machine must be a string");
      }
      if (value.string == "atlas") {
        trace.config.machine = machine::atlas();
      } else if (value.string == "bgl") {
        trace.config.machine = machine::bgl();
      } else if (value.string == "petascale") {
        trace.config.machine = machine::petascale();
      } else {
        return invalid_argument("trace JSON: unknown machine '" +
                                value.string + "'");
      }
    } else if (key == "policy") {
      if (value.kind != JsonValue::Kind::kString) {
        return invalid_argument("trace JSON: policy must be a string");
      }
      auto policy = parse_scheduler_policy(value.string);
      if (!policy.is_ok()) return policy.status();
      trace.config.policy = policy.value();
    } else if (key == "executor_threads") {
      if (value.kind != JsonValue::Kind::kNumber || value.number < 1.0 ||
          value.number > 256.0 || value.number != std::floor(value.number)) {
        return invalid_argument(
            "trace JSON: executor_threads must be an integer in 1..256");
      }
      trace.config.executor_threads = static_cast<std::uint32_t>(value.number);
    } else if (key == "comm_slot_capacity") {
      auto capacity = parse_positive_integer<std::uint64_t>(value, key);
      if (!capacity.is_ok()) return capacity.status();
      trace.config.comm_slot_capacity = capacity.value();
    } else if (key == "fe_connection_capacity") {
      auto capacity = parse_positive_integer<std::uint32_t>(value, key);
      if (!capacity.is_ok()) return capacity.status();
      trace.config.fe_connection_capacity = capacity.value();
    } else if (key == "sessions") {
      if (value.kind != JsonValue::Kind::kArray) {
        return invalid_argument("trace JSON: sessions must be an array");
      }
      sessions = &value;
    } else {
      return invalid_argument("trace JSON: unknown key '" + key + "'");
    }
  }
  if (sessions == nullptr || sessions->array.empty()) {
    return invalid_argument("trace JSON: needs a non-empty sessions array");
  }
  for (std::size_t i = 0; i < sessions->array.size(); ++i) {
    auto request =
        parse_session(sessions->array[i], trace.config.machine, i);
    if (!request.is_ok()) return request.status();
    trace.sessions.push_back(std::move(request).value());
  }
  return trace;
}

Result<ServiceTrace> load_service_trace(const std::string& path) {
  auto text = read_file(path);
  if (!text.is_ok()) return text.status();
  return parse_service_trace(text.value());
}

}  // namespace petastat::service
