#include "src/api/spec_grammar.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

namespace chameleon {
namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '+' ||
         c == '-' || c == '_';
}

/// Scalars stop at the grammar's structural characters; '%', '.', '/'
/// and unit suffixes ride along with the token they belong to.
bool IsScalarChar(char c) {
  return c != '(' && c != ')' && c != ',' && c != '=' && c != ':' &&
         !std::isspace(static_cast<unsigned char>(c));
}

bool Fail(SpecError* error, size_t at, std::string message) {
  error->pos = at;
  error->message = std::move(message);
  return false;
}

/// Recursive-descent parser over the grammar in spec_grammar.h. `pos`
/// always points at the next unconsumed character; every failure
/// records the offset it happened at.
struct Parser {
  std::string_view text;
  size_t pos = 0;
  SpecError* error;

  std::unique_ptr<SpecCall> ParseCall(std::string_view what) {
    const size_t start = pos;
    while (pos < text.size() && IsNameChar(text[pos])) ++pos;
    if (pos == start) {
      Fail(error, pos,
           pos >= text.size() ? "expected " + std::string(what)
                              : std::string("unexpected character '") +
                                    text[pos] + "' where a name should start");
      return nullptr;
    }
    auto call = std::make_unique<SpecCall>();
    call->pos = start;
    call->name = std::string(text.substr(start, pos - start));
    if (pos < text.size() && text[pos] == '(' && !ParseArgs(call.get())) {
      return nullptr;
    }
    return call;
  }

  bool ParseArgs(SpecCall* call) {
    ++pos;  // consume '('
    if (pos < text.size() && text[pos] == ')') {
      ++pos;  // empty argument list: "read()"
      return true;
    }
    while (true) {
      SpecArg arg;
      arg.pos = pos;
      if (!ParseValue(&arg)) return false;
      if (pos < text.size() && text[pos] == '=') {
        if (arg.scalar.empty() || arg.call != nullptr) {
          return Fail(error, arg.pos, "expected an option key before '='");
        }
        arg.key = std::move(arg.scalar);
        arg.scalar.clear();
        const size_t value_pos = ++pos;
        if (!ParseValue(&arg)) return false;
        if (arg.scalar.empty() && arg.call == nullptr) {
          return Fail(error, value_pos,
                      "missing value for option '" + arg.key + "'");
        }
      } else if (arg.scalar.empty() && arg.call == nullptr) {
        return Fail(error, pos,
                    pos < text.size()
                        ? std::string("unexpected character '") + text[pos] +
                              "' in argument list"
                        : std::string("unclosed '(' in argument list"));
      }
      call->args.push_back(std::move(arg));
      if (pos >= text.size()) {
        return Fail(error, pos, "unclosed '(' in argument list");
      }
      if (text[pos] == ')') {
        ++pos;
        return true;
      }
      if (text[pos] != ',') {
        return Fail(error, pos,
                    std::string("expected ',' or ')' in argument list, got '") +
                        text[pos] + "'");
      }
      ++pos;
    }
  }

  /// A value is a nested call (a name followed by '(') or a scalar
  /// token. A bare name ("uniform") parses as a scalar; the caller
  /// decides what it means.
  bool ParseValue(SpecArg* arg) {
    const size_t start = pos;
    while (pos < text.size() && IsNameChar(text[pos])) ++pos;
    const bool is_call = pos > start && pos < text.size() && text[pos] == '(';
    pos = start;
    if (is_call) {
      arg->call = ParseCall("a name");
      return arg->call != nullptr;
    }
    while (pos < text.size() && IsScalarChar(text[pos])) ++pos;
    arg->scalar = std::string(text.substr(start, pos - start));
    return true;
  }
};

/// The one number reader (grammar in spec_grammar.h).
bool ParseNumber(std::string_view text, double* out) {
  char suffix = '\0';
  if (!text.empty()) {
    switch (text.back()) {
      case '%': case 'k': case 'K': case 'M': case 'G':
        suffix = text.back();
        text.remove_suffix(1);
        break;
      default:
        break;
    }
  }
  // Only decimal notation: this also keeps strtod away from "nan",
  // "inf" and "0x..." spellings.
  if (text.empty() ||
      text.find_first_not_of("0123456789.eE+-") != std::string_view::npos) {
    return false;
  }
  const std::string body(text);  // strtod needs a terminator
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size() || errno != 0) return false;
  switch (suffix) {
    case '%': v /= 100.0; break;
    case 'k': case 'K': v *= 1e3; break;
    case 'M': v *= 1e6; break;
    case 'G': v *= 1e9; break;
    default: break;
  }
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

std::string SpecError::Render() const {
  return "index spec error at position " + std::to_string(pos) + ": " +
         message;
}

std::unique_ptr<SpecCall> ParseSpecCall(std::string_view text, size_t* pos,
                                        std::string_view what,
                                        SpecError* error) {
  Parser parser{text, *pos, error};
  std::unique_ptr<SpecCall> call = parser.ParseCall(what);
  *pos = parser.pos;
  return call;
}

bool ReadSpecNumber(std::string_view text, size_t pos, std::string_view what,
                    double* out, SpecError* error) {
  if (ParseNumber(text, out)) return true;
  return Fail(error, pos,
              text.empty() ? "expected a number for " + std::string(what)
                           : "bad number \"" + std::string(text) + "\" for " +
                                 std::string(what));
}

bool ReadSpecFraction(std::string_view text, size_t pos,
                      std::string_view what, double* out, SpecError* error) {
  if (!ReadSpecNumber(text, pos, what, out, error)) return false;
  if (*out < 0.0 || *out > 1.0) {
    return Fail(error, pos, std::string(what) + " must be in [0, 1]");
  }
  return true;
}

bool ReadSpecCount(std::string_view text, size_t pos, std::string_view what,
                   size_t* out, SpecError* error) {
  double v = 0.0;
  if (!ReadSpecNumber(text, pos, what, &v, error)) return false;
  // 2^digits is exact as a double; anything at or above it does not fit.
  if (text.front() == '+' || text.front() == '-' || v != std::floor(v) ||
      v >= std::ldexp(1.0, std::numeric_limits<size_t>::digits)) {
    return Fail(error, pos,
                std::string(what) + " must be a whole number without a sign "
                                    "below 2^64, got \"" +
                    std::string(text) + "\"");
  }
  *out = static_cast<size_t>(v);
  return true;
}

bool ReadSpecPositiveCount(std::string_view text, size_t pos,
                           std::string_view what, size_t* out,
                           SpecError* error) {
  if (!ReadSpecCount(text, pos, what, out, error)) return false;
  if (*out == 0) return Fail(error, pos, std::string(what) + " must be > 0");
  return true;
}

}  // namespace chameleon
