#ifndef CHAMELEON_API_SPEC_GRAMMAR_H_
#define CHAMELEON_API_SPEC_GRAMMAR_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace chameleon {

// The one grammar behind index specs (index_spec.h) and workload specs
// (src/workload/workload_spec.h):
//
//   call   := name args?
//   args   := "(" [ arg ("," arg)* ] ")"
//   arg    := [ key "=" ] ( call | scalar )
//   name   := (alnum | "+" | "-" | "_")+    -- B+Tree, ycsb-a
//   scalar := any run of characters except "(" ")" "," "=" ":" and
//             whitespace, so paths like /tmp/a.b-c are plain scalars
//
// A value that is a name directly followed by "(" is a nested call.

/// A parse or build failure, with the offset of the offending character
/// in the spec text.
struct SpecError {
  std::string message;
  size_t pos = 0;

  /// One-line rendering: "index spec error at position <pos>: <message>".
  std::string Render() const;
};

struct SpecCall;

/// One argument of a call; `pos` is the offset of its first character
/// (its key, when keyed). Positional arguments have an empty key.
struct SpecArg {
  std::string key;
  std::string scalar;              // empty when the value is a call
  std::unique_ptr<SpecCall> call;  // null when the value is a scalar
  size_t pos = 0;
};

struct SpecCall {
  std::string name;
  std::vector<SpecArg> args;
  size_t pos = 0;
};

/// Parses one call starting at `*pos` in `text` and leaves `*pos` just
/// after it; the caller decides what may follow. `what` names the call
/// in the error when no name starts at `*pos`. Returns nullptr and
/// fills `*error` on a syntax error.
std::unique_ptr<SpecCall> ParseSpecCall(std::string_view text, size_t* pos,
                                        std::string_view what,
                                        SpecError* error);

// Every number in a spec is read by one reader: a finite decimal number
// with at most one suffix, "%" (divides by 100) or k/K, M, G (multiply
// by 1e3, 1e6, 1e9); NaN, infinity and hex are rejected. The typed
// readers take the scalar text, the offset an error points at and the
// name an error gives the value; they return false and fill `*error`.

/// Any finite number.
bool ReadSpecNumber(std::string_view text, size_t pos, std::string_view what,
                    double* out, SpecError* error);

/// A number in [0, 1].
bool ReadSpecFraction(std::string_view text, size_t pos,
                      std::string_view what, double* out, SpecError* error);

/// A whole number without a sign that fits size_t (exact up to 2^53).
bool ReadSpecCount(std::string_view text, size_t pos, std::string_view what,
                   size_t* out, SpecError* error);

/// ReadSpecCount that also rejects 0.
bool ReadSpecPositiveCount(std::string_view text, size_t pos,
                           std::string_view what, size_t* out,
                           SpecError* error);

}  // namespace chameleon

#endif  // CHAMELEON_API_SPEC_GRAMMAR_H_
