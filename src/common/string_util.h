#ifndef SCENEREC_COMMON_STRING_UTIL_H_
#define SCENEREC_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"

namespace scenerec {

/// Splits `text` on `delimiter`, keeping empty fields. "a,,b" -> {a, "", b}.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Parses a base-10 signed integer; the whole string must be consumed.
StatusOr<int64_t> ParseInt64(std::string_view text);

/// Parses a finite floating point value; the whole string must be consumed.
StatusOr<double> ParseDouble(std::string_view text);

/// True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders `value` with `digits` digits after the decimal point, e.g. for
/// metric tables ("0.4298").
std::string FormatFixed(double value, int digits);

/// Groups thousands for readability: 3002806 -> "3,002,806".
std::string FormatWithCommas(int64_t value);

}  // namespace scenerec

#endif  // SCENEREC_COMMON_STRING_UTIL_H_
