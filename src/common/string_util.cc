#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cmath>

namespace scenerec {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         (text[begin] == ' ' || text[begin] == '\t' || text[begin] == '\r' ||
          text[begin] == '\n')) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         (text[end - 1] == ' ' || text[end - 1] == '\t' ||
          text[end - 1] == '\r' || text[end - 1] == '\n')) {
    --end;
  }
  return text.substr(begin, end - begin);
}

StatusOr<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer");
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: " + buffer);
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("not an integer: " + buffer);
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE && !std::isfinite(value)) {
    return Status::OutOfRange("number out of range: " + buffer);
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("not a number: " + buffer);
  }
  // strtod also reads "nan" and "inf", which no flag takes.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("not a finite number: " + buffer);
  }
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::string FormatFixed(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

std::string FormatWithCommas(int64_t value) {
  bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string result;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) result.push_back(',');
    result.push_back(*it);
    ++count;
  }
  if (negative) result.push_back('-');
  return std::string(result.rbegin(), result.rend());
}

}  // namespace scenerec
