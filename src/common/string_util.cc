#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace icrowd {

namespace {

/// InvalidArgument "'<text>' <why>". Built by appending: GCC 12's
/// -Wrestrict misfires on `"'" + std::string(...)` in optimized builds.
Status Rejected(std::string_view text, std::string_view why) {
  std::string message = "'";
  message.append(text).append("' ").append(why);
  return Status::InvalidArgument(std::move(message));
}

/// Parses all of `text` as one T; `what` names the expected form.
template <typename T>
Result<T> ParseWhole(std::string_view text, std::string_view what) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    return Rejected(text, std::string("is not ").append(what));
  }
  if (ec == std::errc::result_out_of_range) {
    return Rejected(text, "is out of range");
  }
  return value;
}

}  // namespace

Result<int64_t> ParseInt(std::string_view text, int64_t min, int64_t max) {
  ICROWD_ASSIGN_OR_RETURN(int64_t value,
                          ParseWhole<int64_t>(text, "an integer"));
  if (value < min || value > max) {
    return Rejected(text, "is outside [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]");
  }
  return value;
}

Result<uint64_t> ParseUint(std::string_view text, uint64_t max) {
  ICROWD_ASSIGN_OR_RETURN(
      uint64_t value, ParseWhole<uint64_t>(text, "a non-negative integer"));
  if (value > max) {
    return Rejected(text, "is outside [0, " + std::to_string(max) + "]");
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  ICROWD_ASSIGN_OR_RETURN(double value, ParseWhole<double>(text, "a number"));
  if (!std::isfinite(value)) return Rejected(text, "is not a finite number");
  return value;
}

std::vector<std::string> SplitString(std::string_view text, char delim) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(delim, start);
    if (end == std::string_view::npos) end = text.size();
    if (end > start) pieces.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace icrowd
