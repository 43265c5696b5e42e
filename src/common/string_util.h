#ifndef ICROWD_COMMON_STRING_UTIL_H_
#define ICROWD_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace icrowd {

/// Checked number parsing for flags and other untrusted text: `text` must
/// be exactly one number — no surrounding whitespace, no trailing
/// characters, not empty — inside [min, max]. Anything else is
/// InvalidArgument naming the text, never an exception or a silent wrap.
Result<int64_t> ParseInt(
    std::string_view text,
    int64_t min = std::numeric_limits<int64_t>::min(),
    int64_t max = std::numeric_limits<int64_t>::max());

/// ParseInt for unsigned values; a leading '-' is refused, so "-1" fails
/// instead of wrapping to 2^64 - 1.
Result<uint64_t> ParseUint(
    std::string_view text,
    uint64_t max = std::numeric_limits<uint64_t>::max());

/// Finite decimal or scientific notation ("0.8", "1e-3"); "nan" and "inf"
/// are refused.
Result<double> ParseDouble(std::string_view text);

/// Splits `text` on `delim`, dropping empty pieces.
std::vector<std::string> SplitString(std::string_view text, char delim);

/// Joins `pieces` with `sep`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view text);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Fixed-precision double formatting ("0.873") for table output.
std::string FormatDouble(double value, int precision);

}  // namespace icrowd

#endif  // ICROWD_COMMON_STRING_UTIL_H_
