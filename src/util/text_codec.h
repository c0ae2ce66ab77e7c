// Field-level helpers shared by the text codecs (plans, artifacts, wire
// frames): lossless hex-float doubles and strict token parsing.

#ifndef CROWDPRICE_UTIL_TEXT_CODEC_H_
#define CROWDPRICE_UTIL_TEXT_CODEC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/result.h"

namespace crowdprice {

/// Hex-float text ("%a") of v; parses back to the identical double.
std::string Hex(double v);

/// The whole token as a double (hex-float or decimal). InvalidArgument
/// "<what>: bad number '<token>'" otherwise.
Result<double> ParseDouble(const std::string& token, const char* what);

/// The whole token as a base-10 integer. InvalidArgument
/// "<what>: bad integer '<token>'" otherwise.
Result<long> ParseInt(const std::string& token, const char* what);

/// The whitespace-separated tokens of `line`. InvalidArgument
/// "<what>: expected <n> fields, found <m>" unless there are exactly
/// `expected`.
Result<std::vector<std::string>> Tokens(const std::string& line,
                                        size_t expected, const char* what);

}  // namespace crowdprice

#endif  // CROWDPRICE_UTIL_TEXT_CODEC_H_
