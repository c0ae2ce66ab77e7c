#include "util/text_codec.h"

#include <cstdlib>
#include <sstream>

#include "util/stringf.h"

namespace crowdprice {

std::string Hex(double v) { return StringF("%a", v); }

Result<double> ParseDouble(const std::string& token, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StringF("%s: bad number '%s'", what, token.c_str()));
  }
  return v;
}

Result<long> ParseInt(const std::string& token, const char* what) {
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StringF("%s: bad integer '%s'", what, token.c_str()));
  }
  return v;
}

Result<std::vector<std::string>> Tokens(const std::string& line,
                                        size_t expected, const char* what) {
  std::istringstream ss(line);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(token);
  if (tokens.size() != expected) {
    return Status::InvalidArgument(StringF("%s: expected %zu fields, found %zu",
                                           what, expected, tokens.size()));
  }
  return tokens;
}

}  // namespace crowdprice
