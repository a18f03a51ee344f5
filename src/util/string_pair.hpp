// Keys made of two strings, searchable without building one.
#pragma once

#include <string>
#include <string_view>
#include <utility>

namespace npss::util {

using StringPair = std::pair<std::string, std::string>;

/// Orders string pairs by their contents. Transparent: a map or set keyed
/// by StringPair is searched with a pair of std::string_view (or any pair
/// of string-likes), so a lookup on a hot path builds no key strings.
struct StringPairLess {
  using is_transparent = void;

  template <typename A, typename B>
  bool operator()(const A& x, const B& y) const {
    return std::pair<std::string_view, std::string_view>(x.first, x.second) <
           std::pair<std::string_view, std::string_view>(y.first, y.second);
  }
};

}  // namespace npss::util
