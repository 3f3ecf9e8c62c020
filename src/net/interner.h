// Deduplicating, deterministic string table (interner).
//
// Table order is first-insertion order, and every producer interns in a
// deterministic (ASN-/record-sorted) sequence, so the table contents are a
// pure function of the data — the property the `.itms` snapshot's string
// section relies on for byte-identical exports across thread counts.
//
// The serve snapshot writer interns AS names (dense ASN order), country
// names and inferred operator names into one table, in that order; the
// table is the `.itms` snapshot's string section.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace itm::net {

class StringTable {
 public:
  // Returns the table index for `s`, inserting it on first sight.
  std::uint32_t intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const auto ref = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    index_.emplace(std::string(s), ref);
    return ref;
  }

  // Moves the table contents out (the snapshot writer's final step).
  [[nodiscard]] std::vector<std::string> take() {
    index_.clear();
    return std::move(strings_);
  }

 private:
  std::vector<std::string> strings_;
  // The index owns key copies (table entries may relocate as the vector
  // grows); std::map keeps lookup deterministic and heterogeneous.
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

}  // namespace itm::net
