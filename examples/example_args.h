// The examples' one numeric argument, parsed strictly.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "net/parse.h"

namespace itm::examples {

// The seed in argv[1], or 42 when it is absent. A malformed or
// out-of-range seed exits 2 with a diagnostic before any work starts.
inline std::uint64_t seed_arg(int argc, char** argv) {
  if (argc <= 1) return 42;
  const auto seed = parse_u64(argv[1]);
  if (!seed) {
    std::cerr << "bad value '" << argv[1]
              << "' for seed (expected an integer from 0 to "
              << UINT64_MAX << ")\n";
    std::exit(2);
  }
  return *seed;
}

}  // namespace itm::examples
