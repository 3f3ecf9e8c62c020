// Compiling a built TrafficMap into a `.itms` snapshot and serializing it.
//
// compile_snapshot is the only place the serving layer touches builder
// types: it flattens the map (plus the AS/country slices of the public
// topology it references) into the sorted record vectors of serve::Snapshot.
// Everything downstream — writer, reader, QueryEngine — speaks only the
// snapshot model. Compilation is deterministic: unordered containers are
// drained through sorted snapshots, so a byte-identical map yields a
// byte-identical snapshot at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/format.h"
#include "serve/snapshot.h"

namespace itm::serve {

// Lays out a canonical `.itms` file in one buffer. The caller appends each
// section's payload to out() in ascending id order and closes it; finish()
// then fills in the header and section table reserved in front of the
// payloads and hashes the tail once. The writer and the delta applier both
// frame snapshots through it.
class SnapshotFrame {
 public:
  // Reserves the frame plus `payload_bytes` (an upper bound will do).
  explicit SnapshotFrame(std::size_t payload_bytes);

  [[nodiscard]] ByteWriter& out() { return out_; }
  // Ends section `id`: its payload is everything appended since the
  // previous close.
  void close(SectionId id);
  // The finished file, `seed` first in its tail.
  [[nodiscard]] std::string finish(std::uint64_t seed) &&;

 private:
  ByteWriter out_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ends_;  // (id, end)
};

// Flattens map + topology slices into the snapshot record model.
[[nodiscard]] Snapshot compile_snapshot(const core::TrafficMap& map,
                                        const core::Scenario& scenario);

// The snapshot in the canonical `.itms` layout (see format.h), encoded
// into one buffer sized up front. The same snapshot always produces the
// same bytes.
[[nodiscard]] std::string snapshot_bytes(const Snapshot& snapshot);

// Writes snapshot_bytes(snapshot) to `os`.
void write_snapshot(const Snapshot& snapshot, std::ostream& os);

// Convenience: compile + serialize in one call.
void write_snapshot(const core::TrafficMap& map,
                    const core::Scenario& scenario, std::ostream& os);

}  // namespace itm::serve
