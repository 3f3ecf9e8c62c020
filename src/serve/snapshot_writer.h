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

#include <ostream>
#include <string>

#include "core/scenario.h"
#include "core/traffic_map.h"
#include "serve/snapshot.h"

namespace itm::serve {

// Flattens map + topology slices into the snapshot record model.
[[nodiscard]] Snapshot compile_snapshot(const core::TrafficMap& map,
                                        const core::Scenario& scenario);

// The snapshot in the canonical `.itms` layout (see format.h), encoded
// into buffers sized up front: a delta apply serializes a whole snapshot
// per swap, and growing buffers leave the resident server's heap
// fragmented. The same snapshot always produces the same bytes.
[[nodiscard]] std::string snapshot_bytes(const Snapshot& snapshot);

// Writes snapshot_bytes(snapshot) to `os`.
void write_snapshot(const Snapshot& snapshot, std::ostream& os);

// Convenience: compile + serialize in one call.
void write_snapshot(const core::TrafficMap& map,
                    const core::Scenario& scenario, std::ostream& os);

}  // namespace itm::serve
