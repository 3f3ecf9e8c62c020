// Validating reader for `.itms` snapshots.
//
// The reader trusts nothing: magic/version/endianness, the whole-tail
// checksum, section-table bounds, canonical section order and packing,
// string references, record sort invariants and exact payload consumption
// are all checked before anything is returned. A snapshot that loads is
// therefore safe to binary-search and will re-serialize byte-identically.
//
// Two load modes share one validation pass:
//   * borrow_snapshot — zero-copy: returns a SnapshotView whose section
//     views point into `bytes` (which must outlive the view). Every serving
//     path uses it: the mmap epochs, the delta-applied epochs, `itm
//     snapshot`'s self-check, the benches and the engine tests.
//   * read_snapshot — owning: copies the validated view into a Snapshot
//     (plain vectors), the form tests and benches edit to make new maps.
//
// Records decode through the one codec per record in view.h, so the
// validator checks exactly the layout the writer emits: each record-table
// section's size once (4 + count x kBytes, in 64 bits), then the record
// invariants over the decoded span.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "serve/snapshot.h"
#include "serve/view.h"

namespace itm::serve {

// Validates `bytes` as a canonical snapshot and returns section views that
// alias it — no record or string is copied. Returns nullopt and sets
// `error` (when non-null) to a one-line diagnostic on any violation.
[[nodiscard]] std::optional<SnapshotView> borrow_snapshot(
    std::string_view bytes, std::string* error);

// Parses and validates a snapshot from raw bytes into owned storage.
[[nodiscard]] std::optional<Snapshot> read_snapshot(std::string_view bytes,
                                                    std::string* error);

// The header checksum field of a canonical snapshot byte blob — the epoch
// identity the delta format keys on. Assumes `bytes` already validated.
[[nodiscard]] std::uint64_t snapshot_checksum(std::string_view bytes);

// The raw payload of section `id` of a canonical snapshot byte blob — what
// the delta copies verbatim. Assumes `bytes` already validated.
[[nodiscard]] std::string_view section_payload(std::string_view bytes,
                                               SectionId id);

}  // namespace itm::serve
