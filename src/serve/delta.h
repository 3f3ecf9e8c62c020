// The `.itmsd` delta-snapshot wire format (DESIGN.md decision #13).
//
// A delta carries one epoch step of the map: the per-section changes that
// turn a *base* `.itms` snapshot into a *target* one. Both endpoints are
// named by their header checksums, so a delta can only be applied to the
// exact snapshot it was computed against. The applier splices the result
// from the base's bytes: record runs and sections no op touches are copied
// verbatim, op payloads are copied in as they travel (they are already in
// the `.itms` wire layout), and the frame is rebuilt and hashed once. It
// proves success by comparing that hash against the target checksum — the
// applied result is byte-identical to the fresh full target snapshot,
// always.
//
// Layout (little-endian throughout, mirroring `.itms`):
//
//   magic      8 bytes  "ITMSDLT1"
//   version    u32      kDeltaVersion
//   endian     u32      kEndianMarker
//   checksum   u64      FNV-1a 64 over every byte after this field
//   tail:
//     base_checksum    u64   header checksum of the required base snapshot
//     target_checksum  u64   header checksum of the produced target
//     seed             u64   target scenario seed
//     addresses_probed u64   target meta scalars (replaced wholesale)
//     observed_links   u64
//     strings          u8 flag; if 1: count u32 + {len u32, bytes} table
//                      (full replacement — records reference by index, so
//                      the table is order-sensitive)
//     countries        keyed ops, key = country id
//     ases             keyed ops, key = asn
//     prefixes         keyed ops, key = (base, length)
//     endpoints        keyed ops, key = address
//     mappings         keyed ops, key = service id (add/replace carry the
//                      whole entry list — a service's mapping swaps as a
//                      unit, matching how sweeps are produced)
//     links            u8 flag; if 1: count u32 + records (full
//                      replacement — recommender order is meaningful)
//
// Keyed ops are `count u32` then records of {op u8, key, payload}: op 1 =
// add (key must be absent in base), 2 = remove (must be present), 3 =
// replace (must be present); keys strictly ascending. Add and replace
// payloads are the whole record (for mappings, the whole service mapping)
// in its `.itms` encoding, key included; a remove carries only the key.
// The applier rejects any deviation, then rejects any result whose
// checksum is not exactly `target_checksum` — corruption the op checks
// miss cannot survive the final comparison.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace itm::serve {

struct SnapshotView;

inline constexpr std::array<char, 8> kDeltaMagic = {'I', 'T', 'M', 'S',
                                                    'D', 'L', 'T', '1'};
inline constexpr std::uint32_t kDeltaVersion = 1;

// Header facts of a validated delta, plus op totals for observability.
struct DeltaInfo {
  std::uint64_t base_checksum = 0;
  std::uint64_t target_checksum = 0;
  std::uint64_t target_seed = 0;
  // Keyed op totals across all sections, plus the two wholesale flags.
  std::uint64_t ops = 0;
  bool replaces_strings = false;
  bool replaces_links = false;
};

// Computes the `.itmsd` delta turning `base_bytes` into `target_bytes`
// (both validated full snapshots). apply_delta(base, result) returns bytes
// equal to `target_bytes`. Returns nullopt and sets `error` when either
// input fails snapshot validation.
[[nodiscard]] std::optional<std::string> diff_snapshots(
    std::string_view base_bytes, std::string_view target_bytes,
    std::string* error);

// Validates `delta_bytes` against `base_bytes` and produces the full
// target snapshot bytes: borrow_snapshot of the base, then the overload
// below. Strict: an invalid base, wrong base, malformed or misordered ops,
// or a result that does not checksum to the delta's target all fail.
[[nodiscard]] std::optional<std::string> apply_delta(
    std::string_view base_bytes, std::string_view delta_bytes,
    std::string* error);

// The same apply over a base that is already validated: `base` must be
// borrow_snapshot's view of `base_bytes`, as a serving epoch holds. The
// base is not checked again; the delta and the result are, as above.
[[nodiscard]] std::optional<std::string> apply_delta(
    const SnapshotView& base, std::string_view base_bytes,
    std::string_view delta_bytes, std::string* error);

// Validates the delta container (magic/version/endian/checksum and op
// structure) without a base snapshot; returns its header facts.
[[nodiscard]] std::optional<DeltaInfo> read_delta_info(
    std::string_view delta_bytes, std::string* error);

}  // namespace itm::serve
