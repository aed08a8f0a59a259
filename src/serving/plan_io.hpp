// plan_io.hpp — version-stamped binary persistence for GraphPlan, the
// cold-start half of the serving layer.
//
// A plan file carries the adjacency CSR and the pinned Δ, nothing else.
// Everything a server derives from them — the PlanStats scalars, the
// light/heavy split at Δ, the fingerprint — is rebuilt on load or on first
// use: redoing the split costs less than reading a second copy of every
// edge, and a derived value cannot be forged.
//
// File layout, format v2 (scalars in the writing host's byte order; the
// header carries an endianness marker so a foreign-endian reader rejects
// cleanly instead of decoding garbage):
//
//   [ 64-byte header, 8-byte aligned ]
//     magic "DSGPLAN\n", format version, endian marker 0x01020304,
//     index/value widths (64/64), |V|, |E|, Δ, delta_was_auto, and a
//     WordHash checksum (sssp/word_hash.hpp) over the header with the
//     checksum field zeroed, then the whole payload.
//   [ payload: three 8-byte-aligned arrays, no padding between them ]
//     row_ptr (|V|+1), col_ind (|E|), val (|E|).
//
// Loading runs these checks, in order, and rejects with a grb::InvalidValue
// naming the failing one (see tests/test_plan_io.cpp):
//   1. header fields, then overflow-checked size arithmetic and the exact
//      file-size check — both before any allocation, so a forged header
//      can neither wrap the size computation nor commit memory the file
//      cannot back;
//   2. the checksum, which screens accidental corruption (every single-bit
//      flip is caught) but is not a validity proof: it is forgeable;
//   3. a copy of the three arrays into the plan's matrix;
//   4. the plan's own construction scan, which rejects non-finite or
//      negative weights and derives PlanStats (an auto Δ must then equal
//      the stored one);
//   5. the full CSR audit (monotone offsets, in-range ascending columns).
// Load is O(bytes + |V| + |E|); the fuzz harness in fuzz/ drives it with
// arbitrary data.
#pragma once

#include <cstdint>
#include <string>

#include "sssp/plan.hpp"

namespace dsg::serving {

/// On-disk format version.  Bump on ANY layout change (readers reject
/// every other version) and regenerate tests/data/diamond.plan and the
/// fuzz corpora (scripts/gen_fuzz_corpus.py).
inline constexpr std::uint32_t kPlanFormatVersion = 2;

/// Fixed header size in bytes, and the offset of the 8-byte checksum field
/// inside it (kept in sync with the PlanFileHeader layout in plan_io.cpp by
/// static_asserts there).
inline constexpr std::size_t kPlanHeaderBytes = 64;
inline constexpr std::size_t kPlanChecksumOffset = 56;

/// The saver/loader behind GraphPlan::save / GraphPlan::load.
class PlanIo {
 public:
  static void save(const GraphPlan& plan, const std::string& path);
  static GraphPlan load(const std::string& path);

  /// The same parse over an in-memory byte range (the file contents).
  /// `origin` names the source in rejection messages.  This is the entry
  /// point the fuzz harness drives: for ANY (data, size) it either
  /// returns a fully validated plan or throws grb::InvalidValue — never
  /// crashes, never over-allocates past what `size` can back.
  static GraphPlan load_bytes(const unsigned char* data, std::size_t size,
                              const std::string& origin);

  /// The checksum a well-formed file image of these bytes must carry
  /// (WordHash over the header with its checksum field zeroed, then the
  /// rest).  Exposed for tests and the structure-aware fuzz mutator,
  /// which re-stamp the field after editing header/payload bytes so
  /// mutations reach the validators behind the checksum gate.  Requires
  /// size >= kPlanHeaderBytes.
  static std::uint64_t file_checksum(const unsigned char* data,
                                     std::size_t size);
};

}  // namespace dsg::serving
