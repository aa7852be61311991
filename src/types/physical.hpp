// Physical stream computation — maps a logical Stream to the hardware
// signals of the Tydi-spec physical stream protocol.
//
// For Stream(elem, t, d, c) with N = ceil(t) lanes and D = d dimensions the
// physical stream carries (in addition to valid/ready):
//   data : N * |elem|                      element lanes
//   last : D bits (C < 8) or N * D (C = 8) end-of-sequence markers
//   stai : ceil(log2 N) if C >= 6 and N > 1   start index
//   endi : ceil(log2 N) if (C >= 5 or D >= 1) and N > 1   end index
//   strb : N bits if C >= 7 or D >= 1      per-lane strobe
//   user : |user|                          side-band, not element-synchronous
//
// Nested Streams inside the element do not travel in the parent's data lanes;
// they are split off as *secondary* physical streams (Tydi-spec
// "streamspace"), one per nested stream field, named parent__field.
//
// A port's lowering — its physical streams, their `<suffix>_<signal>` net
// name tails and the type's display form — depends on the logical type
// alone, so it is computed once per type (`lowering_of`) and every port,
// compile and backend of that type reads the same object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/types/logical_type.hpp"

namespace tydi::types {

/// One hardware signal of a physical stream.
struct PhysicalSignal {
  std::string name;        ///< "valid", "ready", "data", "last", ...
  std::int64_t width = 1;  ///< in bits; width 0 signals are omitted
  bool reverse = false;    ///< true for ready (flows sink -> source)
};

/// The signal bundle of one physical stream.
struct PhysicalStream {
  /// Hierarchical name: the port name, or port__field for split-off nested
  /// streams.
  std::string name;
  std::int64_t element_bits = 0;
  int lanes = 1;
  int dimension = 0;
  int complexity = 1;
  std::int64_t data_bits = 0;
  std::int64_t last_bits = 0;
  std::int64_t stai_bits = 0;
  std::int64_t endi_bits = 0;
  std::int64_t strb_bits = 0;
  std::int64_t user_bits = 0;
  StreamDir direction = StreamDir::kForward;

  /// All payload bits that travel source->sink (excludes valid/ready).
  [[nodiscard]] std::int64_t payload_bits() const {
    return data_bits + last_bits + stai_bits + endi_bits + strb_bits +
           user_bits;
  }

  /// The signal list for HDL emission, in canonical order: valid, ready,
  /// data, last, stai, endi, strb, user. Zero-width signals are omitted.
  [[nodiscard]] std::vector<PhysicalSignal> signals() const;
};

/// Computes the physical stream(s) for a port of logical type `type`, which
/// must be a Stream. The first entry is the primary stream named
/// `port_name`; nested Stream fields follow as `port_name__field...`.
/// Throws std::invalid_argument if `type` is not a Stream.
[[nodiscard]] std::vector<PhysicalStream> physical_streams(
    const TypeRef& type, const std::string& port_name);

/// Number of lanes for a throughput: N = ceil(t), minimum 1.
[[nodiscard]] int lanes_for_throughput(double throughput);

/// One physical stream of a type, relative to the port that carries it.
/// `suffix` is "" for the primary stream and "__field..." for split-off
/// nested streams; `tails[k]` is `suffix + "_" + signals[k].name`, so a
/// net name is `<port identifier><tail>` without per-port string building.
struct StreamLayout {
  std::string suffix;
  PhysicalStream stream;                ///< stream.name == suffix
  std::vector<PhysicalSignal> signals;  ///< canonical order
  std::vector<std::string> tails;       ///< parallel to `signals`
};

/// Everything lowering derives from a logical type.
struct TypeLowering {
  /// `physical_streams(type, "")` with signals and tails; empty for
  /// non-stream types.
  std::vector<StreamLayout> layouts;
  std::string display;  ///< `to_display()`
};

/// The lowering of `type`, built on first use and cached on the type for
/// its lifetime. Thread-safe and lock-free: racing first callers each build
/// a copy, one compare-and-swap publishes the winner, and every caller gets
/// the same object. `hit` (optional) receives whether the lowering already
/// existed when the call started.
[[nodiscard]] const TypeLowering& lowering_of(const LogicalType& type,
                                              bool* hit = nullptr);

}  // namespace tydi::types
