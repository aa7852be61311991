#include "src/types/physical.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

namespace tydi::types {

int lanes_for_throughput(double throughput) {
  if (throughput <= 1.0) return 1;
  return static_cast<int>(std::ceil(throughput));
}

namespace {

std::int64_t index_bits(int lanes) {
  if (lanes <= 1) return 0;
  return static_cast<std::int64_t>(
      std::ceil(std::log2(static_cast<double>(lanes))));
}

PhysicalStream build_stream(const StreamT& s, const std::string& name) {
  PhysicalStream p;
  p.name = name;
  p.element_bits = s.element->bit_width();
  p.lanes = lanes_for_throughput(s.params.throughput);
  p.dimension = s.params.dimension;
  p.complexity = s.params.complexity;
  p.direction = s.params.direction;

  const int c = p.complexity;
  const int d = p.dimension;
  const int n = p.lanes;
  p.data_bits = static_cast<std::int64_t>(n) * p.element_bits;
  p.last_bits = (c >= 8) ? static_cast<std::int64_t>(n) * d : d;
  p.stai_bits = (c >= 6 && n > 1) ? index_bits(n) : 0;
  p.endi_bits = ((c >= 5 || d >= 1) && n > 1) ? index_bits(n) : 0;
  p.strb_bits = (c >= 7 || d >= 1) ? n : 0;
  p.user_bits = s.params.user ? s.params.user->bit_width() : 0;
  return p;
}

/// Walks `type` collecting nested stream fields; `prefix` accumulates the
/// hierarchical name. Nested streams inside nested streams recurse.
void collect_nested(const LogicalType& type, const std::string& prefix,
                    std::vector<PhysicalStream>& out) {
  if (type.is_group()) {
    for (const Field& f : type.as_group().fields) {
      collect_nested(*f.type, prefix + "__" + f.name, out);
    }
    return;
  }
  if (type.is_union()) {
    for (const Field& f : type.as_union().fields) {
      collect_nested(*f.type, prefix + "__" + f.name, out);
    }
    return;
  }
  if (type.is_stream()) {
    const StreamT& s = type.as_stream();
    out.push_back(build_stream(s, prefix));
    collect_nested(*s.element, prefix, out);
  }
}

/// The primary stream of `s` named `port_name`, then its nested streams.
std::vector<PhysicalStream> streams_of(const StreamT& s,
                                       const std::string& port_name) {
  std::vector<PhysicalStream> out;
  out.push_back(build_stream(s, port_name));
  collect_nested(*s.element, port_name, out);
  return out;
}

}  // namespace

std::vector<PhysicalSignal> PhysicalStream::signals() const {
  std::vector<PhysicalSignal> sigs;
  sigs.push_back(PhysicalSignal{"valid", 1, false});
  sigs.push_back(PhysicalSignal{"ready", 1, true});
  auto add = [&sigs](const char* sig_name, std::int64_t width) {
    if (width > 0) sigs.push_back(PhysicalSignal{sig_name, width, false});
  };
  add("data", data_bits);
  add("last", last_bits);
  add("stai", stai_bits);
  add("endi", endi_bits);
  add("strb", strb_bits);
  add("user", user_bits);
  return sigs;
}

std::vector<PhysicalStream> physical_streams(const TypeRef& type,
                                             const std::string& port_name) {
  if (type == nullptr || !type->is_stream()) {
    throw std::invalid_argument(
        "physical_streams: port type must be a Stream (got " +
        std::string(type ? type->to_display() : "<null>") + ")");
  }
  return streams_of(type->as_stream(), port_name);
}

const TypeLowering& lowering_of(const LogicalType& type, bool* hit) {
  const TypeLowering* published =
      type.lowering_.load(std::memory_order_acquire);
  if (hit != nullptr) *hit = published != nullptr;
  if (published != nullptr) return *published;

  auto built = std::make_unique<TypeLowering>();
  built->display = type.to_display();
  if (type.is_stream()) {
    // Prefix "" gives each stream's suffix directly; consumers prepend
    // their own port identifiers.
    for (PhysicalStream& ps : streams_of(type.as_stream(), "")) {
      StreamLayout layout;
      layout.suffix = ps.name;
      layout.signals = ps.signals();
      layout.tails.reserve(layout.signals.size());
      for (const PhysicalSignal& sig : layout.signals) {
        layout.tails.push_back(layout.suffix + "_" + sig.name);
      }
      layout.stream = std::move(ps);
      built->layouts.push_back(std::move(layout));
    }
  }
  // First writer wins; a losing thread drops its copy and adopts the
  // published one (both were built from the same immutable type).
  if (type.lowering_.compare_exchange_strong(published, built.get(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    return *built.release();
  }
  return *published;
}

}  // namespace tydi::types
