#include "src/vhdl/vhdl.hpp"

#include <unordered_map>

#include "src/obs/metrics.hpp"
#include "src/support/text.hpp"
#include "src/vhdl/rtl_lib.hpp"

namespace tydi::vhdl {

using ir::Index;
using ir::IrConnection;
using ir::IrEndpoint;
using ir::IrImpl;
using ir::IrInstance;
using ir::IrPort;
using ir::IrStreamlet;
using ir::kNoIndex;
using ir::Module;
using ir::StreamLayout;
using support::CodeWriter;
using types::PhysicalSignal;

std::string vhdl_name(std::string_view name) {
  return support::sanitize_identifier(name);
}

namespace {

/// True when a physical signal is an input of the entity: forward signals
/// follow the port direction, ready runs opposite; Reverse streams flip.
bool is_input(const IrPort& p, const StreamLayout& layout,
              const PhysicalSignal& sig) {
  bool forward_is_in = (p.dir == lang::PortDir::kIn);
  if (layout.stream.direction == lang::StreamDir::kReverse) {
    forward_is_in = !forward_is_in;
  }
  return sig.reverse ? !forward_is_in : forward_is_in;
}

/// Physical nets of a streamlet: one per (port, layout, signal). A net's
/// name is `<port identifier><layout.tails[k]>`.
std::size_t net_count(const IrStreamlet& s) {
  std::size_t n = 0;
  for (const IrPort& p : s.ports) {
    for (const StreamLayout& layout : p.layouts) n += layout.signals.size();
  }
  return n;
}

/// Per-module emission cache: sanitized impl names, rendered component
/// declarations and the VHDL type of each signal width are built at most
/// once per module and written through the rope writer as `string_view`
/// pieces. Net names need no cache: each port's `<suffix>_<signal>` tails
/// come with its type's lowering.
class EmitCache {
 public:
  explicit EmitCache(const Module& m) : m_(m), impl_names_(m.impls.size()) {}

  /// Sanitized entity name of an impl, computed once per module.
  const std::string& impl_name(Index impl) {
    std::string& name = impl_names_[impl];
    if (name.empty()) name = vhdl_name(m_.impls[impl].name);
    return name;
  }

  /// The spellings of one signal's VHDL type: `std_logic` for 1-bit
  /// valid/ready, `std_logic_vector(N-1 downto 0)` otherwise.
  struct TypeText {
    std::string decl;     ///< " : <type>;" (signal declarations)
    std::string in, out;  ///< " : in <type>" / " : out <type>" (port lines)
  };

  const TypeText& type_text(const PhysicalSignal& sig) {
    if (sig.name == "valid" || sig.name == "ready") return std_logic_;
    auto [it, inserted] = vectors_.try_emplace(sig.width);
    if (inserted) {
      it->second = make_type_text("std_logic_vector(" +
                                  std::to_string(sig.width - 1) +
                                  " downto 0)");
    }
    return it->second;
  }

  /// Fully rendered component declaration of an impl (depth 1 — component
  /// declarations only ever appear in an architecture's declarative part).
  /// Children recur across parent impls, so the block renders once per
  /// module and later mentions are a single chunk-level write().
  const std::string& component_decl(Index impl) {
    if (component_decls_.empty()) component_decls_.resize(m_.impls.size());
    std::string& text = component_decls_[impl];
    if (text.empty()) {
      CodeWriter w("  ", 1);
      w.open("component ", impl_name(impl), " is");
      emit_ports(w, m_.streamlets[m_.impls[impl].streamlet]);
      w.close("end component;");
      text = w.take();
    }
    return text;
  }

  /// The `port (...);` block of an entity or component declaration.
  void emit_ports(CodeWriter& w, const IrStreamlet& s) {
    w.open("port (");
    w.line("clk : in std_logic;");
    w.line("rst : in std_logic;");
    std::size_t remaining = net_count(s);
    for (const IrPort& p : s.ports) {
      for (const StreamLayout& layout : p.layouts) {
        for (std::size_t k = 0; k < layout.signals.size(); ++k) {
          const PhysicalSignal& sig = layout.signals[k];
          const TypeText& type = type_text(sig);
          w.line(p.vhdl, layout.tails[k],
                 is_input(p, layout, sig) ? type.in : type.out,
                 --remaining > 0 ? ";" : "");
        }
      }
    }
    w.close(");");
  }

 private:
  static TypeText make_type_text(const std::string& type) {
    return TypeText{" : " + type + ";", " : in " + type, " : out " + type};
  }

  const Module& m_;
  std::vector<std::string> impl_names_;
  std::vector<std::string> component_decls_;
  TypeText std_logic_ = make_type_text("std_logic");
  std::unordered_map<std::int64_t, TypeText> vectors_;  ///< by width
};

/// Emits `entity <name> is port (...); end <name>;`.
void emit_entity(CodeWriter& w, std::string_view name, const IrStreamlet& s,
                 EmitCache& cache) {
  w.open("entity ", name, " is");
  cache.emit_ports(w, s);
  w.close("end entity ", name, ";");
}

class ArchitectureEmitter {
 public:
  ArchitectureEmitter(CodeWriter& w, const Module& module, Index impl_index,
                      EmitCache& cache, support::DiagnosticEngine& diags)
      : w_(w),
        module_(module),
        impl_(module.impls[impl_index]),
        impl_index_(impl_index),
        cache_(cache),
        diags_(diags) {}

  void emit_structural() {
    w_.open("architecture structural of ", cache_.impl_name(impl_index_),
            " is");
    emit_component_decls();
    emit_signal_decls();
    w_.dedent();
    w_.open("begin");
    emit_instantiations();
    emit_connection_wiring();
    w_.close("end architecture structural;");
  }

 private:
  CodeWriter& w_;
  const Module& module_;
  const IrImpl& impl_;
  Index impl_index_;
  EmitCache& cache_;
  support::DiagnosticEngine& diags_;

  /// Streamlet table index of an instance's child impl, or kNoIndex.
  [[nodiscard]] Index child_streamlet_index(const IrInstance& inst) const {
    if (inst.impl == kNoIndex) return kNoIndex;
    return module_.impls[inst.impl].streamlet;
  }

  void emit_component_decls() {
    // One declaration per distinct child implementation, first-seen order
    // (flat per-impl bitmap, not a string-keyed map).
    std::vector<bool> declared(module_.impls.size(), false);
    for (const IrInstance& inst : impl_.instances) {
      Index cs = child_streamlet_index(inst);
      if (cs == kNoIndex || declared[inst.impl]) continue;
      declared[inst.impl] = true;
      w_.write(cache_.component_decl(inst.impl));
    }
  }

  void emit_signal_decls() {
    // One signal bundle per instance port; entity ports are used directly.
    // The bundle prefix `sig_<inst>_<port>` is written as view pieces — no
    // per-port prefix strings are built.
    for (const IrInstance& inst : impl_.instances) {
      Index cs = child_streamlet_index(inst);
      if (cs == kNoIndex) {
        diags_.warning("vhdl",
                       "instance '" + inst.name +
                           "' has unresolved impl; skipped in VHDL",
                       inst.loc);
        continue;
      }
      for (const IrPort& p : module_.streamlets[cs].ports) {
        for (const StreamLayout& layout : p.layouts) {
          for (std::size_t k = 0; k < layout.signals.size(); ++k) {
            w_.line("signal sig_", inst.vhdl, "_", p.vhdl, layout.tails[k],
                    cache_.type_text(layout.signals[k]).decl);
          }
        }
      }
    }
  }

  void emit_instantiations() {
    for (const IrInstance& inst : impl_.instances) {
      Index cs = child_streamlet_index(inst);
      if (cs == kNoIndex) continue;
      const IrStreamlet& child = module_.streamlets[cs];
      std::size_t remaining = net_count(child);
      w_.open("u_", inst.vhdl, " : ", cache_.impl_name(inst.impl));
      w_.open("port map (");
      w_.line("clk => clk,");
      w_.line("rst => rst", remaining > 0 ? "," : "");
      for (const IrPort& p : child.ports) {
        for (const StreamLayout& layout : p.layouts) {
          for (const std::string& tail : layout.tails) {
            w_.line(p.vhdl, tail, " => sig_", inst.vhdl, "_", p.vhdl, tail,
                    --remaining > 0 ? "," : "");
          }
        }
      }
      w_.close(");");
      w_.dedent();
    }
  }

  /// A resolved wiring side: the port (for layouts and tails) and the
  /// signal-bundle prefix as view pieces (self ports use their own names,
  /// instance ports their declared internal bundle).
  struct Side {
    const IrPort* port = nullptr;
    std::string_view lead;  // "sig_" or ""
    std::string_view inst;  // instance identifier or ""
    std::string_view sep;   // "_" or ""
    std::string_view name;  // port identifier
  };

  [[nodiscard]] bool resolve_side(const IrEndpoint& ep, Side& out) {
    if (!ep.ok()) return false;
    Index cs;
    if (ep.is_self()) {
      cs = impl_.streamlet;
    } else {
      const IrInstance& inst = impl_.instances[ep.instance];
      cs = child_streamlet_index(inst);
      out.lead = "sig_";
      out.inst = inst.vhdl;
      out.sep = "_";
    }
    if (cs == kNoIndex) return false;
    out.port = &module_.streamlets[cs].ports[ep.port];
    out.name = out.port->vhdl;
    return true;
  }

  void emit_connection_wiring() {
    for (const IrConnection& c : impl_.connections) {
      Side src;
      Side dst;
      if (!resolve_side(c.src, src) || !resolve_side(c.dst, dst)) {
        diags_.warning("vhdl",
                       "unresolved connection " + c.src.display() + " => " +
                           c.dst.display() + "; skipped in VHDL",
                       c.loc);
        continue;
      }
      const auto src_layouts = src.port->layouts;
      const auto dst_layouts = dst.port->layouts;
      if (src_layouts.size() != dst_layouts.size()) continue;  // DRC reported
      emit_endpoint_comment(c.src, c.dst);
      for (std::size_t s = 0; s < src_layouts.size(); ++s) {
        const auto& src_sigs = src_layouts[s].signals;
        const auto& dst_sigs = dst_layouts[s].signals;
        const std::size_t common = std::min(src_sigs.size(), dst_sigs.size());
        for (std::size_t k = 0; k < common; ++k) {
          const PhysicalSignal& sig = src_sigs[k];
          // src side: the type's `<suffix>_<sig>` tail; dst side keeps the
          // historical spelling `<dst suffix>_<src signal name>`.
          const std::string& src_tail = src_layouts[s].tails[k];
          const std::string& dst_suffix = dst_layouts[s].suffix;
          if (sig.reverse) {
            // ready flows sink -> source.
            w_.line(src.lead, src.inst, src.sep, src.name, src_tail, " <= ",
                    dst.lead, dst.inst, dst.sep, dst.name, dst_suffix, "_",
                    sig.name, ";");
          } else {
            w_.line(dst.lead, dst.inst, dst.sep, dst.name, dst_suffix, "_",
                    sig.name, " <= ", src.lead, src.inst, src.sep, src.name,
                    src_tail, ";");
          }
        }
      }
    }
  }

  /// "-- src => dst" comment, written as interner-backed view pieces.
  void emit_endpoint_comment(const IrEndpoint& src, const IrEndpoint& dst) {
    auto named = [](support::Symbol sym) -> std::string_view {
      return sym != support::kNoSymbol ? std::string_view(support::symbol_name(sym))
                                       : std::string_view();
    };
    auto part = [&named](const IrEndpoint& ep,
                         std::size_t piece) -> std::string_view {
      if (ep.is_self()) {
        return piece == 2 ? named(ep.port_sym) : std::string_view();
      }
      switch (piece) {
        case 0: return named(ep.instance_sym);
        case 1: return ".";
        default: return named(ep.port_sym);
      }
    };
    w_.line("-- ", part(src, 0), part(src, 1), part(src, 2), " => ",
            part(dst, 0), part(dst, 1), part(dst, 2));
  }
};

void emit_external_architecture(CodeWriter& w, const IrImpl& impl,
                                const IrStreamlet& streamlet,
                                std::string_view name,
                                const VhdlOptions& options,
                                support::DiagnosticEngine& diags) {
  std::optional<RtlBody> body;
  if (options.generate_stdlib_rtl) {
    body = generate_stdlib_rtl(impl, streamlet);
  }
  if (!body) {
    w.open("architecture blackbox of ", name, " is");
    w.dedent();
    w.open("begin");
    w.line("-- external implementation '", impl.display_name,
           "' is provided by an external tool;");
    w.line("-- its behaviour is characterized by the Tydi simulation code "
           "and verified via generated testbenches.");
    w.close("end architecture blackbox;");
    if (!impl.template_family.empty()) {
      diags.note("vhdl",
                 "external impl '" + impl.display_name +
                     "' emitted as black box (no stdlib RTL generator for "
                     "family '" +
                     impl.template_family + "')",
                 impl.loc);
    }
    return;
  }
  // Splice the generated body by moving its rope chunks — the generators
  // wrote their lines at architecture-body depth already.
  w.open("architecture behavioural of ", name, " is");
  w.append(std::move(body->declarations));
  w.dedent();
  w.open("begin");
  w.append(std::move(body->statements));
  w.close("end architecture behavioural;");
}

}  // namespace

std::string emit(const Module& module, const VhdlOptions& options,
                 support::DiagnosticEngine& diags) {
  // Every entity port is emitted from its type's lowering, so each one
  // counts as a port-cache hit; the miss counter stays registered (at 0)
  // because metric names are append-only.
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& port_hits = reg.counter("tydi.vhdl.port_cache_hits");
  [[maybe_unused]] static obs::Counter& port_misses =
      reg.counter("tydi.vhdl.port_cache_misses");
  CodeWriter w;
  EmitCache cache(module);
  w.line("-- VHDL generated by tydi-cpp (Tydi-IR backend)");
  if (!module.top_name.empty()) w.line("-- top: ", module.top_name);
  w.line();
  for (std::size_t i = 0; i < module.impls.size(); ++i) {
    const IrImpl& impl = module.impls[i];
    const IrStreamlet* s = module.streamlet_of(impl);
    if (s == nullptr) {
      diags.warning("vhdl",
                    "impl '" + impl.name +
                        "' has unresolved streamlet; skipped",
                    impl.loc);
      continue;
    }
    const std::string& name = cache.impl_name(static_cast<Index>(i));
    w.line("library ieee;");
    w.line("use ieee.std_logic_1164.all;");
    w.line("use ieee.numeric_std.all;");
    w.line();
    w.line("-- ", impl.display_name, " of ", s->display_name);
    emit_entity(w, name, *s, cache);
    port_hits += s->ports.size();
    w.line();
    if (impl.external) {
      emit_external_architecture(w, impl, *s, name, options, diags);
    } else {
      ArchitectureEmitter arch(w, module, static_cast<Index>(i), cache, diags);
      arch.emit_structural();
    }
    w.line();
  }
  return w.take();
}

}  // namespace tydi::vhdl
