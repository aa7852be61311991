#include "src/tb/testbench.hpp"

#include <map>

#include "src/support/text.hpp"
#include "src/vhdl/vhdl.hpp"

namespace tydi::tb {

using ir::IrImpl;
using ir::IrPort;
using ir::IrStreamlet;
using ir::StreamLayout;
using support::CodeWriter;

namespace {

/// The top impl's streamlet, or nullptr when the module has no resolvable
/// top (emission then degrades to the boundary-trace-only parts).
const IrStreamlet* top_streamlet(const ir::Module& module,
                                 const IrImpl** top_out) {
  if (module.top == ir::kNoIndex) return nullptr;
  const IrImpl& top = module.impls[module.top];
  if (top_out != nullptr) *top_out = &top;
  return module.streamlet_of(top);
}

/// Cached sanitized identifier of a top port, resolved through the IR
/// streamlet (falls back to sanitizing the raw name for unknown ports).
std::string port_vhdl_name(const IrStreamlet* s, const std::string& port) {
  if (s != nullptr) {
    ir::Index index = s->port_index(support::intern(port));
    if (index != ir::kNoIndex) return s->ports[index].vhdl;
  }
  return vhdl::vhdl_name(port);
}

/// One DUT boundary net: full name (built once, reused by the declaration
/// and the port map) plus its VHDL type.
struct TbNet {
  std::string name;
  std::string type;
};

std::vector<TbNet> boundary_nets(const IrStreamlet& s) {
  std::vector<TbNet> nets;
  for (const IrPort& p : s.ports) {
    for (const StreamLayout& layout : p.layouts) {
      for (std::size_t k = 0; k < layout.signals.size(); ++k) {
        const types::PhysicalSignal& sig = layout.signals[k];
        TbNet net;
        net.name = p.vhdl + layout.tails[k];
        net.type = (sig.name == "valid" || sig.name == "ready")
                       ? "std_logic"
                       : "std_logic_vector(" + std::to_string(sig.width - 1) +
                             " downto 0)";
        nets.push_back(std::move(net));
      }
    }
  }
  return nets;
}

}  // namespace

std::string emit_ir_testbench(const ir::Module& module,
                              const sim::SimResult& result,
                              const TestbenchOptions& options) {
  CodeWriter w;
  w.line("// Tydi-IR testbench generated by tydi-cpp simulator");
  w.open("testbench ", options.name, " for ", module.top_name, " {");
  // Boundary-ness and port names are per-channel properties of the
  // columnar trace (see sim/trace.hpp).
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const sim::ChannelStats& ch = result.channels[result.trace.channel(i)];
    if (!ch.top_input && !ch.top_output) continue;
    w.line("at ", support::format_fixed(result.trace.time_ns(i), 1), " ns: ",
           ch.top_input ? "drive " : "expect ", ch.top_port, " = ",
           std::to_string(result.trace.value(i)),
           result.trace.last(i) ? " last" : "", ";");
  }
  w.close("}");
  return w.take();
}

std::string emit_vhdl_testbench(const ir::Module& module,
                                const sim::SimResult& result,
                                const TestbenchOptions& options) {
  const IrImpl* top = nullptr;
  const IrStreamlet* s = top_streamlet(module, &top);
  std::vector<TbNet> nets;
  if (s != nullptr) nets = boundary_nets(*s);
  CodeWriter w;
  w.line("-- VHDL testbench generated by tydi-cpp simulator");
  w.line("library ieee;");
  w.line("use ieee.std_logic_1164.all;");
  w.line("use ieee.numeric_std.all;");
  w.line();
  w.line("entity ", options.name, " is");
  w.line("end entity ", options.name, ";");
  w.line();
  w.open("architecture sim of ", options.name, " is");
  w.line("signal clk : std_logic := '0';");
  w.line("signal rst : std_logic := '1';");
  // Signal declarations straight off the layouts cached at lowering.
  for (const TbNet& net : nets) {
    w.line("signal ", net.name, " : ", net.type, ";");
  }
  w.line("constant c_period : time := ",
         support::format_fixed(options.clock_period_ns, 1), " ns;");
  w.dedent();
  w.open("begin");
  w.line("clk <= not clk after c_period / 2;");
  w.line("rst <= '0' after 2 * c_period;");
  w.line();
  if (top != nullptr && s != nullptr) {
    w.open("dut : entity work.", vhdl::vhdl_name(top->name));
    w.open("port map (");
    w.line("clk => clk,");
    w.line("rst => rst", nets.empty() ? "" : ",");
    for (std::size_t i = 0; i < nets.size(); ++i) {
      w.line(nets[i].name, " => ", nets[i].name,
             i + 1 < nets.size() ? "," : "");
    }
    w.close(");");
    w.dedent();
    w.line();
  }

  // Stimulus process: drives recorded inputs at their recorded times.
  w.open("stimulus : process");
  w.dedent();
  w.open("begin");
  w.line("wait until rst = '0';");
  double last_time = 0.0;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const sim::ChannelStats& ch = result.channels[result.trace.channel(i)];
    if (!ch.top_input) continue;
    double time_ns = result.trace.time_ns(i);
    double delta = time_ns - last_time;
    if (delta > 0.0) {
      w.line("wait for ", support::format_fixed(delta, 1), " ns;");
    }
    last_time = time_ns;
    std::string prefix = port_vhdl_name(s, ch.top_port);
    w.line(prefix, "_data <= std_logic_vector(to_unsigned(",
           std::to_string(result.trace.value(i)), ", ", prefix,
           "_data'length));");
    w.line(prefix, "_valid <= '1';");
    w.line("wait until ", prefix, "_ready = '1' and rising_edge(clk);");
    w.line(prefix, "_valid <= '0';");
  }
  w.line("wait;");
  w.close("end process stimulus;");
  w.line();

  // Checker process: expects recorded outputs in order.
  w.open("checker : process");
  w.dedent();
  w.open("begin");
  w.line("wait until rst = '0';");
  std::map<std::string, bool> ready_driven;
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    const sim::ChannelStats& ch = result.channels[result.trace.channel(i)];
    if (!ch.top_output) continue;
    std::string prefix = port_vhdl_name(s, ch.top_port);
    if (!ready_driven[prefix]) {
      w.line(prefix, "_ready <= '1';");
      ready_driven[prefix] = true;
    }
    std::string value = std::to_string(result.trace.value(i));
    w.line("wait until ", prefix, "_valid = '1' and rising_edge(clk);");
    w.line("assert unsigned(", prefix, "_data) = to_unsigned(", value, ", ",
           prefix, "_data'length)");
    w.line("  report \"unexpected packet on ", ch.top_port, " (expected ",
           value, ")\" severity error;");
  }
  w.line("report \"testbench completed\" severity note;");
  w.line("wait;");
  w.close("end process checker;");
  w.close("end architecture sim;");
  return w.take();
}

}  // namespace tydi::tb
