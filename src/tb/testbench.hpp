// Testbench generation (Sec. V-C).
//
// The simulator records the packet trace at the top-level boundary; from it
// we generate
//  1. a Tydi-IR testbench (the "prediction strategy" text format: drive the
//     recorded inputs, expect the recorded outputs), and
//  2. a VHDL testbench that instantiates the top entity, plays the input
//     packets through the physical stream signals, and asserts the outputs,
// so low-level tools can verify that external implementations behave as
// their simulation code promised.
//
// Like every other backend (DRC, VHDL, fletchgen), testbench generation
// consumes the lowered `ir::Module`: port signal lists come from the
// `StreamLayout`s cached once per type, not from re-running
// `types::physical_streams()` per port.
#pragma once

#include <string>

#include "src/ir/ir.hpp"
#include "src/sim/engine.hpp"

namespace tydi::tb {

struct TestbenchOptions {
  std::string name = "tb_top";
  double clock_period_ns = 10.0;
};

/// Tydi-IR testbench text from a recorded simulation trace.
[[nodiscard]] std::string emit_ir_testbench(const ir::Module& module,
                                            const sim::SimResult& result,
                                            const TestbenchOptions& options);

/// VHDL testbench (entity + stimulus/checker process).
[[nodiscard]] std::string emit_vhdl_testbench(const ir::Module& module,
                                              const sim::SimResult& result,
                                              const TestbenchOptions& options);

}  // namespace tydi::tb
