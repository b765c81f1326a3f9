// The pragma filter of paper §3.2.
//
// The GDB-Kernel programming model binds guest variables to iss_in/iss_out
// ports via breakpoints. The paper automates the setup with pragmas: "a
// special pragma, containing the name of the variable, is inserted before
// the line where the breakpoint is to be set; a simple filter automatically
// generates the proper GDB script … and a map <variable> <line>".
//
// Our guest sources are RV32 assembly, so the pragmas are:
//
//     #pragma iss_in("router.from_cpu", csum_result)
//     sw t2, 0(t3)            # the statement writing csum_result
//     <next statement>        # <- breakpoint lands HERE (line after)
//
//     #pragma iss_out("router.to_cpu", pkt_word)
//     lw t2, 0(t3)            # <- breakpoint lands HERE (the very line)
//
// matching the paper's rule: for iss_in ports the breakpoint goes on the
// line immediately *following* the statement (the value must be written
// before the stop); for iss_out ports it goes on the very line (the value
// is injected before the statement executes).
//
// filter_pragmas() rewrites the source with synthetic labels at the
// breakpoint lines and returns the binding list; resolve_bindings() turns
// labels and variable names into addresses after assembly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "iss/program.hpp"

namespace nisc::rsp {
class GdbClient;
}
namespace nisc::sysc {
class sc_simcontext;
}

namespace nisc::cosim {

/// Direction of a breakpoint binding, from the SystemC port's perspective.
enum class BindDirection : std::uint8_t {
  IssToSc,  ///< iss_in port: guest variable -> SystemC (pragma iss_in)
  ScToIss,  ///< iss_out port: SystemC -> guest variable (pragma iss_out)
};

/// One pragma occurrence, before address resolution.
struct PragmaBinding {
  BindDirection direction;
  std::string port;         ///< SystemC iss port name
  std::string variable;     ///< guest symbol
  std::string label;        ///< synthetic breakpoint label injected in source
  int pragma_line = 0;      ///< 1-based source line of the pragma
  int statement_line = 0;   ///< 1-based line of the annotated statement
  int breakpoint_line = 0;  ///< 1-based line the breakpoint label lands on
};

/// Output of the filter: transformed source plus binding records.
struct FilteredSource {
  std::string source;
  std::vector<PragmaBinding> bindings;
};

/// Scans `source` for #pragma iss_in/iss_out annotations, injects synthetic
/// breakpoint labels per the paper's placement rules, and strips the
/// pragmas. Throws RuntimeError on malformed pragmas.
FilteredSource filter_pragmas(std::string_view source);

/// A fully resolved breakpoint<->port binding.
struct BreakpointBinding {
  BindDirection direction;
  std::string port;
  std::string variable;
  std::uint32_t breakpoint_addr = 0;
  std::uint32_t variable_addr = 0;
  std::uint32_t width = 4;  ///< bytes transferred per hit
};

/// Resolves filtered bindings against an assembled program's symbol table.
/// Throws RuntimeError when a label or variable is undefined.
std::vector<BreakpointBinding> resolve_bindings(const std::vector<PragmaBinding>& bindings,
                                                const iss::Program& program);

/// Services one binding for a target halted at its breakpoint, the transfer
/// both GDB schemes make (paper Fig. 3): IssToSc reads the guest variable
/// over `client` and delivers it into the binding's iss_in port; ScToIss
/// writes the iss_out port's fresh value into the variable and consumes it.
/// Returns false, touching neither side, when the transfer must wait: the
/// iss_in port still holds a value its iss_process has not seen, or the
/// hardware has not written a fresh iss_out value. The target stays halted
/// meanwhile, which is the schemes' flow control.
bool transfer_binding(rsp::GdbClient& client, sysc::sc_simcontext& ctx,
                      const BreakpointBinding& binding);

}  // namespace nisc::cosim
